"""Texture-guided masking: Laplacian texture map, per-patch complexity
scores, and the deterministic top-M mask.

A masked sample is two arrays: its (L, N) patch rows (image.patchify) and
an (L,) bool mask, True where a patch is masked."""

from __future__ import annotations

import numpy as np

from .corrupt import CorruptionConfig, mixed_corrupt
from .errors import FedmimError
from .image import as_image, convolve2d, patchify
from .rng import Rng

LAPLACIAN_STENCIL = np.array(
    [[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]
)


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def mask_count(mask_ratio: float, num_patches: int) -> int:
    """How many of num_patches patches a mask ratio in (0,1) masks:
    round_half_up(mask_ratio * num_patches)."""
    if not (0.0 < mask_ratio < 1.0):
        raise FedmimError(f"mask ratio must be in (0,1), got {mask_ratio}")
    return round_half_up(mask_ratio * num_patches)


def texture_map(img: np.ndarray) -> np.ndarray:
    """Signed 4-neighbor discrete Laplacian with edge replication."""
    return convolve2d(as_image(img), LAPLACIAN_STENCIL)


def patch_scores(tex: np.ndarray, patch_h: int, patch_w: int) -> np.ndarray:
    """Per-patch texture complexity: sum of |Laplacian| over the patch."""
    return np.abs(patchify(tex, patch_h, patch_w)).sum(axis=1)


def select_mask(scores: np.ndarray, mask_ratio: float) -> np.ndarray:
    """The (L,) bool mask of the round-half-up(M*L) highest-scoring patches.

    Ties break toward the lower patch index, so the mask is a pure
    function of the score vector.
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    masked = np.zeros(scores.size, dtype=bool)
    masked[order[:mask_count(mask_ratio, scores.size)]] = True
    return masked


def partition_image(
    corrupted: np.ndarray, patch_h: int, patch_w: int, mask_ratio: float,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A corrupted image's (patches, masked) pair, masked by texture; the
    patch rows go into out, a C-contiguous (L, N) float64 array, if given."""
    scores = patch_scores(texture_map(corrupted), patch_h, patch_w)
    return patchify(corrupted, patch_h, patch_w, out=out), select_mask(scores, mask_ratio)


def apply_uim(
    img: np.ndarray,
    corr_cfg: CorruptionConfig,
    patch_h: int,
    patch_w: int,
    mask_ratio: float,
    rng: Rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-image pipeline: corrupt, then mask by the corrupted texture.

    This covers only the per-image corruption and masking stages; no
    pipeline stage balances scan modes.
    """
    return partition_image(mixed_corrupt(img, corr_cfg, rng), patch_h, patch_w, mask_ratio)
