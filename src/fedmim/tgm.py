"""Texture-guided masking: Laplacian texture map, per-patch complexity
scores, and the deterministic top-M masked/visible partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrupt import CorruptionConfig, mixed_corrupt
from .errors import InvalidRatio
from .image import PatchGrid, as_image, convolve2d, patchify
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
        raise InvalidRatio(f"mask ratio must be in (0,1), got {mask_ratio}")
    return round_half_up(mask_ratio * num_patches)


@dataclass(frozen=True)
class MaskPartition:
    """Disjoint masked/visible patch index sets covering 0..L-1."""

    masked: tuple[int, ...]
    visible: tuple[int, ...]

    def __post_init__(self):
        overlap = set(self.masked) & set(self.visible)
        if overlap:
            raise ValueError(f"masked and visible overlap: {sorted(overlap)}")


def texture_map(img: np.ndarray) -> np.ndarray:
    """Signed 4-neighbor discrete Laplacian with edge replication."""
    return convolve2d(as_image(img), LAPLACIAN_STENCIL)


def patch_scores(tex: np.ndarray, patch_h: int, patch_w: int) -> np.ndarray:
    """Per-patch texture complexity: sum of |Laplacian| over the patch."""
    grid = patchify(tex, patch_h, patch_w)
    return np.abs(grid.patches).sum(axis=1)


def select_mask(scores: np.ndarray, mask_ratio: float) -> MaskPartition:
    """Mask the round-half-up(M*L) highest-scoring patches.

    Ties break toward the lower patch index, so the partition is a pure
    function of the score vector.
    """
    scores = np.asarray(scores, dtype=np.float64)
    num_patches = scores.size
    n_masked = mask_count(mask_ratio, num_patches)
    order = np.argsort(-scores, kind="stable")
    masked = tuple(sorted(order[:n_masked].tolist()))
    visible = tuple(sorted(order[n_masked:].tolist()))
    return MaskPartition(masked, visible)


def partition_image(
    corrupted: np.ndarray, patch_h: int, patch_w: int, mask_ratio: float
) -> tuple[PatchGrid, MaskPartition]:
    """A corrupted image's patches and its partition by texture."""
    grid = patchify(corrupted, patch_h, patch_w)
    scores = patch_scores(texture_map(corrupted), patch_h, patch_w)
    return grid, select_mask(scores, mask_ratio)


def apply_uim(
    img: np.ndarray,
    corr_cfg: CorruptionConfig,
    patch_h: int,
    patch_w: int,
    mask_ratio: float,
    rng: Rng,
) -> tuple[PatchGrid, MaskPartition]:
    """Per-image pipeline: corrupt, then partition by the corrupted texture.

    This covers only the per-image corruption and masking stages; no
    pipeline stage balances scan modes.
    """
    return partition_image(mixed_corrupt(img, corr_cfg, rng), patch_h, patch_w, mask_ratio)
