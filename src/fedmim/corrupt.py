"""Mixed image corruption: motion blur, Gaussian blur, salt-and-pepper.

The motion kernel is the d x d identity-matrix image rotated by phi about
its center with a bilinear warp, then renormalized to sum 1; phi = 0
reproduces (1/d) * U exactly. Following the source formulas, p_s is the
probability of a pixel going to 0 and p_p of going to 255.

No draw depends on a pixel, so the draws of many images (draw_corruptions)
come apart from the pixel work (apply_corruption), and their
salt-and-pepper draws run in lockstep lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidKernel
from .image import as_image, bilinear_sample_grid, convolve2d
from .rng import Rng, lockstep_random

MOTION = "motion"
GAUSSIAN = "gaussian"
SALTPEPPER = "saltpepper"
_OPS = (MOTION, GAUSSIAN, SALTPEPPER)

# Ranges the per-image motion angle phi and blur sigma are drawn from.
PHI_RANGE = (0.0, math.pi)
SIGMA_RANGE = (0.5, 2.5)


@dataclass(frozen=True)
class CorruptionConfig:
    """Knobs for mixed_corrupt; the motion angle phi and the blur sigma are
    drawn fresh per image."""

    p: float = 0.5
    motion_d: int = 7
    p_salt: float = 0.02
    p_pepper: float = 0.02

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0,1], got {self.p}")
        if not (0.0 <= self.p_salt <= 1.0 and 0.0 <= self.p_pepper <= 1.0
                and self.p_salt + self.p_pepper <= 1.0):
            raise ValueError("salt/pepper probabilities invalid")
        if self.motion_d < 1 or self.motion_d % 2 == 0:
            raise ValueError(f"motion_d must be odd and >= 1, got {self.motion_d}")


def motion_blur_kernel(d: int, phi: float) -> np.ndarray:
    """Line-segment blur kernel of length d at angle phi, sum exactly 1."""
    if d < 1 or d % 2 == 0:
        raise InvalidKernel(f"d must be odd and >= 1, got {d}")
    identity = np.eye(d, dtype=np.float64)
    c = (d - 1) / 2.0
    ys, xs = np.mgrid[0:d, 0:d].astype(np.float64)
    dx = xs - c
    dy = ys - c
    # Inverse rotation: sample the identity image at R(-phi) * offset.
    cos_p = math.cos(phi)
    sin_p = math.sin(phi)
    sx = c + cos_p * dx + sin_p * dy
    sy = c - sin_p * dx + cos_p * dy
    # Snap away rotation round-off so quarter-turn angles stay exact.
    sx = np.where(np.abs(sx - np.round(sx)) < 1e-9, np.round(sx), sx)
    sy = np.where(np.abs(sy - np.round(sy)) < 1e-9, np.round(sy), sy)
    kernel = bilinear_sample_grid(identity, sx, sy)
    total = kernel.sum()
    if total <= 0.0:
        raise InvalidKernel("degenerate motion kernel")
    return kernel / total


def gaussian_taps(sigma: float, radius: int) -> np.ndarray:
    """Unnormalized Gaussian samples G(u, v; sigma) at integer offsets."""
    if sigma <= 0.0:
        raise InvalidKernel(f"sigma must be positive, got {sigma}")
    if radius < 1:
        raise InvalidKernel(f"radius must be >= 1, got {radius}")
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    u, v = np.meshgrid(offsets, offsets)
    return np.exp(-(u * u + v * v) / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized Gaussian kernel truncated at radius max(1, ceil(3 sigma))."""
    taps = gaussian_taps(sigma, max(1, math.ceil(3.0 * sigma)))
    return taps / taps.sum()


def salt_pepper_draws(shapes: list[tuple[int, int]], p_salt: float, p_pepper: float,
                      rngs: list[Rng]) -> list[np.ndarray]:
    """The salt-and-pepper draws of images of the given shapes, one rng
    each: per pixel, 2 (salt, u < p_salt), 1 (pepper, u < p_salt +
    p_pepper) or 0 (unchanged), from one uniform u per pixel in row-major
    order. The images of one shape draw in lockstep, one lane each; every
    rng draws what salt_pepper alone would draw.
    """
    if p_salt + p_pepper > 1.0 or p_salt < 0.0 or p_pepper < 0.0:
        raise ValueError("need p_salt, p_pepper >= 0 and p_salt + p_pepper <= 1")
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(i)
    codes: list[np.ndarray] = [None] * len(shapes)
    for shape, members in by_shape.items():
        u = np.empty((len(members),) + shape)
        lockstep_random([rngs[i] for i in members], u.reshape(len(members), -1))
        for i, lane in zip(members, u):
            codes[i] = (lane < p_salt).astype(np.int8) + (lane < p_salt + p_pepper)
    return codes


def _salted(img: np.ndarray, codes: np.ndarray) -> np.ndarray:
    return np.where(codes == 2, 0.0, np.where(codes == 1, 255.0, img))


def salt_pepper(img: np.ndarray, p_salt: float, p_pepper: float, rng: Rng) -> np.ndarray:
    """Per-pixel noise: 0 w.p. p_salt, 255 w.p. p_pepper, else unchanged.

    Exactly one rng draw per pixel in row-major order, so results are
    reproducible no matter how the caller parallelizes across images.
    """
    img = as_image(img)
    return _salted(img, salt_pepper_draws([img.shape], p_salt, p_pepper, [rng])[0])


def _draw_ops(cfg: CorruptionConfig, rng: Rng) -> list[str]:
    """The distinct ops an image takes, in order: none w.p. 1 - cfg.p,
    else 1-3 of them."""
    if rng.random() >= cfg.p:
        return []
    remaining = list(_OPS)
    return [remaining.pop(rng.randint(len(remaining))) for _ in range(1 + rng.randint(3))]


def _blur_draw(op: str, rng: Rng) -> tuple[str, float]:
    """A blur op with its draw: the motion angle phi or the Gaussian sigma."""
    return op, rng.uniform(*(PHI_RANGE if op == MOTION else SIGMA_RANGE))


def draw_corruptions(shapes: list[tuple[int, int]], cfg: CorruptionConfig,
                     rngs: list[Rng]) -> list[list[tuple[str, object]]]:
    """What mixed_corrupt draws for images of the given shapes, one rng
    each, as each image's ops in order with their draws: (MOTION, phi),
    (GAUSSIAN, sigma) or (SALTPEPPER, salt_pepper_draws codes).

    No draw depends on a pixel, so each image draws its ops up to
    salt-and-pepper alone, the images that reach it draw its uniforms
    together, and then each draws the ops after it.
    """
    plans, rests = [], []
    for rng in rngs:
        ops = _draw_ops(cfg, rng)
        cut = ops.index(SALTPEPPER) if SALTPEPPER in ops else len(ops)
        plans.append([_blur_draw(op, rng) for op in ops[:cut]])
        rests.append(ops[cut + 1:] if cut < len(ops) else None)
    noisy = [i for i, rest in enumerate(rests) if rest is not None]
    codes = salt_pepper_draws([shapes[i] for i in noisy], cfg.p_salt, cfg.p_pepper,
                              [rngs[i] for i in noisy])
    for i, code in zip(noisy, codes):
        plans[i].append((SALTPEPPER, code))
        plans[i].extend(_blur_draw(op, rngs[i]) for op in rests[i])
    return plans


def apply_corruption(img: np.ndarray, plan: list[tuple[str, object]],
                     cfg: CorruptionConfig) -> np.ndarray:
    """img with the ops of one draw_corruptions plan applied in order."""
    out = as_image(img)
    if not plan:
        return out.copy()
    for op, drawn in plan:
        if op == MOTION:
            out = convolve2d(out, motion_blur_kernel(cfg.motion_d, drawn))
        elif op == GAUSSIAN:
            out = convolve2d(out, gaussian_kernel(drawn))
        else:
            out = _salted(out, drawn)
    return out


def mixed_corrupt(img: np.ndarray, cfg: CorruptionConfig, rng: Rng) -> np.ndarray:
    """Apply 1-3 distinct corruption ops in draw order, w.p. cfg.p overall."""
    img = as_image(img)
    return apply_corruption(img, draw_corruptions([img.shape], cfg, [rng])[0], cfg)
