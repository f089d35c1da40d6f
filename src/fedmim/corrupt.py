"""Mixed image corruption: motion blur, Gaussian blur, salt-and-pepper.

The motion kernel is the d x d identity-matrix image rotated by phi about
its center with a bilinear warp, then renormalized to sum 1; phi = 0
reproduces (1/d) * U exactly. Following the source formulas, p_s is the
probability of a pixel going to 0 and p_p of going to 255.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidKernel
from .image import as_image, bilinear_sample_grid, convolve2d
from .rng import Rng

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


def salt_pepper(img: np.ndarray, p_salt: float, p_pepper: float, rng: Rng) -> np.ndarray:
    """Per-pixel noise: 0 w.p. p_salt, 255 w.p. p_pepper, else unchanged.

    Exactly one rng draw per pixel in row-major order, so results are
    reproducible no matter how the caller parallelizes across images.
    """
    if p_salt + p_pepper > 1.0 or p_salt < 0.0 or p_pepper < 0.0:
        raise ValueError("need p_salt, p_pepper >= 0 and p_salt + p_pepper <= 1")
    img = as_image(img)
    out = img.copy()
    flat = out.ravel()
    threshold = p_salt + p_pepper
    for i in range(flat.size):
        u = rng.random()
        if u < p_salt:
            flat[i] = 0.0
        elif u < threshold:
            flat[i] = 255.0
    return out


def mixed_corrupt(img: np.ndarray, cfg: CorruptionConfig, rng: Rng) -> np.ndarray:
    """Apply 1-3 distinct corruption ops in draw order, w.p. cfg.p overall."""
    img = as_image(img)
    if rng.random() >= cfg.p:
        return img.copy()
    k = 1 + rng.randint(3)
    ops: list[str] = []
    remaining = list(_OPS)
    for _ in range(k):
        ops.append(remaining.pop(rng.randint(len(remaining))))
    out = img
    for op in ops:
        if op == MOTION:
            phi = rng.uniform(*PHI_RANGE)
            out = convolve2d(out, motion_blur_kernel(cfg.motion_d, phi))
        elif op == GAUSSIAN:
            out = convolve2d(out, gaussian_kernel(rng.uniform(*SIGMA_RANGE)))
        else:
            out = salt_pepper(out, cfg.p_salt, cfg.p_pepper, rng)
    return out
