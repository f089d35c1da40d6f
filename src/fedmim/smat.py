"""Scan-mode conversion between linear-array (rectangular) and
convex-array (sector) ultrasound images.

Both directions are inverse-mapped warps: we iterate over output pixels,
compute the matching source coordinate through the polar geometry, and
bilinearly sample the source. The angle theta is measured from the
vertical down-axis (atan2(dx, dy)), matching a top-center apex with the
beam pointing down. A warp keeps the image's size, and its probe follows
from that size alone, so each direction builds its bilinear plan once
per image shape and applies it to every image of that shape.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import FedmimError
from .image import BilinearPlan, apply_bilinear, as_image, bilinear_plan

LINEAR = "linear"
CONVEX = "convex"

# The one probe of an H x W image: apex at (x, y) = ((W - 1) / 2, 0), the
# top centre; radii from 0.08 H to 0.98 H; a sector 30 degrees either side
# of the vertical.
_HALF_ANGLE = np.deg2rad(30.0)


def _sector(shape: tuple[int, int]) -> tuple[float, float, float]:
    """The apex column and the radius band of an H x W image's probe."""
    h, w = shape
    return (w - 1) / 2.0, 0.08 * h, 0.98 * h


# Plans kept per direction: a run warps at one or two sizes, and a
# 64 x 64 plan holds about 260 kB.
_PLANS = 4


@lru_cache(maxsize=_PLANS)
def linear_to_convex_plan(shape: tuple[int, int]) -> BilinearPlan:
    """Where each sector pixel samples the rectangular source: column by
    angle, row by radius; pixels outside the sector keep nothing."""
    h, w = shape
    apex_x, r_min, r_max = _sector(shape)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    dx = xs - apex_x
    r = np.hypot(dx, ys)
    theta = np.arctan2(dx, ys)
    in_sector = (r >= r_min) & (r <= r_max) & (np.abs(theta) <= _HALF_ANGLE)
    u = (theta + _HALF_ANGLE) / (2.0 * _HALF_ANGLE) * (w - 1)
    v = (r - r_min) / (r_max - r_min) * (h - 1)
    return bilinear_plan(shape, u, v, within=in_sector)


@lru_cache(maxsize=_PLANS)
def convex_to_linear_plan(shape: tuple[int, int]) -> BilinearPlan:
    """Where each rectangle pixel samples the sector source: angle by
    column, radius by row."""
    h, w = shape
    if w < 2 or h < 2:
        raise FedmimError("output must be at least 2x2")
    apex_x, r_min, r_max = _sector(shape)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    theta = -_HALF_ANGLE + xs / (w - 1) * 2.0 * _HALF_ANGLE
    r = r_min + ys / (h - 1) * (r_max - r_min)
    return bilinear_plan(shape, apex_x + r * np.sin(theta), r * np.cos(theta))


def linear_to_convex(img: np.ndarray) -> np.ndarray:
    """Warp a rectangular image onto the sector; pixels outside are exactly 0."""
    img = as_image(img)
    return apply_bilinear(linear_to_convex_plan(img.shape), img)


def convex_to_linear(img: np.ndarray) -> np.ndarray:
    """Unwarp a sector image back to a rectangle (angle -> column, radius -> row)."""
    img = as_image(img)
    return apply_bilinear(convex_to_linear_plan(img.shape), img)
