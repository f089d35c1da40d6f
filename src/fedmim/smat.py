"""Scan-mode conversion between linear-array (rectangular) and
convex-array (sector) ultrasound images.

Both directions are inverse-mapped warps: we iterate over output pixels,
compute the matching source coordinate through the polar geometry, and
bilinearly sample the source. The angle theta is measured from the
vertical down-axis (atan2(dx, dy)), matching a top-center apex with the
beam pointing down. The map depends only on the geometry and the sizes,
so each direction builds its bilinear plan once per (geometry, source
size, output size) and applies it to every image of that key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FedmimError
from .image import BilinearPlan, apply_bilinear, as_image, bilinear_plan

LINEAR = "linear"
CONVEX = "convex"


@dataclass(frozen=True)
class ScanGeometry:
    """Convex-probe sector: apex position, radius band, and half-angle."""

    apex_x: float
    apex_y: float
    r_min: float
    r_max: float
    half_angle: float

    def __post_init__(self):
        if not (0.0 <= self.r_min < self.r_max):
            raise FedmimError(f"need 0 <= r_min < r_max, got {self.r_min}, {self.r_max}")
        if not (0.0 < self.half_angle < np.pi / 2):
            raise FedmimError(f"half_angle must be in (0, pi/2), got {self.half_angle}")

    @staticmethod
    def default_for(width: int, height: int) -> "ScanGeometry":
        # Probe geometry is configurable; these defaults give a ~60 degree
        # sector spanning most of the image height.
        return ScanGeometry(
            apex_x=(width - 1) / 2.0,
            apex_y=0.0,
            r_min=0.08 * height,
            r_max=0.98 * height,
            half_angle=np.deg2rad(30.0),
        )


# Plans kept per direction: a run warps at one or two sizes, and a
# 64 x 64 plan holds about 260 kB.
_PLANS = 4


@lru_cache(maxsize=_PLANS)
def linear_to_convex_plan(geom: ScanGeometry, src_shape: tuple[int, int],
                          out_w: int, out_h: int) -> BilinearPlan:
    """Where each sector pixel samples the rectangular source: column by
    angle, row by radius; pixels outside the sector keep nothing."""
    h_src, w_src = src_shape
    ys, xs = np.mgrid[0:out_h, 0:out_w].astype(np.float64)
    dx = xs - geom.apex_x
    dy = ys - geom.apex_y
    r = np.hypot(dx, dy)
    theta = np.arctan2(dx, dy)
    in_sector = (r >= geom.r_min) & (r <= geom.r_max) & (np.abs(theta) <= geom.half_angle)
    u = (theta + geom.half_angle) / (2.0 * geom.half_angle) * (w_src - 1)
    v = (r - geom.r_min) / (geom.r_max - geom.r_min) * (h_src - 1)
    return bilinear_plan(src_shape, u, v, within=in_sector)


@lru_cache(maxsize=_PLANS)
def convex_to_linear_plan(geom: ScanGeometry, src_shape: tuple[int, int],
                          out_w: int, out_h: int) -> BilinearPlan:
    """Where each rectangle pixel samples the sector source: angle by
    column, radius by row."""
    if out_w < 2 or out_h < 2:
        raise FedmimError("output must be at least 2x2")
    ys, xs = np.mgrid[0:out_h, 0:out_w].astype(np.float64)
    theta = -geom.half_angle + xs / (out_w - 1) * 2.0 * geom.half_angle
    r = geom.r_min + ys / (out_h - 1) * (geom.r_max - geom.r_min)
    sx = geom.apex_x + r * np.sin(theta)
    sy = geom.apex_y + r * np.cos(theta)
    return bilinear_plan(src_shape, sx, sy)


def linear_to_convex(img: np.ndarray, geom: ScanGeometry, out_w: int, out_h: int) -> np.ndarray:
    """Warp a rectangular image onto the sector; pixels outside are exactly 0."""
    img = as_image(img)
    return apply_bilinear(linear_to_convex_plan(geom, img.shape, out_w, out_h), img)


def convex_to_linear(img: np.ndarray, geom: ScanGeometry, out_w: int, out_h: int) -> np.ndarray:
    """Unwarp a sector image back to a rectangle (angle -> column, radius -> row)."""
    img = as_image(img)
    return apply_bilinear(convex_to_linear_plan(geom, img.shape, out_w, out_h), img)
