"""Scan-mode conversion: sector geometry, round trips, dataset balancing."""

import numpy as np
import pytest

from fedmim.errors import InvalidGeometry
from fedmim.image import convolve2d
from fedmim.corrupt import gaussian_kernel
from fedmim.smat import (
    CONVEX,
    LINEAR,
    ScanGeometry,
    convex_to_linear,
    linear_to_convex,
)


def default_geom(w=64, h=64):
    return ScanGeometry.default_for(w, h)


def balance_dataset(
    tagged: list[tuple[np.ndarray, str]], geom: ScanGeometry
) -> list[tuple[np.ndarray, str]]:
    """The originals plus each image's opposite-mode transform, so the two
    warps compose into a mode-balanced set twice the input's size."""
    out: list[tuple[np.ndarray, str]] = []
    for img, mode in tagged:
        if mode not in (LINEAR, CONVEX):
            raise ValueError(f"unknown mode tag {mode!r}")
        h, w = img.shape
        out.append((img, mode))
        if mode == LINEAR:
            out.append((linear_to_convex(img, geom, w, h), CONVEX))
        else:
            out.append((convex_to_linear(img, geom, w, h), LINEAR))
    return out


def test_geometry_validation():
    with pytest.raises(InvalidGeometry, match="^need 0 <= r_min < r_max, got 10.0, 5.0$"):
        ScanGeometry(0, 0, 10.0, 5.0, 0.5)
    with pytest.raises(InvalidGeometry, match=r"^half_angle must be in \(0, pi/2\), got 2.0$"):
        ScanGeometry(0, 0, 1.0, 5.0, 2.0)
    default_geom()


def test_sector_exterior_exactly_zero():
    geom = default_geom()
    out = linear_to_convex(np.full((64, 64), 200.0), geom, 64, 64)
    ys, xs = np.mgrid[0:64, 0:64].astype(np.float64)
    r = np.hypot(xs - geom.apex_x, ys - geom.apex_y)
    theta = np.arctan2(xs - geom.apex_x, ys - geom.apex_y)
    outside = (r < geom.r_min) | (r > geom.r_max) | (np.abs(theta) > geom.half_angle)
    assert np.all(out[outside] == 0.0)


def test_constant_sector_stays_constant():
    geom = default_geom()
    convex = linear_to_convex(np.full((64, 64), 123.0), geom, 64, 64)
    inside = convex > 0.0
    np.testing.assert_allclose(convex[inside], 123.0, atol=1e-9)
    # Unwarping samples only in-sector points, so the constant survives
    # except near the sector rim where bilinear blends with the 0
    # exterior; check the interior rows/columns.
    linear = convex_to_linear(convex, geom, 64, 64)
    assert np.abs(linear[6:-6, 6:-6] - 123.0).max() < 5.0


def test_center_column_maps_to_vertical_ray():
    # Paint the source center column white: theta = 0 must reproduce it
    # along the vertical line through the apex. Use an odd width so the
    # apex x and the center column fall on integer pixel coordinates.
    geom = default_geom(65, 64)
    img = np.zeros((64, 65))
    img[:, 32] = 255.0  # center column is (W-1)/2 = 32
    out = linear_to_convex(img, geom, 65, 64)
    ray = out[:, 32]  # apex_x = 32, so this column is the theta = 0 ray
    ys = np.arange(64, dtype=np.float64)
    in_band = (ys >= geom.r_min + 1) & (ys <= geom.r_max - 1)
    assert np.all(ray[in_band] > 100.0)
    # Columns far from the apex x stay dark on that source column.
    assert np.all(out[:, :10] < 60.0)


def test_unwarp_center_samples_vertical_ray():
    geom = default_geom()
    convex = np.zeros((64, 64))
    xc = int(round(geom.apex_x))
    convex[:, xc - 1 : xc + 2] = 255.0
    linear = convex_to_linear(convex, geom, 64, 64)
    mid = linear[:, 31:33]
    assert np.all(mid > 100.0)


def test_round_trip_smooth_image():
    geom = default_geom(128, 128)
    rng = np.random.default_rng(0)
    img = convolve2d(rng.uniform(0.0, 255.0, (128, 128)), gaussian_kernel(2.0))
    back = convex_to_linear(linear_to_convex(img, geom, 128, 128), geom, 128, 128)
    err = np.abs(back[3:-3, 3:-3] - img[3:-3, 3:-3])
    assert err.mean() < 5.0


def test_convex_to_linear_rejects_tiny_output():
    with pytest.raises(InvalidGeometry):
        convex_to_linear(np.zeros((8, 8)), default_geom(8, 8), 1, 8)


def test_balance_dataset_doubles_and_evens_modes():
    geom = default_geom(16, 16)
    tagged = [
        (np.full((16, 16), 10.0), LINEAR),
        (np.full((16, 16), 20.0), LINEAR),
        (linear_to_convex(np.full((16, 16), 30.0), geom, 16, 16), CONVEX),
    ]
    out = balance_dataset(tagged, geom)
    assert len(out) == 6
    modes = [m for _, m in out]
    assert modes.count(LINEAR) == modes.count(CONVEX) == 3
    # Originals are preserved in order.
    assert out[0][1] == LINEAR and out[0][0] is tagged[0][0]


def test_balance_dataset_empty():
    assert balance_dataset([], default_geom()) == []


def test_balance_dataset_rejects_unknown_mode():
    with pytest.raises(ValueError):
        balance_dataset([(np.zeros((8, 8)), "doppler")], default_geom(8, 8))
