"""Scan-mode conversion: sector geometry and round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fedmim.errors import FedmimError
from fedmim.image import convolve2d
from fedmim.smat import (
    ScanGeometry,
    convex_to_linear,
    convex_to_linear_plan,
    linear_to_convex,
    linear_to_convex_plan,
)

WARPS = [(linear_to_convex, oracles.linear_to_convex),
         (convex_to_linear, oracles.convex_to_linear)]


def default_geom(w=64, h=64):
    return ScanGeometry.default_for(w, h)


def test_geometry_validation():
    with pytest.raises(FedmimError, match="^need 0 <= r_min < r_max, got 10.0, 5.0$"):
        ScanGeometry(0, 0, 10.0, 5.0, 0.5)
    with pytest.raises(FedmimError, match=r"^half_angle must be in \(0, pi/2\), got 2.0$"):
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
    img = convolve2d(rng.uniform(0.0, 255.0, (128, 128)), oracles.gaussian_kernel(2.0))
    back = convex_to_linear(linear_to_convex(img, geom, 128, 128), geom, 128, 128)
    err = np.abs(back[3:-3, 3:-3] - img[3:-3, 3:-3])
    assert err.mean() < 5.0


def test_convex_to_linear_rejects_tiny_output():
    geom = default_geom(8, 8)
    for out_w, out_h in [(1, 8), (8, 1), (0, 0)]:
        convex_to_linear(np.zeros((8, 8)), geom, 8, 8)  # a valid key is cached
        with pytest.raises(FedmimError, match="^output must be at least 2x2$"):
            convex_to_linear(np.zeros((8, 8)), geom, out_w, out_h)


def _image(seed: int, h: int, w: int, binary: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if binary:
        return np.where(rng.random((h, w)) < 0.5, 0.0, 255.0)
    return rng.uniform(0.0, 255.0, (h, w))


@st.composite
def geometries(draw, w: int, h: int) -> ScanGeometry:
    if draw(st.booleans()):
        return ScanGeometry.default_for(w, h)
    r_min = draw(st.floats(0.0, float(h)))
    return ScanGeometry(
        apex_x=draw(st.floats(-2.0, w + 2.0)),
        apex_y=draw(st.floats(-2.0, h / 2.0)),
        r_min=r_min,
        r_max=r_min + draw(st.floats(0.5, 2.0 * h)),
        half_angle=draw(st.floats(0.05, 1.5)),
    )


@given(st.data(), st.integers(2, 80), st.integers(2, 80), st.integers(2, 80),
       st.integers(2, 80), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_warps_match_per_call_oracles(data, h, w, out_h, out_w, seed, binary):
    img = _image(seed, h, w, binary)
    geom = data.draw(geometries(w, h))
    for warp, oracle in WARPS:
        out = warp(img, geom, out_w, out_h)
        assert out.shape == (out_h, out_w)
        assert out.tobytes() == oracle(img, geom, out_w, out_h).tobytes()


def test_warp_plans_follow_their_key():
    # More keys than either cache holds, visited in turn and then in
    # reverse, so a plan served for the wrong key would show.
    keys = []
    for w, h in [(64, 64), (48, 32), (33, 17), (2, 2)]:
        keys.append((default_geom(w, h), (h, w), w, h))
        keys.append((ScanGeometry(w / 3.0, -1.0, 0.5, 1.2 * h, 0.7), (h, w), h, w))
    for geom, (h, w), out_w, out_h in keys + keys[::-1] + keys:
        img = _image(h * 100 + w, h, w, False)
        for warp, oracle in WARPS:
            assert warp(img, geom, out_w, out_h).tobytes() == \
                oracle(img, geom, out_w, out_h).tobytes()


def test_warp_plans_are_read_only_and_bounded():
    for plan_of in (linear_to_convex_plan, convex_to_linear_plan):
        plan = plan_of(default_geom(16, 16), (16, 16), 16, 16)
        for arr in (plan.corners, plan.weights, plan.keep):
            assert not arr.flags.writeable
        assert plan_of.cache_info().maxsize <= 8
