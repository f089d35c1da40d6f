"""Scan-mode conversion: the fixed sector and round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fedmim.errors import FedmimError
from fedmim.image import convolve2d
from fedmim.smat import (
    convex_to_linear,
    convex_to_linear_plan,
    linear_to_convex,
    linear_to_convex_plan,
)

WARPS = [(linear_to_convex, oracles.linear_to_convex),
         (convex_to_linear, oracles.convex_to_linear)]


def test_sector_exterior_exactly_zero():
    out = linear_to_convex(np.full((64, 64), 200.0))
    assert np.all(out[oracles.sector_exterior(64, 64)] == 0.0)


def test_constant_sector_stays_constant():
    convex = linear_to_convex(np.full((64, 64), 123.0))
    inside = convex > 0.0
    np.testing.assert_allclose(convex[inside], 123.0, atol=1e-9)
    # Unwarping samples only in-sector points, so the constant survives
    # except near the sector rim where bilinear blends with the 0
    # exterior; check the interior rows/columns.
    linear = convex_to_linear(convex)
    assert np.abs(linear[6:-6, 6:-6] - 123.0).max() < 5.0


def test_center_column_maps_to_vertical_ray():
    # Paint the source center column white: theta = 0 must reproduce it
    # along the vertical line through the apex. Use an odd width so the
    # apex x and the center column fall on integer pixel coordinates.
    geom = oracles.sector(64, 65)
    img = np.zeros((64, 65))
    img[:, 32] = 255.0  # center column is (W-1)/2 = 32
    out = linear_to_convex(img)
    ray = out[:, 32]  # apex_x = 32, so this column is the theta = 0 ray
    ys = np.arange(64, dtype=np.float64)
    in_band = (ys >= geom.r_min + 1) & (ys <= geom.r_max - 1)
    assert np.all(ray[in_band] > 100.0)
    # Columns far from the apex x stay dark on that source column.
    assert np.all(out[:, :10] < 60.0)


def test_unwarp_center_samples_vertical_ray():
    convex = np.zeros((64, 64))
    xc = int(round(oracles.sector(64, 64).apex_x))
    convex[:, xc - 1 : xc + 2] = 255.0
    linear = convex_to_linear(convex)
    mid = linear[:, 31:33]
    assert np.all(mid > 100.0)


def test_round_trip_smooth_image():
    rng = np.random.default_rng(0)
    img = convolve2d(rng.uniform(0.0, 255.0, (128, 128)), oracles.gaussian_kernel(2.0))
    back = convex_to_linear(linear_to_convex(img))
    err = np.abs(back[3:-3, 3:-3] - img[3:-3, 3:-3])
    assert err.mean() < 5.0


def test_convex_to_linear_rejects_tiny_output():
    for shape in [(8, 1), (1, 8), (1, 1)]:
        convex_to_linear(np.zeros((8, 8)))  # a valid key is cached
        with pytest.raises(FedmimError, match="^output must be at least 2x2$"):
            convex_to_linear(np.zeros(shape))


def _image(seed: int, h: int, w: int, binary: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if binary:
        return np.where(rng.random((h, w)) < 0.5, 0.0, 255.0)
    return rng.uniform(0.0, 255.0, (h, w))


@given(st.integers(2, 80), st.integers(2, 80), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_warps_match_per_call_oracles(h, w, seed, binary):
    img = _image(seed, h, w, binary)
    for warp, oracle in WARPS:
        out = warp(img)
        assert out.shape == (h, w)
        assert out.tobytes() == oracle(img).tobytes()


def test_warp_plans_follow_their_key():
    # More shapes than either cache holds, visited in turn and then in
    # reverse, so a plan served for the wrong shape would show.
    shapes = [(64, 64), (32, 48), (17, 33), (33, 17), (2, 2), (5, 3)]
    for h, w in shapes + shapes[::-1] + shapes:
        img = _image(h * 100 + w, h, w, False)
        for warp, oracle in WARPS:
            assert warp(img).tobytes() == oracle(img).tobytes()


def test_warp_plans_are_read_only_and_bounded():
    for plan_of in (linear_to_convex_plan, convex_to_linear_plan):
        plan = plan_of((16, 16))
        for arr in (plan.corners, plan.weights, plan.keep):
            assert not arr.flags.writeable
        assert plan_of.cache_info().maxsize <= 8
