"""Corruption operators: kernels, salt-and-pepper statistics, mixing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedmim import corrupt
from fedmim.corrupt import (
    GAUSSIAN,
    MOTION,
    SALTPEPPER,
    CorruptionConfig,
    gaussian_blur,
    gaussian_weights,
    apply_corruption,
    draw_corruptions,
    mixed_corrupt,
    motion_blur_kernel,
    salt_pepper,
    salt_pepper_draws,
)
from fedmim.errors import FedmimError
from fedmim.rng import Rng
import oracles


def test_motion_kernel_zero_angle_is_identity_over_d():
    for d in (1, 3, 5, 7):
        np.testing.assert_array_equal(motion_blur_kernel(d, 0.0), np.eye(d) / d)


def test_motion_kernel_quarter_turn_antidiagonal():
    kernel = motion_blur_kernel(3, math.pi / 2.0)
    np.testing.assert_allclose(kernel, np.fliplr(np.eye(3)) / 3.0, atol=1e-12)


def test_motion_kernel_sums_to_one():
    for phi in np.linspace(0.0, math.pi, 17):
        assert motion_blur_kernel(7, float(phi)).sum() == pytest.approx(1.0, abs=1e-12)


def test_motion_kernel_rejects_even():
    with pytest.raises(FedmimError, match="^d must be odd and >= 1, got 4$"):
        motion_blur_kernel(4, 0.0)


def test_gaussian_tap_ratio():
    w = gaussian_weights(1.0)
    assert w[4] / w[3] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert w[2] / w[3] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_gaussian_kernel_normalized_and_symmetric():
    for sigma in (0.5, 1.0, 2.5):
        w = gaussian_weights(sigma)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(w, w[::-1])


def test_gaussian_default_radius():
    assert gaussian_weights(1.0).shape == (7,)  # ceil(3*1) = 3
    assert gaussian_weights(0.5).shape == (5,)  # ceil(1.5) = 2
    assert gaussian_weights(0.1).shape == (3,)  # radius at least 1


def test_gaussian_rejects_bad_params():
    for sigma in (0.0, -1.0):
        with pytest.raises(FedmimError, match=f"^sigma must be positive, got {sigma}$"):
            gaussian_weights(sigma)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 40)),
                  elements=st.floats(-300.0, 300.0)),
       st.floats(0.5, 2.5))
@settings(max_examples=60, deadline=None)
def test_gaussian_blur_matches_the_2d_kernel(img, sigma):
    # Two 1-D passes add in another order than the 2-D taps, so the bytes
    # may differ; the error stays at a few ulp of the image's scale.
    expect = oracles.convolve2d_taps(img, oracles.gaussian_kernel(sigma))
    bound = 1e-12 * max(1.0, float(np.abs(img).max()))
    assert np.abs(gaussian_blur(img, sigma) - expect).max() <= bound


def test_salt_pepper_extremes():
    img = np.full((10, 10), 128.0)
    all_zero = salt_pepper(img, 1.0, 0.0, Rng(0))
    np.testing.assert_array_equal(all_zero, np.zeros((10, 10)))
    all_max = salt_pepper(img, 0.0, 1.0, Rng(0))
    np.testing.assert_array_equal(all_max, np.full((10, 10), 255.0))
    untouched = salt_pepper(img, 0.0, 0.0, Rng(0))
    np.testing.assert_array_equal(untouched, img)


def test_salt_pepper_counts_within_binomial_bounds():
    # p_s = p_p = 0.1 on a 100x100 mid-gray image; each count should fall
    # within 3 * sqrt(n p (1-p)) of n*p = 1000 for every seed.
    img = np.full((100, 100), 128.0)
    bound = 3.0 * math.sqrt(10000 * 0.1 * 0.9)
    for seed in range(10):
        out = salt_pepper(img, 0.1, 0.1, Rng(seed))
        zeros = int((out == 0.0).sum())
        maxed = int((out == 255.0).sum())
        assert abs(zeros - 1000) < bound
        assert abs(maxed - 1000) < bound


@pytest.mark.parametrize("shape, p_salt, p_pepper", [
    ((1, 1), 0.5, 0.5), ((7, 5), 0.1, 0.3), ((64, 64), 0.02, 0.02), ((3, 40), 0.0, 0.6),
])
def test_salt_pepper_equals_scalar_oracle(shape, p_salt, p_pepper):
    img = np.arange(float(np.prod(shape))).reshape(shape) % 251.0
    for seed in range(4):
        lane, scalar = Rng(seed), Rng(seed)
        out = salt_pepper(img, p_salt, p_pepper, lane)
        assert out.tobytes() == oracles.salt_pepper(img, p_salt, p_pepper, scalar).tobytes()
        assert lane._s == scalar._s


def test_salt_pepper_draws_equal_the_oracle():
    # Codes 2 (salt), 1 (pepper) and 0 (unchanged) mark the pixels the
    # oracle sets to 0, sets to 255 and leaves at 100.
    for shape in [(8, 8), (5, 9), (1, 3)]:
        lanes = [Rng(40 + i) for i in range(5)]
        codes = salt_pepper_draws(shape, 0.2, 0.2, lanes)
        assert codes.shape == (5, *shape) and codes.dtype == np.int8
        for i, code in enumerate(codes):
            scalar = Rng(40 + i)
            expect = oracles.salt_pepper(np.full(shape, 100.0), 0.2, 0.2, scalar)
            np.testing.assert_array_equal(code, np.select([expect == 0.0, expect == 255.0],
                                                          [2, 1], 0))
            assert lanes[i]._s == scalar._s


def test_salt_pepper_draws_of_no_images():
    codes = salt_pepper_draws((5, 7), 0.1, 0.1, [])
    assert codes.shape == (0, 5, 7) and codes.dtype == np.int8


def test_drawn_corruptions_equal_the_scalar_oracle():
    # 40 images of each shape take every op order: salt-and-pepper before,
    # between and after the blurs, alone, or not at all.
    cfg = CorruptionConfig(p=0.9, p_salt=0.1, p_pepper=0.1)
    for h, w in [(16, 16), (12, 20)]:
        img = np.arange(float(h * w)).reshape(h, w) % 200.0
        lanes = [Rng(seed) for seed in range(40)]
        plans = draw_corruptions((h, w), cfg, lanes)
        assert {op for plan in plans for op, _ in plan} == {MOTION, GAUSSIAN, SALTPEPPER}
        for seed, plan in enumerate(plans):
            scalar = Rng(seed)
            out = apply_corruption(img, plan, cfg)
            assert out.tobytes() == oracles.mixed_corrupt(img, cfg, scalar).tobytes()
            assert lanes[seed]._s == scalar._s
            alone = Rng(seed)
            assert mixed_corrupt(img, cfg, alone).tobytes() == out.tobytes()
            assert alone._s == scalar._s


def test_drawn_corruptions_with_no_salt_and_pepper():
    # The lockstep salt-and-pepper draw runs with no lanes when no image
    # reaches it: none at all, none corrupted, or only blurs drawn.
    cfg = CorruptionConfig(p=1.0, p_salt=0.1, p_pepper=0.1)
    assert draw_corruptions((5, 7), cfg, []) == []
    assert draw_corruptions((5, 7), CorruptionConfig(p=0.0), [Rng(s) for s in range(3)]) == \
        [[], [], []]
    seeds = [s for s in range(40) if SALTPEPPER not in corrupt._draw_ops(cfg, Rng(s))]
    img = np.arange(35.0).reshape(5, 7)
    plans = draw_corruptions((5, 7), cfg, [Rng(s) for s in seeds])
    assert len(plans) == len(seeds) >= 3
    for seed, plan in zip(seeds, plans):
        assert plan and all(op in (MOTION, GAUSSIAN) for op, _ in plan)
        out = apply_corruption(img, plan, cfg)
        assert out.tobytes() == oracles.mixed_corrupt(img, cfg, Rng(seed)).tobytes()


def test_salt_pepper_rejects_bad_probs():
    with pytest.raises(ValueError):
        salt_pepper(np.zeros((2, 2)), 0.7, 0.7, Rng(0))


def test_mixed_corrupt_p_zero_is_identity():
    img = np.arange(64.0).reshape(8, 8)
    out = mixed_corrupt(img, CorruptionConfig(p=0.0), Rng(0))
    np.testing.assert_array_equal(out, img)
    assert out is not img  # caller gets a private copy


def test_mixed_corrupt_gaussian_on_constant():
    img = np.full((16, 16), 77.0)
    cfg = CorruptionConfig(p=1.0, p_salt=0.0, p_pepper=0.0)
    # Blur and motion preserve constants at any sigma and angle;
    # salt-pepper is disabled.
    out = mixed_corrupt(img, cfg, Rng(1))
    np.testing.assert_allclose(out, img, atol=1e-9)


def test_mixed_corrupt_deterministic():
    img = np.arange(256.0).reshape(16, 16)
    cfg = CorruptionConfig(p=0.8)
    a = mixed_corrupt(img, cfg, Rng(42))
    b = mixed_corrupt(img, cfg, Rng(42))
    np.testing.assert_array_equal(a, b)


def test_mixed_corrupt_op_inclusion_frequency(monkeypatch):
    # With p=1 the op count k is uniform on {1,2,3} and the subset of that
    # size is uniform, so each op appears with probability
    # (1/3)(1/3) + (2/3)(1/3) + (3/3)(1/3) = 2/3. Count the images that
    # reach salt-pepper; the ops are drawn before any of them runs.
    calls = []

    def counting_salt_pepper_draws(shape, p_salt, p_pepper, rngs):
        calls.append(len(rngs))
        return salt_pepper_draws(shape, p_salt, p_pepper, rngs)

    monkeypatch.setattr(corrupt, "salt_pepper_draws", counting_salt_pepper_draws)
    img = np.full((12, 12), 128.0)
    cfg = CorruptionConfig(p=1.0, p_salt=0.3, p_pepper=0.3, motion_d=1)
    n = 600
    for seed in range(n):
        mixed_corrupt(img, cfg, Rng(seed))
    hits = sum(calls)
    expect = 2.0 / 3.0
    sigma = math.sqrt(n * expect * (1 - expect))
    assert abs(hits - n * expect) < 3.0 * sigma


def test_config_validation():
    with pytest.raises(ValueError, match=r"^p must be in \[0,1\], got 1.5$"):
        CorruptionConfig(p=1.5)
    with pytest.raises(ValueError, match="^salt/pepper probabilities invalid$"):
        CorruptionConfig(p_salt=0.6, p_pepper=0.6)
    with pytest.raises(ValueError, match="^motion_d must be odd and >= 1, got 4$"):
        CorruptionConfig(motion_d=4)
    CorruptionConfig()
