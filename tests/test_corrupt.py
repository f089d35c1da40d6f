"""Corruption operators: kernels, salt-and-pepper statistics, mixing."""

import math

import numpy as np
import pytest

from fedmim import corrupt
from fedmim.corrupt import (
    CorruptionConfig,
    gaussian_kernel,
    gaussian_taps,
    mixed_corrupt,
    motion_blur_kernel,
    salt_pepper,
)
from fedmim.errors import InvalidKernel
from fedmim.rng import Rng


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
    with pytest.raises(InvalidKernel):
        motion_blur_kernel(4, 0.0)


def test_gaussian_tap_ratio():
    taps = gaussian_taps(1.0, 3)
    center = taps[3, 3]
    assert taps[3, 4] / center == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert taps[4, 3] / center == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_gaussian_kernel_normalized_and_symmetric():
    for sigma in (0.5, 1.0, 2.5):
        k = gaussian_kernel(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(k, k.T, atol=1e-15)
        np.testing.assert_allclose(k, np.flipud(k), atol=1e-15)


def test_gaussian_default_radius():
    assert gaussian_kernel(1.0).shape == (7, 7)  # ceil(3*1) = 3
    assert gaussian_kernel(0.5).shape == (5, 5)  # ceil(1.5) = 2


def test_gaussian_rejects_bad_params():
    with pytest.raises(InvalidKernel):
        gaussian_taps(0.0, 3)
    with pytest.raises(InvalidKernel):
        gaussian_taps(1.0, 0)


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

    def counting_salt_pepper(*args):
        calls.append(1)
        return salt_pepper(*args)

    monkeypatch.setattr(corrupt, "salt_pepper", counting_salt_pepper)
    img = np.full((12, 12), 128.0)
    cfg = CorruptionConfig(p=1.0, p_salt=0.3, p_pepper=0.3, motion_d=1)
    n = 600
    for seed in range(n):
        mixed_corrupt(img, cfg, Rng(seed))
    hits = len(calls)
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
