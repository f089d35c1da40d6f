"""Texture-guided masking: Laplacian map, patch scores, mask selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedmim.corrupt import CorruptionConfig
from fedmim.errors import FedmimError
from fedmim.rng import Rng
from fedmim.tgm import (
    apply_uim,
    mask_count,
    patch_scores,
    round_half_up,
    select_mask,
    texture_map,
)


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.4) == 2
    assert round_half_up(3.0) == 3


def test_texture_map_single_bright_pixel():
    img = np.zeros((7, 7))
    img[3, 3] = 255.0
    tex = texture_map(img)
    assert tex[3, 3] == -4.0 * 255.0
    for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        assert tex[3 + dy, 3 + dx] == 255.0
    assert tex[0, 0] == 0.0


def test_texture_map_constant_is_zero():
    np.testing.assert_array_equal(texture_map(np.full((8, 8), 50.0)), np.zeros((8, 8)))


def test_patch_scores_brute_force():
    rng = np.random.default_rng(3)
    tex = rng.uniform(-10.0, 10.0, (8, 8))
    scores = patch_scores(tex, 4, 4)
    expected = np.array(
        [
            np.abs(tex[r * 4 : r * 4 + 4, c * 4 : c * 4 + 4]).sum()
            for r in range(2)
            for c in range(2)
        ]
    )
    np.testing.assert_allclose(scores, expected, atol=1e-12)


def test_patch_scores_zero_map():
    np.testing.assert_array_equal(
        patch_scores(np.zeros((8, 8)), 2, 2), np.zeros(16)
    )


def sort_oracle(scores, mask_ratio):
    n = len(scores)
    n_masked = round_half_up(mask_ratio * n)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    return tuple(sorted(order[:n_masked])), tuple(sorted(order[n_masked:]))


@given(
    hnp.arrays(np.float64, st.integers(2, 64),
               elements=st.floats(-1e6, 1e6, allow_nan=False)),
    st.floats(0.01, 0.99),
)
@settings(max_examples=200)
def test_select_mask_matches_sort_oracle(scores, ratio):
    mask = select_mask(scores, ratio)
    masked, visible = sort_oracle(scores, ratio)
    assert mask.dtype == np.bool_ and mask.shape == scores.shape
    assert tuple(np.flatnonzero(mask)) == masked
    assert tuple(np.flatnonzero(~mask)) == visible


def test_select_mask_tie_breaks_low_index():
    mask = select_mask(np.array([1.0, 1.0, 1.0, 1.0]), 0.5)
    assert mask.tolist() == [True, True, False, False]


def test_select_mask_count_matches_round_half_up():
    for n in (4, 7, 64, 100):
        scores = np.arange(float(n))
        assert select_mask(scores, 0.75).sum() == round_half_up(0.75 * n)


def test_mask_count():
    assert mask_count(0.75, 64) == 48
    assert mask_count(0.75, 2) == 2  # round_half_up(1.5) masks both
    assert mask_count(0.005, 64) == 0
    for ratio in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(FedmimError, match=rf"^mask ratio must be in \(0,1\), got {ratio}$"):
            mask_count(ratio, 64)


def test_select_mask_rejects_bad_ratio():
    for ratio in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(FedmimError, match=rf"^mask ratio must be in \(0,1\), got {ratio}$"):
            select_mask(np.arange(4.0), ratio)


def test_textured_patch_is_masked():
    # All texture concentrated in patch 2 of a 2x2 patch grid: with no
    # corruption its score is strictly maximal, so it must be masked.
    img = np.zeros((8, 8))
    img[4:8, 0:4] = np.arange(16.0).reshape(4, 4) * 16.0
    _, masked = apply_uim(img, CorruptionConfig(p=0.0), 4, 4, 0.5, Rng(0))
    assert masked[2]


def test_apply_uim_deterministic():
    rng_img = np.random.default_rng(5)
    img = rng_img.uniform(0.0, 255.0, (16, 16))
    cfg = CorruptionConfig(p=0.7)
    p1, m1 = apply_uim(img, cfg, 4, 4, 0.75, Rng(11))
    p2, m2 = apply_uim(img, cfg, 4, 4, 0.75, Rng(11))
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(m1, m2)


def test_apply_uim_partition_covers_grid():
    img = np.random.default_rng(6).uniform(0.0, 255.0, (16, 16))
    patches, masked = apply_uim(img, CorruptionConfig(), 4, 4, 0.75, Rng(0))
    assert patches.shape == (16, 16)
    assert masked.shape == (16,) and masked.dtype == np.bool_
    assert masked.sum() == 12
