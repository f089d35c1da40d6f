"""Metrics: AUROC, Dice/Hausdorff/MAE, AoP, CI, t-test."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmim.errors import FedmimError
from fedmim.metrics import (
    aop,
    auroc,
    ci95,
    dsc,
    hausdorff,
    mae,
    mask_boundary,
    mask_points,
    t_test,
)

from invariance import snippet
from oracles import dsc_sets, hausdorff_brute, points_mask, rank_auroc


def test_auroc_worked_example():
    # Pairs: (0.9>0.6) + (0.9>0.1) + (0.4<0.6 -> 0) + (0.4>0.1) = 3 of 4.
    assert auroc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == pytest.approx(0.75)


def test_auroc_perfect_and_inverted():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auroc_all_tied_is_half():
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == pytest.approx(0.5)


def pairwise_auroc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    acc = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                acc += 1.0
            elif p == q:
                acc += 0.5
    return acc / (len(pos) * len(neg))


@given(st.integers(0, 2**31), st.integers(4, 200), st.booleans())
@settings(max_examples=100, deadline=None)
def test_auroc_matches_pairwise_oracle(seed, n, quantize):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if quantize:  # force ties
        scores = np.round(scores * 2.0) / 2.0
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert auroc(scores, labels) == pytest.approx(
        pairwise_auroc(scores, labels), abs=1e-12
    )
    assert auroc(scores, labels) == rank_auroc(scores, labels)


def test_auroc_errors():
    with pytest.raises(FedmimError, match="^need at least one positive and one negative$"):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(FedmimError, match="^scores and labels differ in length$"):
        auroc([0.1, 0.2], [1])
    with pytest.raises(FedmimError, match=r"^label 2 outside \{0, 1\}$"):
        auroc([0.1, 0.2, 0.3], [0, 2, 1])


def test_dsc_cases():
    assert dsc(points_mask({(0, 0), (1, 1)}, (2, 2)),
               points_mask({(0, 0), (1, 1)}, (2, 2))) == 1.0
    assert dsc(points_mask({(0, 0)}, (2, 2)), points_mask({(1, 1)}, (2, 2))) == 0.0
    assert dsc(np.zeros((2, 2), bool), np.zeros((2, 2), bool)) == 1.0
    assert dsc(points_mask({(0, 0)}, (2, 2)),
               points_mask({(0, 0), (1, 1)}, (2, 2))) == pytest.approx(2 / 3)
    with pytest.raises(FedmimError, match=r"^length mismatch: \(2, 2\) vs \(1, 2\)$"):
        dsc(np.ones((2, 2), bool), np.ones((1, 2), bool))


def test_hausdorff_cases():
    assert hausdorff(points_mask({(0, 0)}, (1, 1)), points_mask({(0, 0)}, (1, 1))) == 0.0
    assert hausdorff(points_mask({(0, 0), (10, 0)}, (1, 11)),
                     points_mask({(0, 0)}, (1, 11))) == 10.0
    assert hausdorff(points_mask({(0, 0)}, (5, 4)), points_mask({(3, 4)}, (5, 4))) == 5.0
    with pytest.raises(FedmimError, match="^hausdorff needs two non-empty masks$"):
        hausdorff(np.zeros((1, 1), bool), points_mask({(0, 0)}, (1, 1)))
    with pytest.raises(FedmimError, match=r"^length mismatch: \(2, 2\) vs \(1, 2\)$"):
        hausdorff(np.ones((2, 2), bool), np.ones((1, 2), bool))


@given(st.integers(0, 2**31), st.integers(1, 60), st.integers(1, 60), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_hausdorff_bit_equal_to_brute_force(seed, n_pred, n_truth, extent):
    rng = np.random.default_rng(seed)
    pred = {tuple(p) for p in rng.integers(0, extent, size=(n_pred, 2)).tolist()}
    truth = {tuple(p) for p in rng.integers(0, extent, size=(n_truth, 2)).tolist()}
    shape = (extent, extent)
    assert (hausdorff(points_mask(pred, shape), points_mask(truth, shape))
            == hausdorff_brute(pred, truth))


def _random_mask(kind: str, shape: tuple[int, int], density: float, rng) -> np.ndarray:
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "full":
        return np.ones(shape, dtype=bool)
    if kind == "one-pixel":
        mask = np.zeros(shape, dtype=bool)
        mask[rng.integers(shape[0]), rng.integers(shape[1])] = True
        return mask
    return rng.random(shape) < density


@given(st.integers(0, 2**31), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from(["empty", "full", "one-pixel", "random"]),
       st.sampled_from(["empty", "full", "one-pixel", "random"]),
       st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_mask_metrics_bit_equal_to_point_set_oracles(seed, h, w, kind_p, kind_t,
                                                      density):
    rng = np.random.default_rng(seed)
    pred = _random_mask(kind_p, (h, w), density, rng)
    truth = _random_mask(kind_t, (h, w), density, rng)
    pred_pts, truth_pts = mask_points(pred), mask_points(truth)
    assert dsc(pred, truth) == dsc_sets(pred_pts, truth_pts)
    if pred_pts and truth_pts:
        assert hausdorff(pred, truth) == hausdorff_brute(pred_pts, truth_pts)
    else:
        with pytest.raises(FedmimError, match="^hausdorff needs two non-empty masks$"):
            hausdorff(pred, truth)


def test_hausdorff_memory_does_not_grow_with_pair_count():
    # About 3,000 foreground pixels each; a |P| x |T| x 2 float64 table
    # would be 150 MB.
    pred = disc_mask(128, 128, 60.0, 60.0, 31.0) > 0.5
    truth = disc_mask(128, 128, 66.0, 62.0, 31.0) > 0.5
    assert pred.sum() > 2900 and truth.sum() > 2900
    hausdorff(pred, truth)  # the first call imports scipy.ndimage
    tracemalloc.start()
    try:
        hausdorff(pred, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_cli_import_leaves_scipy_submodules_unloaded():
    # Every command pays for what `import fedmim.cli` loads; hausdorff and
    # t_test import their scipy parts when first called.
    probe = ("import sys, fedmim.cli; "
             "print(sorted(m for m in ('scipy.special', 'scipy.spatial', "
             "'scipy.ndimage') if m in sys.modules))")
    assert snippet(probe) == {"baseline": "[]\n"}


def test_mae_cases():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 2.0], [1.0, 1.0]) == 1.0
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=50), rng.normal(size=50)
    loop = sum(abs(x - y) for x, y in zip(a, b)) / 50
    assert mae(a, b) == pytest.approx(loop, abs=1e-12)
    with pytest.raises(FedmimError, match=r"^length mismatch: \(1,\) vs \(2,\)$"):
        mae([1.0], [1.0, 2.0])
    with pytest.raises(FedmimError, match="^mae needs at least one sample$"):
        mae([], [])


def test_mask_points_and_boundary():
    mask = np.zeros((5, 5))
    mask[1:4, 1:4] = 1.0
    pts = mask_points(mask)
    assert len(pts) == 9 and (2, 2) in pts
    boundary = mask_boundary(mask)
    assert (2, 2) not in boundary
    assert len(boundary) == 8
    # Edge pixels count as boundary.
    full = np.ones((3, 3))
    assert len(mask_boundary(full)) == 8


def disc_mask(h, w, cx, cy, radius):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    return ((xs - cx) ** 2 + (ys - cy) ** 2 <= radius**2).astype(np.float64)


def test_aop_disc_tangent_case():
    # PS: horizontal segment (10,50)-(30,50); FH: disc center (60,70) r=10.
    # From anchor (30,50): direction to center atan2(20,30) = 33.690 deg,
    # tangent offset asin(10/sqrt(1300)) = 16.102 deg -> 49.79 deg.
    ps = np.zeros((128, 128))
    ps[50, 10:31] = 1.0
    fh = disc_mask(128, 128, 60.0, 70.0, 10.0)
    assert aop(ps, fh) == pytest.approx(49.79, abs=1.5)


def test_aop_increases_as_head_descends():
    ps = np.zeros((128, 128))
    ps[50, 10:31] = 1.0
    angles = [
        aop(ps, disc_mask(128, 128, 60.0, 70.0 + d, 10.0)) for d in (0, 5, 10, 15)
    ]
    assert all(a < b for a, b in zip(angles, angles[1:]))


def test_aop_degenerate_masks():
    fh = disc_mask(32, 32, 16.0, 20.0, 4.0)
    with pytest.raises(FedmimError, match="^pubic-symphysis mask needs at least 2 pixels$"):
        aop(np.zeros((32, 32)), fh)
    single = np.zeros((32, 32))
    single[5, 5] = 1.0
    with pytest.raises(FedmimError, match="^pubic-symphysis mask needs at least 2 pixels$"):
        aop(single, fh)
    ps = np.zeros((32, 32))
    ps[5, 5:8] = 1.0
    with pytest.raises(FedmimError, match="^fetal-head mask is empty$"):
        aop(ps, np.zeros((32, 32)))


def test_ci95_worked_example():
    mean, half = ci95([1.0, 2.0, 3.0, 4.0, 5.0])
    assert mean == pytest.approx(3.0)
    assert half == pytest.approx(1.3859, abs=1e-4)


def test_ci95_constant_and_errors():
    mean, half = ci95([2.0, 2.0, 2.0])
    assert mean == 2.0 and half == 0.0
    with pytest.raises(FedmimError, match="^ci95 needs at least 2 samples$"):
        ci95([1.0])


def student_t_two_sided_p(t_stat, df):
    """Numerical-integration oracle for the two-sided Student-t p-value."""
    const = math.gamma((df + 1.0) / 2.0) / (
        math.sqrt(df * math.pi) * math.gamma(df / 2.0)
    )
    xs = np.linspace(abs(t_stat), abs(t_stat) + 400.0, 2_000_001)
    density = const * (1.0 + xs * xs / df) ** (-(df + 1.0) / 2.0)
    return float(2.0 * np.trapezoid(density, xs))


def welch_stat(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    se2a, se2b = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    t = (a.mean() - b.mean()) / math.sqrt(se2a + se2b)
    df = (se2a + se2b) ** 2 / (se2a**2 / (a.size - 1) + se2b**2 / (b.size - 1))
    return t, df


def test_t_test_identical_samples():
    a = [1.0, 2.0, 3.0]
    assert t_test(a, a) == pytest.approx(1.0)


def test_t_test_against_quadrature_oracle():
    cases = [
        ([1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, 10.0]),
        ([0.1, 0.2, 0.15, 0.3], [0.12, 0.18, 0.22]),
        ([10.0, 11.0, 9.0, 10.5, 9.5, 10.2], [10.1, 10.9, 9.2]),
    ]
    for a, b in cases:
        t, df = welch_stat(a, b)
        assert t_test(a, b) == pytest.approx(student_t_two_sided_p(t, df), rel=1e-4)


def test_t_test_errors():
    with pytest.raises(FedmimError, match="^t_test needs at least 2 samples per group$"):
        t_test([1.0], [1.0, 2.0])
    with pytest.raises(FedmimError, match="^both samples have zero variance$"):
        t_test([1.0, 1.0], [2.0, 2.0])
