"""Metrics: confusion scores, AUROC, Dice/Hausdorff/MAE, AoP, CI, t-test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmim.errors import (
    BadLabel,
    DegenerateMask,
    DegenerateVariance,
    EmptySet,
    LengthMismatch,
    OneClassOnly,
    TooFewSamples,
    UndefinedMetric,
)
from fedmim.metrics import (
    ConfusionCounts,
    accuracy,
    aop,
    auroc,
    ci95,
    dsc,
    f1,
    hausdorff,
    mae,
    mask_boundary,
    mask_points,
    precision,
    recall,
    t_test,
)


def test_confusion_perfect():
    c = ConfusionCounts(tp=5, tn=5, fp=0, fn=0)
    assert accuracy(c) == 1.0
    assert precision(c) == 1.0
    assert recall(c) == 1.0
    assert f1(c) == 1.0


def test_confusion_mixed():
    c = ConfusionCounts(tp=3, tn=2, fp=1, fn=4)
    assert accuracy(c) == pytest.approx(0.5)
    assert precision(c) == pytest.approx(0.75)
    assert recall(c) == pytest.approx(3 / 7)
    p, r = 0.75, 3 / 7
    assert f1(c) == pytest.approx(2 * p * r / (p + r))


def test_confusion_undefined():
    with pytest.raises(UndefinedMetric):
        accuracy(ConfusionCounts(0, 0, 0, 0))
    with pytest.raises(UndefinedMetric):
        precision(ConfusionCounts(0, 1, 0, 1))
    with pytest.raises(UndefinedMetric):
        recall(ConfusionCounts(0, 1, 1, 0))
    with pytest.raises(ValueError):
        ConfusionCounts(-1, 0, 0, 0)


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


def test_auroc_errors():
    with pytest.raises(OneClassOnly):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(LengthMismatch):
        auroc([0.1, 0.2], [1])
    with pytest.raises(BadLabel, match="label 2 "):
        auroc([0.1, 0.2, 0.3], [0, 2, 1])


def test_dsc_cases():
    assert dsc({(0, 0), (1, 1)}, {(0, 0), (1, 1)}) == 1.0
    assert dsc({(0, 0)}, {(1, 1)}) == 0.0
    assert dsc(set(), set()) == 1.0
    assert dsc({(0, 0)}, {(0, 0), (1, 1)}) == pytest.approx(2 / 3)


def test_hausdorff_cases():
    assert hausdorff({(0, 0)}, {(0, 0)}) == 0.0
    assert hausdorff({(0, 0), (10, 0)}, {(0, 0)}) == 10.0
    assert hausdorff({(0, 0)}, {(3, 4)}) == 5.0
    with pytest.raises(EmptySet):
        hausdorff(set(), {(0, 0)})


def test_mae_cases():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 2.0], [1.0, 1.0]) == 1.0
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=50), rng.normal(size=50)
    loop = sum(abs(x - y) for x, y in zip(a, b)) / 50
    assert mae(a, b) == pytest.approx(loop, abs=1e-12)
    with pytest.raises(LengthMismatch):
        mae([1.0], [1.0, 2.0])
    with pytest.raises(EmptySet):
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
    with pytest.raises(DegenerateMask):
        aop(np.zeros((32, 32)), fh)
    single = np.zeros((32, 32))
    single[5, 5] = 1.0
    with pytest.raises(DegenerateMask):
        aop(single, fh)
    ps = np.zeros((32, 32))
    ps[5, 5:8] = 1.0
    with pytest.raises(DegenerateMask):
        aop(ps, np.zeros((32, 32)))


def test_ci95_worked_example():
    mean, half = ci95([1.0, 2.0, 3.0, 4.0, 5.0])
    assert mean == pytest.approx(3.0)
    assert half == pytest.approx(1.3859, abs=1e-4)


def test_ci95_constant_and_errors():
    mean, half = ci95([2.0, 2.0, 2.0])
    assert mean == 2.0 and half == 0.0
    with pytest.raises(TooFewSamples):
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
    with pytest.raises(TooFewSamples):
        t_test([1.0], [1.0, 2.0])
    with pytest.raises(DegenerateVariance):
        t_test([1.0, 1.0], [2.0, 2.0])
