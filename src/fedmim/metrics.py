"""Evaluation metrics: AUROC, Dice, Hausdorff distance, MAE, the
angle-of-progression landmark geometry, 95% confidence intervals, and
Welch two-sided t-tests."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BadLabel,
    DegenerateMask,
    DegenerateVariance,
    EmptySet,
    LengthMismatch,
    OneClassOnly,
    TooFewSamples,
)


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the tie-corrected rank statistic.

    Equals (pairs with positive scored above negative + half the ties)
    divided by n_pos * n_neg, i.e. the trapezoidal ROC area.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise LengthMismatch("scores and labels differ in length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise BadLabel(f"label {bad[0]} outside {{0, 1}}")
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("need at least one positive and one negative")
    # 1-based ranks; a run of tied scores shares its midrank.
    sorted_scores = np.sort(scores)
    ranks = 0.5 * (np.searchsorted(sorted_scores, scores, side="left")
                   + np.searchsorted(sorted_scores, scores, side="right") + 1)
    rank_sum = float(np.sum(ranks[labels == 1]))
    u_stat = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def dsc(pred: set, truth: set) -> float:
    """Dice similarity 2|P&T|/(|P|+|T|); both empty counts as agreement (1)."""
    if not pred and not truth:
        return 1.0
    return 2.0 * len(pred & truth) / (len(pred) + len(truth))


def hausdorff(pred: set, truth: set) -> float:
    """Symmetric Hausdorff distance between point sets: the larger of the
    two directed distances, each found without a |P| x |T| distance table."""
    # Imported here: scipy.spatial adds about 12 MiB to every command's RSS.
    from scipy.spatial.distance import directed_hausdorff

    if not pred or not truth:
        raise EmptySet("hausdorff needs two non-empty point sets")
    p_arr = np.array(list(pred), dtype=np.float64)
    t_arr = np.array(list(truth), dtype=np.float64)
    return float(max(directed_hausdorff(p_arr, t_arr)[0],
                     directed_hausdorff(t_arr, p_arr)[0]))


def mae(preds, gts) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    if preds.shape != gts.shape:
        raise LengthMismatch(f"length mismatch: {preds.shape} vs {gts.shape}")
    if preds.size == 0:
        raise EmptySet("mae needs at least one sample")
    return float(np.mean(np.abs(gts - preds)))


def mask_points(mask: np.ndarray) -> set:
    """Foreground pixels of a binary mask as (x, y) tuples."""
    ys, xs = np.nonzero(np.asarray(mask) > 0.5)
    return {(int(x), int(y)) for x, y in zip(xs, ys)}


def mask_boundary(mask: np.ndarray) -> set:
    """Foreground pixels with at least one 4-neighbor background pixel.

    Pixels on the image edge count as boundary.
    """
    m = np.asarray(mask) > 0.5
    padded = np.pad(m, 1, mode="constant", constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    ys, xs = np.nonzero(m & ~interior)
    return {(int(x), int(y)) for x, y in zip(xs, ys)}


def aop(ps_mask: np.ndarray, fh_mask: np.ndarray) -> float:
    """Angle of progression in degrees from two binary masks.

    Landmarks: the furthest boundary pixel pair of the pubic-symphysis
    mask (its long axis), the rightmost pubic-symphysis pixel (anchor),
    and the fetal-head boundary pixel whose ray from the anchor supports
    the head region on the inferior side (image y grows downward, so that
    is the ray of maximum downward angle).
    """
    ps_pixels = mask_points(ps_mask)
    fh_boundary = mask_boundary(fh_mask)
    if len(ps_pixels) < 2:
        raise DegenerateMask("pubic-symphysis mask needs at least 2 pixels")
    if not fh_boundary:
        raise DegenerateMask("fetal-head mask is empty")
    ps_boundary = sorted(mask_boundary(ps_mask))

    # Long axis: furthest pair, ties to the lexicographically smallest pair.
    best_pair = None
    best_d2 = -1.0
    for i, p in enumerate(ps_boundary):
        for q in ps_boundary[i + 1 :]:
            d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
            if d2 > best_d2:
                best_d2 = d2
                best_pair = (p, q)
    if best_d2 <= 0.0:
        raise DegenerateMask("pubic-symphysis mask has no extent")

    anchor = max(ps_pixels, key=lambda p: (p[0], p[1]))
    e1, e2 = best_pair
    d1 = (e1[0] - anchor[0]) ** 2 + (e1[1] - anchor[1]) ** 2
    d2_ = (e2[0] - anchor[0]) ** 2 + (e2[1] - anchor[1]) ** 2
    near, far = (e1, e2) if d1 <= d2_ else (e2, e1)
    axis_dir = np.array([near[0] - far[0], near[1] - far[1]], dtype=np.float64)

    # Support ray on the inferior side: maximum atan2(dy, dx) from the anchor.
    best_angle = None
    best_dir = None
    for px, py in sorted(fh_boundary):
        dx = px - anchor[0]
        dy = py - anchor[1]
        if dx == 0 and dy == 0:
            continue
        angle = math.atan2(dy, dx)
        if best_angle is None or angle > best_angle:
            best_angle = angle
            best_dir = np.array([dx, dy], dtype=np.float64)
    if best_dir is None:
        raise DegenerateMask("fetal-head mask coincides with the anchor")

    cos_angle = float(
        np.dot(axis_dir, best_dir)
        / (np.linalg.norm(axis_dir) * np.linalg.norm(best_dir))
    )
    return math.degrees(math.acos(max(-1.0, min(1.0, cos_angle))))


def ci95(samples) -> tuple[float, float]:
    """Mean and half-width of the normal 95% CI: 1.96 * SE."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise TooFewSamples("ci95 needs at least 2 samples")
    mean = float(samples.mean())
    sd = float(samples.std(ddof=1))
    return mean, 1.96 * sd / math.sqrt(samples.size)


def t_test(a, b) -> float:
    """Two-sided Welch t-test p-value via the regularized incomplete beta."""
    # Imported here: scipy.special adds about 0.3 s to every command's start.
    from scipy.special import betainc

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise TooFewSamples("t_test needs at least 2 samples per group")
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    if var_a == 0.0 and var_b == 0.0:
        raise DegenerateVariance("both samples have zero variance")
    se2_a = var_a / a.size
    se2_b = var_b / b.size
    t_stat = (float(a.mean()) - float(b.mean())) / math.sqrt(se2_a + se2_b)
    df = (se2_a + se2_b) ** 2 / (
        se2_a**2 / (a.size - 1) + se2_b**2 / (b.size - 1)
    )
    # Two-sided p: survival of |t| under Student-t with Welch df.
    x = df / (df + t_stat * t_stat)
    return float(betainc(df / 2.0, 0.5, x))
