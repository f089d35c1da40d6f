"""Evaluation metrics: AUROC, Dice, Hausdorff distance, MAE, the
angle-of-progression landmark geometry, 95% confidence intervals, and
Welch two-sided t-tests."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import FedmimError


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the tie-corrected rank statistic.

    Equals (pairs with positive scored above negative + half the ties)
    divided by n_pos * n_neg, i.e. the trapezoidal ROC area.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise FedmimError("scores and labels differ in length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise FedmimError(f"label {bad[0]} outside {{0, 1}}")
    if n_pos == 0 or n_neg == 0:
        raise FedmimError("need at least one positive and one negative")
    # 1-based ranks; a run of tied scores shares its midrank.
    sorted_scores = np.sort(scores)
    ranks = 0.5 * (np.searchsorted(sorted_scores, scores, side="left")
                   + np.searchsorted(sorted_scores, scores, side="right") + 1)
    rank_sum = float(np.sum(ranks[labels == 1]))
    u_stat = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def _pair(a, b, dtype) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    if a.shape != b.shape:
        raise FedmimError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def dsc(pred, truth) -> float:
    """Dice similarity 2|P&T|/(|P|+|T|) of two boolean masks of one shape;
    both empty counts as agreement (1)."""
    pred, truth = _pair(pred, truth, bool)
    sizes = int(pred.sum()) + int(truth.sum())
    return 2.0 * int((pred & truth).sum()) / sizes if sizes else 1.0


def hausdorff(pred, truth) -> float:
    """Symmetric Hausdorff distance between two boolean masks of one shape,
    read from exact Euclidean distance transforms (Maurer et al., TPAMI 2003)."""
    # Imported here: no command but eval needs scipy.ndimage.
    from scipy.ndimage import distance_transform_edt

    pred, truth = _pair(pred, truth, bool)
    if not pred.any() or not truth.any():
        raise FedmimError("hausdorff needs two non-empty masks")
    return float(max(distance_transform_edt(~truth)[pred].max(),
                     distance_transform_edt(~pred)[truth].max()))


def mae(preds, gts) -> float:
    preds, gts = _pair(preds, gts, np.float64)
    if preds.size == 0:
        raise FedmimError("mae needs at least one sample")
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
    return mask_points(m & ~interior)


def _d2(p: tuple, q: tuple) -> int:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


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
        raise FedmimError("pubic-symphysis mask needs at least 2 pixels")
    if not fh_boundary:
        raise FedmimError("fetal-head mask is empty")

    # Long axis: furthest pair, ties to the lexicographically smallest pair.
    # Two or more pixels have two or more boundary pixels, so a pair exists.
    e1, e2 = max(itertools.combinations(sorted(mask_boundary(ps_mask)), 2),
                 key=lambda pair: _d2(*pair))
    anchor = max(ps_pixels)
    near, far = (e1, e2) if _d2(e1, anchor) <= _d2(e2, anchor) else (e2, e1)
    axis_dir = np.array([near[0] - far[0], near[1] - far[1]], dtype=np.float64)

    # Support ray on the inferior side: maximum atan2(dy, dx) from the anchor,
    # ties to the lexicographically smallest boundary pixel.
    rays = [(px - anchor[0], py - anchor[1]) for px, py in sorted(fh_boundary)
            if (px, py) != anchor]
    if not rays:
        raise FedmimError("fetal-head mask coincides with the anchor")
    best_dir = np.array(max(rays, key=lambda r: math.atan2(r[1], r[0])),
                        dtype=np.float64)

    cos_angle = float(
        np.dot(axis_dir, best_dir)
        / (np.linalg.norm(axis_dir) * np.linalg.norm(best_dir))
    )
    return math.degrees(math.acos(max(-1.0, min(1.0, cos_angle))))


def ci95(samples) -> tuple[float, float]:
    """Mean and half-width of the normal 95% CI: 1.96 * SE."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise FedmimError("ci95 needs at least 2 samples")
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
        raise FedmimError("t_test needs at least 2 samples per group")
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    if var_a == 0.0 and var_b == 0.0:
        raise FedmimError("both samples have zero variance")
    se2_a = var_a / a.size
    se2_b = var_b / b.size
    t_stat = (float(a.mean()) - float(b.mean())) / math.sqrt(se2_a + se2_b)
    df = (se2_a + se2_b) ** 2 / (
        se2_a**2 / (a.size - 1) + se2_b**2 / (b.size - 1)
    )
    # Two-sided p: survival of |t| under Student-t with Welch df.
    x = df / (df + t_stat * t_stat)
    return float(betainc(df / 2.0, 0.5, x))
