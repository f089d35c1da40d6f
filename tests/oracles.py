"""Reference implementations the tests check package code against.

These are single-sample or dense versions of computations the package
does in vectorized form. They live here, not in ``fedmim``, because no
production path calls them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import rankdata

from fedmim.corrupt import (
    GAUSSIAN,
    MOTION,
    PHI_RANGE,
    SALTPEPPER,
    SIGMA_RANGE,
    CorruptionConfig,
    gaussian_kernel,
    motion_blur_kernel,
)
from fedmim.errors import BadLabel, EmptyVisibleSet, InvalidGeometry
from fedmim.image import as_image, convolve2d
from fedmim.model import (
    ModelConfig,
    PreparedBatch,
    batch_loss_and_grad,
    positional_embeddings,
    prepare_batch,
    unpack_params,
)
from fedmim.rng import Rng
from fedmim.smat import ScanGeometry


def forward(
    params: np.ndarray,
    cfg: ModelConfig,
    visible_patches: np.ndarray,
    visible_idx,
    masked_idx,
) -> np.ndarray:
    """Predict the masked patches; returns shape (len(masked_idx), N).

    visible_patches holds one row per entry of visible_idx. The result is
    keyed by masked index, so enumeration order of either set is
    irrelevant.
    """
    visible_idx = np.asarray(visible_idx, dtype=np.int64)
    masked_idx = np.asarray(masked_idx, dtype=np.int64)
    if visible_idx.size == 0:
        raise EmptyVisibleSet("need at least one visible patch")
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    q = positional_embeddings(cfg.num_patches, cfg.embed_dim)
    z = visible_patches @ w_e.T + b_e + q[visible_idx]
    h = np.tanh(z)
    context = h.mean(axis=0)
    phi = np.concatenate(
        [np.broadcast_to(context, (masked_idx.size, cfg.embed_dim)), q[masked_idx]],
        axis=1,
    )
    return phi @ w_d.T + b_d


def dense_loss_and_grad(
    params: np.ndarray, cfg: ModelConfig, batch: PreparedBatch
) -> tuple[float, np.ndarray]:
    """batch_loss_and_grad computed from the dense per-masked-row fields
    (targets, q_masked) only, as a direct sum of squared residuals rather
    than from the batch's masked-row sums."""
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    n, n_vis, _ = batch.visible.shape
    n_mask = batch.targets.shape[1]
    patch_px = cfg.patch_dim
    e = cfg.embed_dim
    w_d_ctx = w_d[:, :e]
    w_d_pos = w_d[:, e:]

    flat_x = batch.visible.reshape(n * n_vis, patch_px)
    z = (flat_x @ w_e.T).reshape(n, n_vis, e) + b_e + batch.q_visible
    h = np.tanh(z)
    context = h.mean(axis=1)
    flat_qm = batch.q_masked.reshape(n * n_mask, e)
    resid = (flat_qm @ w_d_pos.T).reshape(n, n_mask, patch_px)
    resid += (context @ w_d_ctx.T + b_d)[:, None, :]
    resid -= batch.targets
    flat_r = resid.ravel()
    loss = float(flat_r @ flat_r / (n * n_mask * patch_px))

    r_per_sample = resid.sum(axis=1)
    d_w_d_pos = resid.reshape(n * n_mask, patch_px).T @ flat_qm
    d_w_d_ctx = r_per_sample.T @ context
    d_b_d = r_per_sample.sum(axis=0)
    d_ctx = r_per_sample @ w_d_ctx
    d_z = (d_ctx[:, None, :] / n_vis) * (1.0 - h * h)
    flat_dz = d_z.reshape(n * n_vis, e)
    d_w_e = flat_dz.T @ flat_x
    d_b_e = flat_dz.sum(axis=0)

    d_w_d = np.concatenate([d_w_d_ctx, d_w_d_pos], axis=1)
    grad = np.concatenate([d_w_e.ravel(), d_b_e, d_w_d.ravel(), d_b_d])
    grad *= 2.0 / (n * n_mask * patch_px)
    return loss, grad


def loss_and_grad(params: np.ndarray, cfg: ModelConfig, sample) -> tuple[float, np.ndarray]:
    """Single-sample reconstruction loss and gradient through the package's
    batch path on a one-sample batch."""
    return batch_loss_and_grad(params, cfg, prepare_batch(cfg, [sample]))


def finite_diff_grad(
    loss_fn, params: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar loss over a flat vector."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    grad = np.zeros_like(params)
    probe = params.copy()
    for i in range(params.size):
        orig = probe[i]
        probe[i] = orig + epsilon
        hi = loss_fn(probe)
        probe[i] = orig - epsilon
        lo = loss_fn(probe)
        probe[i] = orig
        grad[i] = (hi - lo) / (2.0 * epsilon)
    return grad


def probe_loss_and_grad(
    probe_params: np.ndarray, feature: np.ndarray, label: int, num_classes: int
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over one sample; exact probe gradient."""
    if not (0 <= label < num_classes):
        raise BadLabel(f"label {label} outside [0, {num_classes})")
    w_c = probe_params[: num_classes * feature.size].reshape(num_classes, feature.size)
    logits = w_c @ feature + probe_params[num_classes * feature.size :]
    exp = np.exp(logits - logits.max())
    probs = exp / exp.sum()
    loss = -math.log(max(probs[label], 1e-300))
    d_logits = probs.copy()
    d_logits[label] -= 1.0
    d_w = np.outer(d_logits, feature)
    grad = np.concatenate([d_w.ravel(), d_logits])
    return loss, grad


def bilinear_sample(img: np.ndarray, x: float, y: float) -> float:
    """Bilinear blend of the 4 surrounding pixels; 0 outside [0,W-1]x[0,H-1]."""
    h, w = img.shape
    if x < 0.0 or y < 0.0 or x > w - 1 or y > h - 1:
        return 0.0
    x0 = int(np.floor(x))
    y0 = int(np.floor(y))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = (1.0 - fx) * img[y0, x0] + fx * img[y0, x1]
    bot = (1.0 - fx) * img[y1, x0] + fx * img[y1, x1]
    return float((1.0 - fy) * top + fy * bot)


def bilinear_sample_grid(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """bilinear_sample over arrays of points, indexing img directly."""
    h, w = img.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = (xs >= 0.0) & (ys >= 0.0) & (xs <= w - 1) & (ys <= h - 1)
    xc = np.where(inside, xs, 0.0)
    yc = np.where(inside, ys, 0.0)
    x0 = np.floor(xc).astype(np.int64)
    y0 = np.floor(yc).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    top = (1.0 - fx) * img[y0, x0] + fx * img[y0, x1]
    bot = (1.0 - fx) * img[y1, x0] + fx * img[y1, x1]
    out = (1.0 - fy) * top + fy * bot
    return np.where(inside, out, 0.0)


def linear_to_convex(img: np.ndarray, geom: ScanGeometry, out_w: int, out_h: int) -> np.ndarray:
    """smat.linear_to_convex with its polar map rebuilt on every call."""
    img = as_image(img)
    h_src, w_src = img.shape
    ys, xs = np.mgrid[0:out_h, 0:out_w].astype(np.float64)
    dx = xs - geom.apex_x
    dy = ys - geom.apex_y
    r = np.hypot(dx, dy)
    theta = np.arctan2(dx, dy)
    in_sector = (r >= geom.r_min) & (r <= geom.r_max) & (np.abs(theta) <= geom.half_angle)
    u = (theta + geom.half_angle) / (2.0 * geom.half_angle) * (w_src - 1)
    v = (r - geom.r_min) / (geom.r_max - geom.r_min) * (h_src - 1)
    out = bilinear_sample_grid(img, u, v)
    return np.where(in_sector, out, 0.0)


def convex_to_linear(img: np.ndarray, geom: ScanGeometry, out_w: int, out_h: int) -> np.ndarray:
    """smat.convex_to_linear with its polar map rebuilt on every call."""
    img = as_image(img)
    if out_w < 2 or out_h < 2:
        raise InvalidGeometry("output must be at least 2x2")
    ys, xs = np.mgrid[0:out_h, 0:out_w].astype(np.float64)
    theta = -geom.half_angle + xs / (out_w - 1) * 2.0 * geom.half_angle
    r = geom.r_min + ys / (out_h - 1) * (geom.r_max - geom.r_min)
    sx = geom.apex_x + r * np.sin(theta)
    sy = geom.apex_y + r * np.cos(theta)
    return bilinear_sample_grid(img, sx, sy)


def hausdorff_brute(pred: set, truth: set) -> float:
    """Symmetric Hausdorff distance from the full |P| x |T| distance table."""
    p_arr = np.array(sorted(pred), dtype=np.float64)
    t_arr = np.array(sorted(truth), dtype=np.float64)
    d2 = ((p_arr[:, None, :] - t_arr[None, :, :]) ** 2).sum(axis=2)
    return float(max(np.sqrt(d2.min(axis=1)).max(), np.sqrt(d2.min(axis=0)).max()))


def rank_auroc(scores, labels) -> float:
    """AUROC as the Mann-Whitney U of scipy's average ranks over n_pos * n_neg."""
    labels = np.asarray(labels)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    rank_sum = float(np.sum(rankdata(scores, method="average")[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def speckle_envelope(rng: Rng, count: int) -> np.ndarray:
    """count speckle envelope values drawn one pixel at a time: the
    hypot of two Rng.normal draws, which share one Box-Muller pair."""
    envelope = np.empty(count)
    for i in range(count):
        g1 = rng.normal()
        g2 = rng.normal()
        envelope[i] = math.hypot(g1, g2)
    return envelope


def salt_pepper(img: np.ndarray, p_salt: float, p_pepper: float, rng: Rng) -> np.ndarray:
    """Salt-and-pepper drawn one pixel at a time in row-major order: 0 if
    u < p_salt, else 255 if u < p_salt + p_pepper, else unchanged."""
    out = as_image(img).copy()
    flat = out.ravel()
    threshold = p_salt + p_pepper
    for i in range(flat.size):
        u = rng.random()
        if u < p_salt:
            flat[i] = 0.0
        elif u < threshold:
            flat[i] = 255.0
    return out


def mixed_corrupt(img: np.ndarray, cfg: CorruptionConfig, rng: Rng) -> np.ndarray:
    """mixed_corrupt of one image, each op applied as it is drawn, with the
    scalar salt_pepper above."""
    img = as_image(img)
    if rng.random() >= cfg.p:
        return img.copy()
    remaining = [MOTION, GAUSSIAN, SALTPEPPER]
    ops = [remaining.pop(rng.randint(len(remaining))) for _ in range(1 + rng.randint(3))]
    out = img
    for op in ops:
        if op == MOTION:
            out = convolve2d(out, motion_blur_kernel(cfg.motion_d, rng.uniform(*PHI_RANGE)))
        elif op == GAUSSIAN:
            out = convolve2d(out, gaussian_kernel(rng.uniform(*SIGMA_RANGE)))
        else:
            out = salt_pepper(out, cfg.p_salt, cfg.p_pepper, rng)
    return out
