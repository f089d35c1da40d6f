"""Reference implementations the tests check package code against.

These are single-sample or dense versions of computations the package
does in vectorized form. They live here, not in ``fedmim``, because no
production path calls them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.stats import rankdata

from fedmim.corrupt import (
    GAUSSIAN,
    MOTION,
    PHI_RANGE,
    SALTPEPPER,
    SIGMA_RANGE,
    CorruptionConfig,
    gaussian_blur,
    motion_blur_kernel,
)
from fedmim.errors import FedmimError
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
from fedmim.synth import PhantomSpec, _boundary_wobble


def init_params(cfg: ModelConfig) -> np.ndarray:
    """model.init_params drawn one weight at a time: Rng(seed).uniform for
    each entry of W_e and then W_d in row-major order, biases zero."""
    rng = Rng(cfg.seed)
    bound = 1.0 / math.sqrt(cfg.patch_dim)
    params = np.zeros(cfg.param_count)
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    for mat in (w_e, w_d):
        flat = mat.ravel()
        for i in range(flat.size):
            flat[i] = rng.uniform(-bound, bound)
    return params


def activation(z: np.ndarray) -> np.ndarray:
    """The encoder's activation, elementwise."""
    return np.tanh(z)


def activation_slope(h: np.ndarray) -> np.ndarray:
    """The activation's derivative, as a function of its output h."""
    return 1.0 - h * h


class DenseRows(NamedTuple):
    """The visible (n, V, .) and masked (n, M, .) rows of n samples, pixels
    scaled to [0, 1], in ascending patch order, each with its row of the
    positional embedding table."""

    visible: np.ndarray
    q_visible: np.ndarray
    targets: np.ndarray
    q_masked: np.ndarray


def dense_rows(cfg: ModelConfig, samples) -> DenseRows:
    """The rows of (patches, masked) samples that each mask M patches."""
    q = positional_embeddings(cfg.num_patches, cfg.embed_dim)
    parts = [(patches[~masked] / 255.0, q[~masked], patches[masked] / 255.0, q[masked])
             for patches, masked in samples]
    return DenseRows(*(np.stack(rows) for rows in zip(*parts)))


def _dense_forward(params: np.ndarray, cfg: ModelConfig, rows: DenseRows):
    """The encoder outputs h (n, V, E) and the masked-row residuals
    (n, M, N) of the prediction [context ; q] W_d^T + b_d."""
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    e = cfg.embed_dim
    h = activation(rows.visible @ w_e.T + b_e + rows.q_visible)
    resid = rows.q_masked @ w_d[:, e:].T + (h.mean(axis=1) @ w_d[:, :e].T + b_d)[:, None, :]
    resid -= rows.targets
    return h, resid


def dense_loss(params: np.ndarray, cfg: ModelConfig, rows: DenseRows) -> float:
    """batch_loss_and_grad's loss as the mean squared residual over every
    masked pixel of rows."""
    flat_r = _dense_forward(params, cfg, rows)[1].ravel()
    return float(flat_r @ flat_r / flat_r.size)


def dense_loss_and_grad(
    params: np.ndarray, cfg: ModelConfig, rows: DenseRows
) -> tuple[float, np.ndarray]:
    """dense_loss with its gradient, taken from the dense residuals rather
    than from a batch's masked-row sums."""
    h, resid = _dense_forward(params, cfg, rows)
    n, n_mask, patch_px = resid.shape
    flat_r = resid.ravel()
    d_w_d_pos = resid.reshape(n * n_mask, patch_px).T @ rows.q_masked.reshape(n * n_mask, -1)
    return (float(flat_r @ flat_r / flat_r.size),
            _backprop(params, cfg, rows.visible, h, resid.sum(axis=1), d_w_d_pos, n_mask))


def _backprop(params, cfg, visible, h, r_per_sample, d_w_d_pos, n_mask) -> np.ndarray:
    """The flat loss gradient from the encoder outputs h, the per-sample
    residual sums R (n, N) and the gradient of W_d[:, E:]."""
    w_d_ctx = unpack_params(params, cfg)[2][:, :cfg.embed_dim]
    n, n_vis, patch_px = visible.shape
    d_w_d_ctx = r_per_sample.T @ h.mean(axis=1)
    d_ctx = r_per_sample @ w_d_ctx
    d_z = ((d_ctx[:, None, :] / n_vis) * activation_slope(h)).reshape(n * n_vis, -1)
    d_w_e = d_z.T @ visible.reshape(n * n_vis, patch_px)
    d_w_d = np.concatenate([d_w_d_ctx, d_w_d_pos], axis=1)
    grad = np.concatenate([d_w_e.ravel(), d_z.sum(axis=0), d_w_d.ravel(),
                           r_per_sample.sum(axis=0)])
    return grad * (2.0 / (n * n_mask * patch_px))


def sample_major_loss_and_grad(
    params: np.ndarray, cfg: ModelConfig, batch: PreparedBatch
) -> tuple[float, np.ndarray]:
    """batch_loss_and_grad over sample-major (n, V, .) rows, each sum over
    samples one BLAS product: d_W_e over all n*V rows, R^T ctx and R^T S_q
    over all n samples. Past 256 rows, the bytes of those sums can depend on
    the BLAS thread count."""
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    n, n_vis, patch_px = batch.visible.shape
    n_mask, e = batch.n_mask, cfg.embed_dim
    w_d_ctx, w_d_pos = w_d[:, :e], w_d[:, e:]
    z = (batch.visible.reshape(n * n_vis, patch_px) @ w_e.T).reshape(n, n_vis, e)
    h = activation(z + b_e + batch.q_visible)
    per_sample = h.mean(axis=1) @ w_d_ctx.T + b_d
    r_per_sample = n_mask * per_sample + batch.s_q @ w_d_pos.T - batch.s_t
    g_centred = w_d_pos @ batch.q2 - batch.t_q
    d_w_d_pos = g_centred + r_per_sample.T @ (batch.s_q / n_mask)
    sq_sum = (np.einsum("ij,ij->", r_per_sample, r_per_sample) / n_mask
              + np.einsum("ij,ij->", w_d_pos, g_centred - batch.t_q) + batch.t_sq)
    loss = float(sq_sum / (n * n_mask * patch_px))
    return loss, _backprop(params, cfg, batch.visible, h, r_per_sample, d_w_d_pos, n_mask)


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
        raise FedmimError(f"label {label} outside [0, {num_classes})")
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


def convolve2d_taps(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """image.convolve2d as one (H, W) window of the edge-padded image per
    nonzero tap, added in row-major kernel order."""
    img = as_image(img)
    kh, kw = kernel.shape
    padded = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    h, w = img.shape
    out = np.zeros_like(img)
    for i in range(kh):
        for j in range(kw):
            wij = kernel[i, j]
            if wij != 0.0:
                out += wij * padded[i : i + h, j : j + w]
    return out


def gaussian_taps(sigma: float, radius: int) -> np.ndarray:
    """Unnormalized Gaussian samples G(u, v; sigma) at integer offsets."""
    if sigma <= 0.0:
        raise FedmimError(f"sigma must be positive, got {sigma}")
    if radius < 1:
        raise FedmimError(f"radius must be >= 1, got {radius}")
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    u, v = np.meshgrid(offsets, offsets)
    return np.exp(-(u * u + v * v) / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)


def gaussian_kernel(sigma: float) -> np.ndarray:
    """The 2-D Gaussian kernel that corrupt.gaussian_blur applies in two 1-D
    passes, normalized as a whole and truncated at radius max(1, ceil(3 sigma))."""
    taps = gaussian_taps(sigma, max(1, math.ceil(3.0 * sigma)))
    return taps / taps.sum()


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


class Sector(NamedTuple):
    """A convex probe: apex position, radius band, and half-angle."""

    apex_x: float
    apex_y: float
    r_min: float
    r_max: float
    half_angle: float


def sector(h: int, w: int) -> Sector:
    """The probe smat warps an H x W image with, restated as the reference:
    apex at the top centre, radii from 0.08 H to 0.98 H, 30 degrees either
    side of the vertical."""
    return Sector((w - 1) / 2.0, 0.0, 0.08 * h, 0.98 * h, np.deg2rad(30.0))


def sector_exterior(h: int, w: int) -> np.ndarray:
    """The (H, W) pixels that lie outside an H x W image's sector."""
    g = sector(h, w)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    r = np.hypot(xs - g.apex_x, ys - g.apex_y)
    theta = np.arctan2(xs - g.apex_x, ys - g.apex_y)
    return (r < g.r_min) | (r > g.r_max) | (np.abs(theta) > g.half_angle)


def linear_to_convex(img: np.ndarray) -> np.ndarray:
    """smat.linear_to_convex with its polar map rebuilt on every call."""
    img = as_image(img)
    h, w = img.shape
    g = sector(h, w)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    dx = xs - g.apex_x
    dy = ys - g.apex_y
    r = np.hypot(dx, dy)
    theta = np.arctan2(dx, dy)
    in_sector = (r >= g.r_min) & (r <= g.r_max) & (np.abs(theta) <= g.half_angle)
    u = (theta + g.half_angle) / (2.0 * g.half_angle) * (w - 1)
    v = (r - g.r_min) / (g.r_max - g.r_min) * (h - 1)
    out = bilinear_sample_grid(img, u, v)
    return np.where(in_sector, out, 0.0)


def convex_to_linear(img: np.ndarray) -> np.ndarray:
    """smat.convex_to_linear with its polar map rebuilt on every call."""
    img = as_image(img)
    h, w = img.shape
    if w < 2 or h < 2:
        raise FedmimError("output must be at least 2x2")
    g = sector(h, w)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    theta = -g.half_angle + xs / (w - 1) * 2.0 * g.half_angle
    r = g.r_min + ys / (h - 1) * (g.r_max - g.r_min)
    sx = g.apex_x + r * np.sin(theta)
    sy = g.apex_y + r * np.cos(theta)
    return bilinear_sample_grid(img, sx, sy)


def init_probe(num_classes: int, embed_dim: int, seed: int) -> np.ndarray:
    """finetune.init_probe drawn one weight at a time: Rng(seed).uniform
    for each entry of W_c in row-major order, biases zero."""
    rng = Rng(seed)
    bound = 1.0 / math.sqrt(embed_dim)
    params = np.zeros(num_classes * embed_dim + num_classes)
    for i in range(num_classes * embed_dim):
        params[i] = rng.uniform(-bound, bound)
    return params


def points_mask(points, shape: tuple[int, int]) -> np.ndarray:
    """The boolean mask of the given shape whose foreground is the (x, y)
    points: the inverse of metrics.mask_points."""
    mask = np.zeros(shape, dtype=bool)
    for x, y in points:
        mask[y, x] = True
    return mask


def dsc_sets(pred: set, truth: set) -> float:
    """Dice similarity 2|P&T|/(|P|+|T|) of two point sets; both empty is 1."""
    if not pred and not truth:
        return 1.0
    return 2.0 * len(pred & truth) / (len(pred) + len(truth))


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


def xoshiro_charpoly(seed: int = 1, bits: int = 600) -> int:
    """The characteristic polynomial of xoshiro256's state step, bit i the
    coefficient of x**i, found by Berlekamp-Massey over GF(2) from bit 0
    of s0 along the first `bits` states of Rng(seed). The step is linear
    with a degree-256 primitive polynomial, so 512 bits determine it."""
    rng = Rng(seed)
    seq = []
    for _ in range(bits):
        seq.append(rng._s[0] & 1)
        rng.next_u64()
    conn, prev, length, gap = 1, 1, 0, 1  # C(x), B(x), L, steps since B
    for i, bit in enumerate(seq):
        for k in range(1, length + 1):
            bit ^= (conn >> k) & seq[i - k]
        if bit == 0:
            gap += 1
        elif 2 * length <= i:
            conn, prev = conn ^ (prev << gap), conn
            length, gap = i + 1 - length, 1
        else:
            conn ^= prev << gap
            gap += 1
    # C(x) is the connection polynomial; the characteristic polynomial is
    # its reciprocal x**L C(1/x).
    return int(format(conn, f"0{length + 1}b")[::-1], 2)


def speckle_envelope(rng: Rng, count: int) -> np.ndarray:
    """count speckle envelope values drawn one pixel at a time: the
    hypot of two Rng.normal draws, which share one Box-Muller pair."""
    envelope = np.empty(count)
    for i in range(count):
        g1 = rng.normal()
        g2 = rng.normal()
        envelope[i] = math.hypot(g1, g2)
    return envelope


def lesion_mask_full_grid(spec: PhantomSpec, rng: Rng) -> np.ndarray:
    """synth._lesion_mask of a lesion inside the image, tested on every
    pixel rather than on the lesion's bounding box; the boundary wobble is
    drawn from rng in the same way."""
    lesion = spec.lesion
    if lesion is None:
        return np.zeros((spec.height, spec.width))
    ys, xs = np.mgrid[0:spec.height, 0:spec.width].astype(np.float64)
    dx = (xs - lesion.center_x) / lesion.axis_x
    dy = (ys - lesion.center_y) / lesion.axis_y
    radial = dx * dx + dy * dy
    if lesion.irregularity == 0.0:
        return (radial <= 1.0).astype(np.float64)
    amps, phases = _boundary_wobble(rng)
    alpha = np.arctan2(dy, dx)
    wobble = np.zeros_like(alpha)
    for h, (amp, phase) in enumerate(zip(amps, phases), start=2):
        wobble += amp * np.sin(h * alpha + phase)
    limit = 1.0 + lesion.irregularity * wobble
    return (radial <= limit * limit).astype(np.float64)


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
            out = gaussian_blur(out, rng.uniform(*SIGMA_RANGE))
        else:
            out = salt_pepper(out, cfg.p_salt, cfg.p_pepper, rng)
    return out
