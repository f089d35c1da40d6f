"""Reference masked autoencoder with exact analytic gradients.

The model keeps the masked-image-modeling contract (encode visible
patches only, reconstruct each masked patch at its position) while being
small enough to differentiate by hand: a linear patch encoder with tanh,
mean-pooled context over visible patches, and a per-masked-position
linear decoder conditioned on [context ; positional embedding].

Parameter layout in the flat vector, all row-major:
    [W_e (E x N), b_e (E), W_d (N x 2E), b_d (N)]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyVisibleSet, ShapeMismatch
from .image import PatchGrid
from .rng import Rng
from .tgm import MaskPartition

PIXEL_SCALE = 255.0


@dataclass(frozen=True)
class ModelConfig:
    patch_dim: int  # N: pixels per patch
    embed_dim: int  # E
    num_patches: int  # L
    seed: int = 0

    def validate(self) -> "ModelConfig":
        if self.patch_dim < 1 or self.embed_dim < 1 or self.num_patches < 1:
            raise ValueError("patch_dim, embed_dim, num_patches must all be >= 1")
        return self

    @property
    def param_count(self) -> int:
        n, e = self.patch_dim, self.embed_dim
        return e * n + e + n * 2 * e + n


@dataclass(frozen=True)
class OptimizerConfig:
    eta_max: float = 5e-4
    eta_min: float = 1e-6
    warmup_rounds: int = 10
    total_rounds: int = 600

    def validate(self) -> "OptimizerConfig":
        if not (0.0 <= self.eta_min <= self.eta_max):
            raise ValueError("need 0 <= eta_min <= eta_max")
        if not (0 <= self.warmup_rounds <= self.total_rounds):
            raise ValueError("need 0 <= warmup_rounds <= total_rounds")
        return self


def unpack_params(params: np.ndarray, cfg: ModelConfig):
    """Views into the flat vector: (W_e, b_e, W_d, b_d)."""
    n, e = cfg.patch_dim, cfg.embed_dim
    if params.shape != (cfg.param_count,):
        raise ShapeMismatch(f"expected {cfg.param_count} params, got {params.shape}")
    i = 0
    w_e = params[i : i + e * n].reshape(e, n); i += e * n
    b_e = params[i : i + e]; i += e
    w_d = params[i : i + n * 2 * e].reshape(n, 2 * e); i += n * 2 * e
    b_d = params[i : i + n]
    return w_e, b_e, w_d, b_d


def init_params(cfg: ModelConfig) -> np.ndarray:
    """Weights i.i.d. uniform in [-1/sqrt(N), 1/sqrt(N)], biases zero."""
    cfg.validate()
    rng = Rng(cfg.seed)
    bound = 1.0 / math.sqrt(cfg.patch_dim)
    params = np.zeros(cfg.param_count)
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    for mat in (w_e, w_d):
        flat = mat.ravel()
        for i in range(flat.size):
            flat[i] = rng.uniform(-bound, bound)
    return params


def positional_embeddings(num_patches: int, embed_dim: int) -> np.ndarray:
    """Fixed sinusoidal table, shape (L, E): even dims sin, odd dims cos."""
    pos = np.arange(num_patches, dtype=np.float64)[:, None]
    dims = np.arange(embed_dim, dtype=np.float64)[None, :]
    freqs = 1.0 / np.power(10000.0, 2.0 * np.floor(dims / 2.0) / embed_dim)
    angles = pos * freqs
    table = np.where(np.arange(embed_dim)[None, :] % 2 == 0,
                     np.sin(angles), np.cos(angles))
    return table


@dataclass(frozen=True)
class PreparedBatch:
    """Stacked, pixel-scaled tensors for one or more samples with a common
    (V, M) split, used by the vectorized loss/grad path.

    The loss uses the full-grid fields: q_masked rows repeat at most L
    distinct embeddings, so predictions are formed over all L positions
    at once from a single (L, E) product and masked down by a 0/1
    weight, which is much cheaper per local step than per-row matmuls.
    targets and q_masked hold the same data in dense per-masked-row form
    and fix the masked count M.
    """

    visible: np.ndarray  # (n, V, N), scaled to [0, 1]
    targets: np.ndarray  # (n, M, N), scaled to [0, 1]
    q_visible: np.ndarray  # (n, V, E)
    q_masked: np.ndarray  # (n, M, E)
    pe: np.ndarray  # (L, E) full embedding table
    targets_full: np.ndarray  # (n, L, N), zero off-mask
    mask_weight: np.ndarray  # (n, L, 1) 1 on masked positions

    @property
    def size(self) -> int:
        return self.visible.shape[0]


def prepare_batch(
    cfg: ModelConfig, samples: list[tuple[PatchGrid, MaskPartition]]
) -> PreparedBatch:
    """Stack (grid, partition) samples; all must share the same V/M counts."""
    q = positional_embeddings(cfg.num_patches, cfg.embed_dim)
    n = len(samples)
    tgt_full = np.zeros((n, cfg.num_patches, cfg.patch_dim))
    weight = np.zeros((n, cfg.num_patches, 1))
    vis, tgt, qv, qm = [], [], [], []
    for k, (grid, part) in enumerate(samples):
        if grid.num_patches != cfg.num_patches or grid.patch_dim != cfg.patch_dim:
            raise ShapeMismatch("grid does not match model config")
        v_idx = np.asarray(part.visible, dtype=np.int64)
        m_idx = np.asarray(part.masked, dtype=np.int64)
        vis.append(grid.patches[v_idx] / PIXEL_SCALE)
        tgt.append(grid.patches[m_idx] / PIXEL_SCALE)
        qv.append(q[v_idx])
        qm.append(q[m_idx])
        tgt_full[k, m_idx] = tgt[-1]
        weight[k, m_idx, 0] = 1.0
    return PreparedBatch(
        np.stack(vis), np.stack(tgt), np.stack(qv), np.stack(qm),
        pe=q, targets_full=tgt_full, mask_weight=weight,
    )


def batch_loss_and_grad(
    params: np.ndarray, cfg: ModelConfig, batch: PreparedBatch
) -> tuple[float, np.ndarray]:
    """Mean per-sample reconstruction loss over the batch, with its exact
    gradient. Per-sample loss: (1/N_m) sum over masked patches of the
    per-pixel mean squared error."""
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    n, n_vis, _ = batch.visible.shape
    n_mask = batch.targets.shape[1]
    patch_px = cfg.patch_dim
    e = cfg.embed_dim
    if n_vis == 0:
        raise EmptyVisibleSet("need at least one visible patch")

    # Decoder input is [context ; q_masked]; keep the two blocks separate to
    # avoid materializing the concatenated feature tensor.
    w_d_ctx = w_d[:, :e]
    w_d_pos = w_d[:, e:]

    flat_x = batch.visible.reshape(n * n_vis, patch_px)
    z = (flat_x @ w_e.T).reshape(n, n_vis, e) + b_e + batch.q_visible
    h = np.tanh(z)
    context = h.mean(axis=1)  # (n, E)
    per_sample = context @ w_d_ctx.T + b_d  # (n, N) part of every prediction
    # Predictions at every position from one (L, N) product, off-mask
    # rows zeroed by the weight.
    resid = batch.pe @ w_d_pos.T + per_sample[:, None, :]
    resid -= batch.targets_full
    resid *= batch.mask_weight
    flat_r = resid.ravel()
    # einsum's own reduction, unlike BLAS dot, sums in an order that does
    # not depend on the BLAS thread count.
    loss = float(np.einsum("i,i->", flat_r, flat_r) / (n * n_mask * patch_px))
    r_per_sample = resid.sum(axis=1)  # (n, N)
    d_w_d_pos = resid.sum(axis=0).T @ batch.pe
    # Unscaled gradient w.r.t. predictions is just resid; the common factor
    # 2/(n*M*N) is applied once at the end.
    d_w_d_ctx = r_per_sample.T @ context
    d_b_d = r_per_sample.sum(axis=0)
    d_ctx = r_per_sample @ w_d_ctx  # (n, E)
    d_z = (d_ctx[:, None, :] / n_vis) * (1.0 - h * h)  # (n, V, E)
    flat_dz = d_z.reshape(n * n_vis, e)
    d_w_e = flat_dz.T @ flat_x
    d_b_e = flat_dz.sum(axis=0)

    d_w_d = np.concatenate([d_w_d_ctx, d_w_d_pos], axis=1)
    grad = np.concatenate([d_w_e.ravel(), d_b_e, d_w_d.ravel(), d_b_d])
    grad *= 2.0 / (n * n_mask * patch_px)
    return loss, grad


def lr_schedule(t: int, opt: OptimizerConfig) -> float:
    """Linear warmup from 0 to eta_max, then cosine annealing to eta_min."""
    opt.validate()
    if not (0 <= t <= opt.total_rounds):
        raise ValueError(f"round {t} outside [0, {opt.total_rounds}]")
    if t < opt.warmup_rounds:
        return opt.eta_max * t / opt.warmup_rounds
    span = opt.total_rounds - opt.warmup_rounds
    frac = 0.0 if span == 0 else (t - opt.warmup_rounds) / span
    return opt.eta_min + 0.5 * (opt.eta_max - opt.eta_min) * (1.0 + math.cos(math.pi * frac))


def encode_features(
    params: np.ndarray, cfg: ModelConfig, img: np.ndarray, patch_h: int, patch_w: int
) -> np.ndarray:
    """Context vector with every patch visible (fine-tune time: no masking)."""
    from .image import patchify

    grid = patchify(img, patch_h, patch_w)
    if grid.num_patches != cfg.num_patches or grid.patch_dim != cfg.patch_dim:
        raise ShapeMismatch("image does not match model config")
    w_e, b_e, _, _ = unpack_params(params, cfg)
    q = positional_embeddings(cfg.num_patches, cfg.embed_dim)
    z = (grid.patches / PIXEL_SCALE) @ w_e.T + b_e + q
    return np.tanh(z).mean(axis=0)


# Linear probe (single linear layer + softmax) for fine-tuning.


def init_probe(num_classes: int, embed_dim: int, seed: int) -> np.ndarray:
    """Flat probe parameters [W_c (C x E), b_c (C)], weights uniform small."""
    rng = Rng(seed)
    bound = 1.0 / math.sqrt(embed_dim)
    params = np.zeros(num_classes * embed_dim + num_classes)
    for i in range(num_classes * embed_dim):
        params[i] = rng.uniform(-bound, bound)
    return params


def unpack_probe(probe_params: np.ndarray, num_classes: int, embed_dim: int):
    w_c = probe_params[: num_classes * embed_dim].reshape(num_classes, embed_dim)
    b_c = probe_params[num_classes * embed_dim :]
    return w_c, b_c


def probe_probabilities(
    probe_params: np.ndarray, feature: np.ndarray, num_classes: int
) -> np.ndarray:
    w_c, b_c = unpack_probe(probe_params, num_classes, feature.size)
    logits = w_c @ feature + b_c
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()

