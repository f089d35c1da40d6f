"""Reference masked autoencoder with exact analytic gradients.

The model keeps the masked-image-modeling contract (encode visible
patches only, reconstruct each masked patch at its position) while being
small enough to differentiate by hand: a linear patch encoder with tanh,
mean-pooled context over visible patches, and a per-masked-position
linear decoder conditioned on [context ; positional embedding]. The
decoder is linear, so its loss and gradients need the masked patches only
through a few sums per client, which are computed once at setup.

Parameter layout in the flat vector, all row-major:
    [W_e (E x N), b_e (E), W_d (N x 2E), b_d (N)]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FedmimError
from .rng import Rng, uniform_draws

PIXEL_SCALE = 255.0

# No BLAS call sums over more than SUM_PIECE samples (or patch rows): OpenBLAS
# cuts a longer sum at bounds that depend on its thread count, and the bytes
# would follow them. numpy's own sums and einsum are not BLAS.
SUM_PIECE = 256


@dataclass(frozen=True)
class ModelConfig:
    patch_dim: int  # N: pixels per patch
    embed_dim: int  # E
    num_patches: int  # L
    seed: int  # init_params draws the weights from Rng(seed)

    def __post_init__(self):
        if self.patch_dim < 1 or self.embed_dim < 1 or self.num_patches < 1:
            raise ValueError("patch_dim, embed_dim, num_patches must all be >= 1")

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

    def __post_init__(self):
        if not (0.0 <= self.eta_min <= self.eta_max):
            raise ValueError("need 0 <= eta_min <= eta_max")
        if not (0 <= self.warmup_rounds <= self.total_rounds):
            raise ValueError("need 0 <= warmup_rounds <= total_rounds")


def unpack_params(params: np.ndarray, cfg: ModelConfig):
    """Views into the flat vector: (W_e, b_e, W_d, b_d)."""
    n, e = cfg.patch_dim, cfg.embed_dim
    if params.shape != (cfg.param_count,):
        raise FedmimError(f"expected {cfg.param_count} params, got {params.shape}")
    i = 0
    w_e = params[i : i + e * n].reshape(e, n); i += e * n
    b_e = params[i : i + e]; i += e
    w_d = params[i : i + n * 2 * e].reshape(n, 2 * e); i += n * 2 * e
    b_d = params[i : i + n]
    return w_e, b_e, w_d, b_d


def init_params(cfg: ModelConfig) -> np.ndarray:
    """Weights i.i.d. uniform in [-1/sqrt(N), 1/sqrt(N)], biases zero: the
    Rng(seed).uniform draws of W_e and then W_d, each in row-major order."""
    bound = 1.0 / math.sqrt(cfg.patch_dim)
    params = np.zeros(cfg.param_count)
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    weights = uniform_draws(Rng(cfg.seed), -bound, bound, w_e.size + w_d.size)
    w_e[...] = weights[:w_e.size].reshape(w_e.shape)
    w_d[...] = weights[w_e.size:].reshape(w_d.shape)
    return params


def positional_embeddings(num_patches: int, embed_dim: int) -> np.ndarray:
    """Fixed sinusoidal table, shape (L, E): even dims sin, odd dims cos."""
    pos = np.arange(num_patches, dtype=np.float64)[:, None]
    # math.pow, not np.power, whose SIMD kernels round by the CPU's features.
    freqs = [1.0 / math.pow(10000.0, 2 * (d // 2) / embed_dim) for d in range(embed_dim)]
    angles = pos * np.array(freqs)
    table = np.where(np.arange(embed_dim)[None, :] % 2 == 0,
                     np.sin(angles), np.cos(angles))
    return table


@dataclass(frozen=True)
class PreparedBatch:
    """Pixel-scaled tensors and masked-row sums (q: positional embedding,
    t: target patch) for one or more samples with a common (V, M) split,
    M = n_mask. visible and q_visible are .transpose(1, 0, 2) views of
    contiguous patch-major (V, n, .) arrays; visible[i] is sample i's rows.
    The second-order sums q2, t_q and t_sq are taken over rows centred on
    their sample's masked-row mean (q_c = q - s_q/M, t_c = t - s_t/M).
    targets, q_masked and pe keep the masked rows and the embedding table for
    checks outside the loss; a stacked batch (stack_batches) holds None there."""

    visible: np.ndarray  # (n, V, N) view, scaled to [0, 1]
    targets: np.ndarray | None  # (n, M, N), scaled to [0, 1]
    q_visible: np.ndarray  # (n, V, E) view
    q_masked: np.ndarray | None  # (n, M, E)
    pe: np.ndarray | None  # (L, E) full embedding table
    q2: np.ndarray  # (E, E) sum of q_c q_c^T over all masked rows
    s_q: np.ndarray  # (n, E) per-sample sum of q over masked rows
    s_t: np.ndarray  # (n, N) per-sample sum of targets over masked rows
    t_q: np.ndarray  # (N, E) sum of t_c q_c^T over all masked rows
    t_sq: float  # sum of |t_c|^2 over all masked rows
    n_mask: int  # M: masked patches per sample
    # Always None; perfbench/tracer.py still reads these names when it
    # sizes a batch.
    targets_full: None = None
    mask_weight: None = None

    @property
    def size(self) -> int:
        return self.visible.shape[0]


def prepare_batch(
    cfg: ModelConfig, samples: list[tuple[np.ndarray, np.ndarray]]
) -> PreparedBatch:
    """Stack (patches, masked) samples, each (L, N) patch rows and an (L,)
    bool mask; all must mask the same number M of patches, 0 < M < L. A
    sample's visible rows, and its masked rows, are kept in ascending patch
    order."""
    try:
        x = np.stack([patches for patches, _ in samples], dtype=np.float64)
        masked = np.stack([mask for _, mask in samples])
    except ValueError as exc:
        raise FedmimError(f"samples do not stack: {exc}") from None
    num_patches = cfg.num_patches
    if (x.shape[1:] != (num_patches, cfg.patch_dim) or masked.shape[1:] != (num_patches,)
            or masked.dtype != np.bool_):
        raise FedmimError(f"samples must be ({num_patches}, {cfg.patch_dim}) patches and "
                          f"a ({num_patches},) bool mask, got {x.shape[1:]} and "
                          f"{masked.shape[1:]} {masked.dtype}")
    n_mask = int(masked[0].sum())
    if np.any(masked.sum(axis=1) != n_mask):
        raise FedmimError("samples mask different numbers of patches")
    if n_mask == 0:
        raise FedmimError("samples mask no patch")
    if n_mask == num_patches:
        raise FedmimError("need at least one visible patch")
    x /= PIXEL_SCALE
    q = positional_embeddings(num_patches, cfg.embed_dim)
    # Stable, so each row lists its visible indices, then its masked ones.
    order = np.argsort(masked, axis=1, kind="stable")
    v_idx, m_idx = order[:, :num_patches - n_mask].T, order[:, num_patches - n_mask:]
    rows = np.arange(len(x))
    tgt, qm = x[rows[:, None], m_idx], q[m_idx]
    s_q, s_t = qm.sum(axis=1), tgt.sum(axis=1)
    # Centred rows keep the loss from being a small difference of large sums.
    flat_t = (tgt - s_t[:, None, :] / n_mask).reshape(-1, cfg.patch_dim)
    flat_q = (qm - s_q[:, None, :] / n_mask).reshape(-1, cfg.embed_dim)
    return PreparedBatch(
        x[rows, v_idx].transpose(1, 0, 2), tgt, q[v_idx].transpose(1, 0, 2), qm, pe=q,
        q2=np.einsum("ri,rj->ij", flat_q, flat_q), s_q=s_q, s_t=s_t,
        t_q=np.einsum("ri,rj->ij", flat_t, flat_q),
        t_sq=float(np.einsum("ri,ri->", flat_t, flat_t)), n_mask=n_mask,
    )


def stack_batches(batches: list[PreparedBatch]) -> PreparedBatch:
    """One batch of every sample of batches, in list order, without the
    masked rows. The per-sample rows and sums are concatenated and the
    centred sums added: each sample is centred on its own masked-row mean,
    so a union's centred sums are its parts' sums."""
    first = batches[0]
    if any(b.visible.shape[1:] != first.visible.shape[1:] or b.n_mask != first.n_mask
           for b in batches):
        raise FedmimError("batches differ in their visible or masked patch counts")

    def cat(name, axis=0):  # axis 1: the sample axis of a patch-major array
        return np.concatenate([getattr(b, name).swapaxes(0, axis) for b in batches],
                              axis).swapaxes(0, axis)

    def total(name):
        return sum((getattr(b, name) for b in batches[1:]), getattr(first, name))

    return PreparedBatch(
        cat("visible", 1), None, cat("q_visible", 1), None, pe=None, q2=total("q2"),
        s_q=cat("s_q"), s_t=cat("s_t"), t_q=total("t_q"), t_sq=total("t_sq"),
        n_mask=first.n_mask,
    )


def _encode(w_e: np.ndarray, b_e: np.ndarray, rows: np.ndarray, q: np.ndarray,
            shape: tuple[int, ...]) -> np.ndarray:
    """The encoder's output for patch rows (r, N) with their positional
    embeddings q, in a new array of the given shape: rows @ W_e^T, reshaped,
    then + b_e, + q, and the activation, tanh."""
    h = (rows @ w_e.T).reshape(shape)
    h += b_e
    h += q
    return np.tanh(h, out=h)


def _activation_slope(h: np.ndarray) -> np.ndarray:
    """The derivative of _encode's activation at its output h, in place."""
    h *= h
    return np.subtract(1.0, h, out=h)


def _row_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T b, one BLAS product per SUM_PIECE rows, the pieces added in order."""
    return sum((a[s:s + SUM_PIECE].T @ b[s:s + SUM_PIECE]
                for s in range(SUM_PIECE, len(a), SUM_PIECE)),
               a[:SUM_PIECE].T @ b[:SUM_PIECE])


def batch_loss_and_grad(
    params: np.ndarray, cfg: ModelConfig, batch: PreparedBatch
) -> tuple[float, np.ndarray]:
    """Mean per-sample reconstruction loss over the batch, with its exact
    gradient. Per-sample loss: (1/N_m) sum over masked patches of the
    per-pixel mean squared error.

    With A = W_d[:, E:] and rows c_k = W_d[:, :E] ctx_k + b_d of C, the
    masked-row residuals c_k + A q - t sum to R = M C + S_q A^T - S_t per
    sample. Each residual is its sample's mean R_k/M plus A q_c - t_c,
    and the centred parts sum to zero per sample, so with G_c = A Q2 - T_q
    the squared residual sum is |R|^2/M + <A, G_c - T_q> + |t_c|^2 and the
    A-gradient is G = G_c + R^T S_q / M, where Q2, T_q and |t_c|^2 are the
    batch's centred sums.
    """
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    n, n_vis, _ = batch.visible.shape
    n_mask = batch.n_mask
    patch_px, e = cfg.patch_dim, cfg.embed_dim

    w_d_ctx, w_d_pos = w_d[:, :e], w_d[:, e:]

    x = batch.visible.transpose(1, 0, 2).reshape(n_vis * n, patch_px)  # patch-major
    # This buffer holds h, then d_z.
    h = _encode(w_e, b_e, x, batch.q_visible.transpose(1, 0, 2), (n_vis, n, e))
    context = h.sum(axis=0) / n_vis  # (n, E)
    per_sample = context @ w_d_ctx.T + b_d  # (n, N) part of every prediction
    r_per_sample = n_mask * per_sample + batch.s_q @ w_d_pos.T - batch.s_t
    g_centred = w_d_pos @ batch.q2 - batch.t_q
    sq_sum = (np.einsum("ij,ij->", r_per_sample, r_per_sample) / n_mask
              + np.einsum("ij,ij->", w_d_pos, g_centred - batch.t_q) + batch.t_sq)
    loss = float(sq_sum / (n * n_mask * patch_px))
    # The factor 2/(n*M*N) common to every gradient is applied at the end.
    d_w_d = _row_sum(r_per_sample, np.concatenate([context, batch.s_q / n_mask], axis=1))
    d_w_d[:, e:] += g_centred  # [R^T ctx, G]
    d_b_d = r_per_sample.sum(axis=0)
    d_ctx = r_per_sample @ w_d_ctx  # (n, E)
    _activation_slope(h)
    h *= d_ctx / n_vis  # d_z
    d_w_e = _row_sum(h.reshape(n_vis * n, e), x)
    d_b_e = np.einsum("vie->e", h)

    grad = np.concatenate([d_w_e.ravel(), d_b_e, d_w_d.ravel(), d_b_d])
    grad *= 2.0 / (n * n_mask * patch_px)
    return loss, grad


def lr_schedule(t: int, opt: OptimizerConfig) -> float:
    """Linear warmup from 0 to eta_max, then cosine annealing to eta_min."""
    if not (0 <= t <= opt.total_rounds):
        raise ValueError(f"round {t} outside [0, {opt.total_rounds}]")
    if t < opt.warmup_rounds:
        return opt.eta_max * t / opt.warmup_rounds
    span = opt.total_rounds - opt.warmup_rounds
    frac = 0.0 if span == 0 else (t - opt.warmup_rounds) / span
    return opt.eta_min + 0.5 * (opt.eta_max - opt.eta_min) * (1.0 + math.cos(math.pi * frac))


def encode_features(params: np.ndarray, cfg: ModelConfig, patches: np.ndarray) -> np.ndarray:
    """Context vectors (n, E) of raw (n, L, N) patches with every patch
    visible (fine-tune time: no masking)."""
    if patches.shape[1:] != (cfg.num_patches, cfg.patch_dim):
        raise FedmimError("patches do not match model config")
    w_e, b_e, _, _ = unpack_params(params, cfg)
    q = positional_embeddings(cfg.num_patches, cfg.embed_dim)
    rows = (patches / PIXEL_SCALE).reshape(-1, cfg.patch_dim)  # sample-major
    return _encode(w_e, b_e, rows, q, (*patches.shape[:2], cfg.embed_dim)).mean(axis=1)
