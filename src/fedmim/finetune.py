"""Linear-probe fine-tuning on a frozen encoder: feature extraction, the
probe head (one linear layer + softmax), seeded train/validation split,
full-batch gradient descent with the warmup+cosine schedule,
best-validation-accuracy checkpointing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadLabel, TooFewSamples
from .image import patchify
from .model import ModelConfig, OptimizerConfig, encode_features, lr_schedule
from .rng import Rng, uniform_draws


@dataclass(frozen=True)
class ProbeConfig:
    """One field per key of the config's "probe" section, plus the seed.

    The probe follows the pre-training schedule shape over `epochs`
    rounds, but gradient descent on the convex probe objective tolerates
    a much larger step."""

    num_classes: int = 2
    epochs: int = 200
    val_fraction: float = 0.2
    eta_max: float = 0.5
    eta_min: float = 1e-3
    warmup_rounds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if not 0.0 <= self.eta_min <= self.eta_max:
            raise ValueError(f"need 0 <= eta_min <= eta_max, got eta_min "
                             f"{self.eta_min} and eta_max {self.eta_max}")
        # 0 epochs train nothing, so no warmup has to fit in them.
        if self.warmup_rounds < 0 or 0 < self.epochs < self.warmup_rounds:
            raise ValueError(f"need 0 <= warmup_rounds <= epochs, got warmup_rounds "
                             f"{self.warmup_rounds} and epochs {self.epochs}")


def extract_features(
    params: np.ndarray,
    model_cfg: ModelConfig,
    images: list[np.ndarray],
    patch_h: int,
    patch_w: int,
) -> np.ndarray:
    patches = np.stack([patchify(img, patch_h, patch_w) for img in images])
    return encode_features(params, model_cfg, patches)


def init_probe(num_classes: int, embed_dim: int, seed: int) -> np.ndarray:
    """Flat probe parameters [W_c (C x E), b_c (C)], weights uniform small."""
    bound = 1.0 / math.sqrt(embed_dim)
    params = np.zeros(num_classes * embed_dim + num_classes)
    params[:num_classes * embed_dim] = uniform_draws(
        Rng(seed), -bound, bound, num_classes * embed_dim)
    return params


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    out_of_range = (labels < 0) | (labels >= num_classes)
    if out_of_range.any():
        raise BadLabel(f"label {labels[out_of_range][0]} outside [0, {num_classes})")


def probe_scores(
    probe_params: np.ndarray, features: np.ndarray, num_classes: int
) -> np.ndarray:
    """Per-sample class probability matrix, shape (n, C): the softmax of
    the logits features W_c^T + b_c."""
    split = num_classes * features.shape[1]
    w_c = probe_params[:split].reshape(num_classes, features.shape[1])
    logits = features @ w_c.T + probe_params[split:]
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=1, keepdims=True)


def batch_probe_loss_and_grad(
    probe_params: np.ndarray, features: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch with its exact gradient."""
    _check_labels(labels, num_classes)
    n = features.shape[0]
    d_logits = probe_scores(probe_params, features, num_classes)
    picked = d_logits[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    d_w = d_logits.T @ features
    return loss, np.concatenate([d_w.ravel(), d_logits.sum(axis=0)])


@dataclass(frozen=True)
class ProbeResult:
    probe_params: np.ndarray
    val_accuracy: float
    val_indices: np.ndarray
    train_indices: np.ndarray


def probe_split(n: int, cfg: ProbeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The validation and training indices of n samples: Rng(cfg.seed)
    shuffles 0..n-1, and the first round(val_fraction * n) validate."""
    n_val = int(round(cfg.val_fraction * n))
    if n_val < 1 or n - n_val < 1:
        raise TooFewSamples(f"cannot split {n} samples {1 - cfg.val_fraction:.0%}/{cfg.val_fraction:.0%}")
    order = list(range(n))
    Rng(cfg.seed).shuffle(order)
    return np.array(order[:n_val]), np.array(order[n_val:])


def train_probe(
    features: np.ndarray, labels: np.ndarray, cfg: ProbeConfig
) -> ProbeResult:
    """Train on a seeded split, keep the epoch with best validation accuracy."""
    _check_labels(labels, cfg.num_classes)
    val_idx, train_idx = probe_split(features.shape[0], cfg)
    x_train, y_train = features[train_idx], labels[train_idx]
    x_val, y_val = features[val_idx], labels[val_idx]

    probe = init_probe(cfg.num_classes, features.shape[1], cfg.seed)

    def val_accuracy(p: np.ndarray) -> float:
        scores = probe_scores(p, x_val, cfg.num_classes)
        return float(np.mean(scores.argmax(axis=1) == y_val))

    best_probe = probe.copy()
    best_acc = val_accuracy(probe)
    # A schedule of 0 epochs cannot hold its warmup; the initial probe stands.
    if cfg.epochs == 0:
        return ProbeResult(best_probe, best_acc, val_idx, train_idx)
    opt = OptimizerConfig(cfg.eta_max, cfg.eta_min, cfg.warmup_rounds, cfg.epochs)
    for epoch in range(cfg.epochs):
        eta = lr_schedule(epoch, opt)
        _, grad = batch_probe_loss_and_grad(probe, x_train, y_train, cfg.num_classes)
        probe = probe - eta * grad
        acc = val_accuracy(probe)
        if acc > best_acc:
            best_acc = acc
            best_probe = probe.copy()
    return ProbeResult(best_probe, best_acc, val_idx, train_idx)
