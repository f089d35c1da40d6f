"""Linear-probe fine-tuning on a frozen encoder: feature extraction,
seeded train/validation split, full-batch gradient descent with the
warmup+cosine schedule, best-validation-accuracy checkpointing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadLabel, TooFewSamples
from .model import (
    ModelConfig,
    OptimizerConfig,
    encode_features,
    init_probe,
    lr_schedule,
    probe_probabilities,
    unpack_probe,
)
from .rng import Rng


@dataclass(frozen=True)
class ProbeConfig:
    """Probe uses the same schedule shape as pre-training but gradient
    descent on the convex probe objective tolerates a much larger step."""

    num_classes: int = 2
    epochs: int = 200
    val_fraction: float = 0.2
    opt: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(
            eta_max=0.5, eta_min=1e-3, warmup_rounds=10, total_rounds=200
        )
    )
    seed: int = 0


def extract_features(
    params: np.ndarray,
    model_cfg: ModelConfig,
    images: list[np.ndarray],
    patch_h: int,
    patch_w: int,
) -> np.ndarray:
    return np.stack(
        [encode_features(params, model_cfg, img, patch_h, patch_w) for img in images]
    )


def batch_probe_loss_and_grad(
    probe_params: np.ndarray, features: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch with its exact gradient."""
    out_of_range = (labels < 0) | (labels >= num_classes)
    if out_of_range.any():
        raise BadLabel(f"label {labels[out_of_range][0]} outside [0, {num_classes})")
    n, embed_dim = features.shape
    w_c, b_c = unpack_probe(probe_params, num_classes, embed_dim)
    logits = features @ w_c.T + b_c
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    d_w = d_logits.T @ features
    return loss, np.concatenate([d_w.ravel(), d_logits.sum(axis=0)])


def probe_scores(
    probe_params: np.ndarray, features: np.ndarray, num_classes: int
) -> np.ndarray:
    """Per-sample class probability matrix, shape (n, C)."""
    return np.stack(
        [probe_probabilities(probe_params, f, num_classes) for f in features]
    )


@dataclass(frozen=True)
class ProbeResult:
    probe_params: np.ndarray
    val_accuracy: float
    val_indices: np.ndarray
    train_indices: np.ndarray


def train_probe(
    features: np.ndarray, labels: np.ndarray, cfg: ProbeConfig
) -> ProbeResult:
    """Train on a seeded split, keep the epoch with best validation accuracy."""
    n = features.shape[0]
    n_val = int(round(cfg.val_fraction * n))
    if n_val < 1 or n - n_val < 1:
        raise TooFewSamples(f"cannot split {n} samples {1 - cfg.val_fraction:.0%}/{cfg.val_fraction:.0%}")
    order = list(range(n))
    Rng(cfg.seed).shuffle(order)
    val_idx = np.array(order[:n_val])
    train_idx = np.array(order[n_val:])
    x_train, y_train = features[train_idx], labels[train_idx]
    x_val, y_val = features[val_idx], labels[val_idx]

    probe = init_probe(cfg.num_classes, features.shape[1], cfg.seed)
    opt = OptimizerConfig(
        eta_max=cfg.opt.eta_max,
        eta_min=cfg.opt.eta_min,
        warmup_rounds=cfg.opt.warmup_rounds,
        total_rounds=cfg.epochs,
    )

    def val_accuracy(p: np.ndarray) -> float:
        scores = probe_scores(p, x_val, cfg.num_classes)
        return float(np.mean(scores.argmax(axis=1) == y_val))

    best_probe = probe.copy()
    best_acc = val_accuracy(probe)
    for epoch in range(cfg.epochs):
        eta = lr_schedule(epoch, opt)
        _, grad = batch_probe_loss_and_grad(probe, x_train, y_train, cfg.num_classes)
        probe = probe - eta * grad
        acc = val_accuracy(probe)
        if acc > best_acc:
            best_acc = acc
            best_probe = probe.copy()
    return ProbeResult(best_probe, best_acc, val_idx, train_idx)
