"""Linear-probe fine-tuning: features, batch gradient, training loop."""

import numpy as np
import pytest

from fedmim.errors import BadLabel, TooFewSamples
from fedmim.finetune import (
    ProbeConfig,
    batch_probe_loss_and_grad,
    extract_features,
    init_probe,
    probe_scores,
    train_probe,
)
from fedmim.model import ModelConfig, init_params

from oracles import finite_diff_grad, probe_loss_and_grad


def toy_features(n=40, dim=4, seed=0):
    """Linearly separable two-class blobs."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    centers = np.array([[-1.0] * dim, [1.0] * dim])
    features = centers[labels] + 0.3 * rng.normal(size=(n, dim))
    return features, labels


def test_extract_features_shape_and_determinism():
    cfg = ModelConfig(patch_dim=16, embed_dim=6, num_patches=16, seed=0)
    params = init_params(cfg)
    images = [np.random.default_rng(i).uniform(0, 255, (16, 16)) for i in range(3)]
    feats = extract_features(params, cfg, images, 4, 4)
    assert feats.shape == (3, 6)
    np.testing.assert_array_equal(feats, extract_features(params, cfg, images, 4, 4))
    # Each row is that image's features alone: batching does not mix rows.
    for img, row in zip(images, feats):
        np.testing.assert_allclose(
            extract_features(params, cfg, [img], 4, 4)[0], row, rtol=1e-14)


def test_batch_probe_grad_matches_per_sample_mean():
    features, labels = toy_features(12, 5, 1)
    probe = init_probe(2, 5, seed=0)
    loss_b, grad_b = batch_probe_loss_and_grad(probe, features, labels, 2)
    losses, grads = zip(
        *(probe_loss_and_grad(probe, f, int(y), 2) for f, y in zip(features, labels))
    )
    assert loss_b == pytest.approx(np.mean(losses), abs=1e-12)
    np.testing.assert_allclose(grad_b, np.mean(grads, axis=0), atol=1e-12)


def test_batch_probe_grad_matches_finite_differences():
    features, labels = toy_features(10, 4, 2)
    probe = init_probe(2, 4, seed=3)
    _, grad = batch_probe_loss_and_grad(probe, features, labels, 2)
    fd = finite_diff_grad(
        lambda p: batch_probe_loss_and_grad(p, features, labels, 2)[0], probe
    )
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-3)
    assert (np.abs(grad - fd) / denom).max() < 1e-6


def test_probe_scores_rows_are_distributions():
    features, _ = toy_features(8, 3, 4)
    for num_classes in (2, 3):
        probe = init_probe(num_classes, 3, seed=0)
        scores = probe_scores(probe, features, num_classes)
        assert scores.shape == (8, num_classes)
        assert np.all(scores > 0.0)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("kwargs, message", [
    ({"num_classes": 1}, "num_classes must be >= 2, got 1"),
    ({"epochs": -1}, "epochs must be >= 0, got -1"),
    ({"val_fraction": 0.0}, r"val_fraction must be in \(0, 1\), got 0.0"),
    ({"val_fraction": 1.0}, r"val_fraction must be in \(0, 1\), got 1.0"),
    ({"eta_min": -0.1}, "need 0 <= eta_min <= eta_max, got eta_min -0.1 and eta_max 0.5"),
    ({"eta_max": 1e-4}, "need 0 <= eta_min <= eta_max, got eta_min 0.001 and eta_max 0.0001"),
    ({"warmup_rounds": -1}, "need 0 <= warmup_rounds <= epochs, got warmup_rounds -1 and epochs 200"),
    ({"epochs": 9}, "need 0 <= warmup_rounds <= epochs, got warmup_rounds 10 and epochs 9"),
])
def test_probe_config_rejects_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProbeConfig(**kwargs)


def test_probe_config_zero_epochs_needs_no_warmup_room():
    assert ProbeConfig(epochs=0, warmup_rounds=10).epochs == 0


def test_train_probe_zero_epochs_returns_init():
    features, labels = toy_features()
    cfg = ProbeConfig(num_classes=2, epochs=0, seed=5)
    result = train_probe(features, labels, cfg)
    np.testing.assert_array_equal(
        result.probe_params, init_probe(2, features.shape[1], 5)
    )


def test_train_probe_learns_separable_data():
    features, labels = toy_features(60, 4, 6)
    result = train_probe(features, labels, ProbeConfig(num_classes=2, seed=0))
    assert result.val_accuracy >= 0.9


def test_train_probe_deterministic():
    features, labels = toy_features()
    a = train_probe(features, labels, ProbeConfig(num_classes=2, seed=1))
    b = train_probe(features, labels, ProbeConfig(num_classes=2, seed=1))
    np.testing.assert_array_equal(a.probe_params, b.probe_params)
    np.testing.assert_array_equal(a.val_indices, b.val_indices)
    assert a.val_accuracy == b.val_accuracy


def test_train_probe_split_is_disjoint_cover():
    features, labels = toy_features(25)
    result = train_probe(features, labels, ProbeConfig(num_classes=2, seed=2))
    merged = sorted(list(result.val_indices) + list(result.train_indices))
    assert merged == list(range(25))
    assert len(result.val_indices) == 5  # 20% of 25


def test_train_probe_rejects_tiny_dataset():
    features, labels = toy_features(2)
    with pytest.raises(TooFewSamples):
        train_probe(features, labels, ProbeConfig(num_classes=2, val_fraction=0.2))


def test_train_probe_rejects_bad_label_in_either_split():
    features, labels = toy_features()
    split = train_probe(features, labels, ProbeConfig(num_classes=2, epochs=0, seed=3))
    for where in (split.val_indices[0], split.train_indices[0]):
        for epochs in (0, 3):
            bad = labels.copy()
            bad[where] = 2
            with pytest.raises(BadLabel, match="label 2 "):
                train_probe(features, bad, ProbeConfig(num_classes=2, epochs=epochs,
                                                       warmup_rounds=1, seed=3))
