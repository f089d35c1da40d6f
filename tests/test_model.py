"""Reference autoencoder: gradients, schedule, embeddings, probe head."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmim import synth
from fedmim.corrupt import CorruptionConfig
from fedmim.errors import BadLabel, EmptyVisibleSet
from fedmim.fed import FederationConfig, run_pretraining
from fedmim.finetune import batch_probe_loss_and_grad
from fedmim.model import (
    ModelConfig,
    OptimizerConfig,
    batch_loss_and_grad,
    encode_features,
    init_params,
    init_probe,
    lr_schedule,
    positional_embeddings,
    prepare_batch,
    probe_probabilities,
    unpack_params,
)
from fedmim.pipeline import PatchSpec, build_clients
from fedmim.rng import Rng

from conftest import explicit_sample, random_sample
from oracles import dense_loss_and_grad, finite_diff_grad, forward, loss_and_grad


def rel_err(analytic, numeric, floor=1e-3):
    """Componentwise |a - f| / max(|a|, |f|, floor).

    The floor keeps finite-difference round-off on near-zero components
    from dominating the comparison.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def small_cfg(seed=0):
    return ModelConfig(patch_dim=4, embed_dim=3, num_patches=4, seed=seed)


def test_param_count():
    cfg = small_cfg()
    # E*N + E + N*2E + N = 12 + 3 + 24 + 4
    assert cfg.param_count == 43
    assert init_params(cfg).size == 43


def test_init_params_distribution():
    cfg = ModelConfig(patch_dim=16, embed_dim=8, num_patches=4, seed=3)
    params = init_params(cfg)
    w_e, b_e, w_d, b_d = unpack_params(params, cfg)
    bound = 1.0 / math.sqrt(16)
    for mat in (w_e, w_d):
        assert np.all(np.abs(mat) <= bound)
        assert np.std(mat) > 0.0
    np.testing.assert_array_equal(b_e, 0.0)
    np.testing.assert_array_equal(b_d, 0.0)
    np.testing.assert_array_equal(params, init_params(cfg))
    assert not np.array_equal(params, init_params(ModelConfig(16, 8, 4, seed=4)))


def test_positional_embeddings_values():
    table = positional_embeddings(4, 4)
    assert table.shape == (4, 4)
    # Even dims sin(pos * freq), odd dims cos; pos = 0 row is [0, 1, 0, 1].
    np.testing.assert_allclose(table[0], [0.0, 1.0, 0.0, 1.0], atol=1e-15)
    freq2 = 1.0 / 10000.0 ** (2.0 / 4.0)
    assert table[1, 0] == pytest.approx(math.sin(1.0))
    assert table[1, 2] == pytest.approx(math.sin(freq2))
    assert table[1, 3] == pytest.approx(math.cos(freq2))


def test_forward_requires_visible():
    cfg = small_cfg()
    sample = explicit_sample(cfg, np.zeros((4, 4)), masked=(0, 1, 2, 3), visible=())
    with pytest.raises(EmptyVisibleSet):
        batch_loss_and_grad(init_params(cfg), cfg, prepare_batch(cfg, [sample]))


def test_forward_order_invariance():
    cfg = small_cfg()
    params = init_params(cfg)
    patches = np.random.default_rng(0).uniform(0.0, 255.0, (4, 4))
    sample_a = explicit_sample(cfg, patches, masked=(2, 3), visible=(0, 1))
    sample_b = explicit_sample(cfg, patches, masked=(3, 2), visible=(1, 0))
    loss_a, grad_a = batch_loss_and_grad(params, cfg, prepare_batch(cfg, [sample_a]))
    loss_b, grad_b = batch_loss_and_grad(params, cfg, prepare_batch(cfg, [sample_b]))
    assert loss_a == pytest.approx(loss_b, rel=1e-12)
    np.testing.assert_allclose(grad_a, grad_b, atol=1e-12)


def test_analytic_gradient_matches_finite_differences():
    for seed in range(5):
        cfg = small_cfg(seed)
        sample = random_sample(cfg, Rng(100 + seed), 2, 2)
        params = init_params(cfg)
        _, grad = loss_and_grad(params, cfg, sample)
        fd = finite_diff_grad(lambda p: loss_and_grad(p, cfg, sample)[0], params)
        assert rel_err(grad, fd).max() < 1e-6


def test_batch_loss_is_mean_of_sample_losses():
    cfg = small_cfg()
    params = init_params(cfg)
    samples = [random_sample(cfg, Rng(i), 2, 2) for i in range(3)]
    batch = prepare_batch(cfg, samples)
    loss_b, grad_b = batch_loss_and_grad(params, cfg, batch)
    losses, grads = zip(*(loss_and_grad(params, cfg, s) for s in samples))
    assert loss_b == pytest.approx(np.mean(losses), abs=1e-12)
    np.testing.assert_allclose(grad_b, np.mean(grads, axis=0), atol=1e-12)


@given(
    n=st.integers(1, 4),
    n_vis=st.integers(1, 6),
    n_mask=st.integers(1, 6),
    patch_dim=st.integers(1, 12),
    embed_dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, n_vis=3, n_mask=4, patch_dim=6, embed_dim=3, seed=0)
@example(n=3, n_vis=1, n_mask=7, patch_dim=5, embed_dim=4, seed=1)  # M = L - 1
@settings(max_examples=60, deadline=None)
def test_stats_path_matches_dense_path(n, n_vis, n_mask, patch_dim, embed_dim, seed):
    cfg = ModelConfig(patch_dim, embed_dim, n_vis + n_mask, seed=0)
    gen = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        order = gen.permutation(cfg.num_patches)
        patches = gen.uniform(0.0, 255.0, (cfg.num_patches, patch_dim))
        samples.append(explicit_sample(cfg, patches, order[:n_mask], order[n_mask:]))
    params = gen.normal(0.0, 0.5, cfg.param_count)
    batch = prepare_batch(cfg, samples)
    loss_a, grad_a = batch_loss_and_grad(params, cfg, batch)
    loss_b, grad_b = dense_loss_and_grad(params, cfg, batch)
    assert abs(loss_a - loss_b) <= 1e-12 * loss_b
    assert np.abs(grad_a - grad_b).max() <= 1e-12 * np.abs(grad_b).max()
    # The loss is the mean squared error of the single-sample forward pass.
    sq_errs = []
    for grid, part in samples:
        pred = forward(params, cfg, grid.patches[list(part.visible)] / 255.0,
                       part.visible, part.masked)
        sq_errs.append(np.mean((pred - grid.patches[list(part.masked)] / 255.0) ** 2))
    assert loss_a == pytest.approx(np.mean(sq_errs), rel=1e-12)


def test_stats_loss_matches_residual_sum_after_training():
    # Near convergence the expanded loss subtracts terms much larger than
    # itself; check it against the direct residual sum where that matters.
    cfg = ModelConfig(patch_dim=64, embed_dim=32, num_patches=64, seed=7)
    dataset = synth.generate_dataset(512, (0.35, 0.35, 0.3), Rng(7), synth.PhantomSpec())
    clients = build_clients(
        dataset, 8, 0.5, cfg, CorruptionConfig(), PatchSpec(8, 8, 0.75), 7)
    fed_cfg = FederationConfig(8, 12, 48, OptimizerConfig(5e-4, 1e-6, 10, 200), seed=7)
    params, _ = run_pretraining(fed_cfg, cfg, clients, init_params(cfg))
    for client in clients:
        loss_a, grad_a = batch_loss_and_grad(params, cfg, client.batch)
        loss_b, grad_b = dense_loss_and_grad(params, cfg, client.batch)
        assert abs(loss_a - loss_b) <= 1e-10 * loss_b
        assert np.abs(grad_a - grad_b).max() <= 1e-10 * np.abs(grad_b).max()


def test_perfect_reconstruction_loss_zero():
    # Constant targets: with zero weights and b_d equal to the target the
    # prediction is exact, so the loss and its gradient both vanish except
    # for the trivially-zero residual path.
    cfg = small_cfg()
    params = np.zeros(cfg.param_count)
    _, _, _, b_d = unpack_params(params, cfg)
    b_d[:] = 0.5
    patches = np.full((4, 4), 0.5 * 255.0)
    sample = explicit_sample(cfg, patches, masked=(2, 3), visible=(0, 1))
    loss, grad = loss_and_grad(params, cfg, sample)
    assert loss == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_finite_diff_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda p: 0.0, np.zeros(3), epsilon=0.0)


def test_lr_schedule_shape():
    opt = OptimizerConfig(eta_max=5e-4, eta_min=1e-6, warmup_rounds=10, total_rounds=100)
    assert lr_schedule(0, opt) == 0.0
    assert lr_schedule(5, opt) == pytest.approx(2.5e-4)
    assert lr_schedule(10, opt) == pytest.approx(5e-4)
    assert lr_schedule(100, opt) == pytest.approx(1e-6)
    mid = lr_schedule(55, opt)
    assert mid == pytest.approx(1e-6 + 0.5 * (5e-4 - 1e-6))
    # Monotone non-increasing after warmup.
    etas = [lr_schedule(t, opt) for t in range(10, 101)]
    assert all(a >= b for a, b in zip(etas, etas[1:]))


def test_lr_schedule_no_warmup():
    opt = OptimizerConfig(eta_max=1e-3, eta_min=0.0, warmup_rounds=0, total_rounds=10)
    assert lr_schedule(0, opt) == pytest.approx(1e-3)


def test_lr_schedule_rejects_out_of_range():
    opt = OptimizerConfig(total_rounds=10, warmup_rounds=2)
    with pytest.raises(ValueError):
        lr_schedule(11, opt)
    with pytest.raises(ValueError):
        lr_schedule(-1, opt)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(eta_max=1e-4, eta_min=1e-3).validate()
    with pytest.raises(ValueError):
        OptimizerConfig(warmup_rounds=20, total_rounds=10).validate()


def test_encode_features_matches_manual():
    cfg = ModelConfig(patch_dim=4, embed_dim=3, num_patches=4, seed=2)
    params = init_params(cfg)
    img = np.random.default_rng(1).uniform(0.0, 255.0, (4, 4))
    feats = encode_features(params, cfg, img, 2, 2)
    w_e, b_e, _, _ = unpack_params(params, cfg)
    from fedmim.image import patchify

    grid = patchify(img, 2, 2)
    q = positional_embeddings(4, 3)
    manual = np.tanh(grid.patches / 255.0 @ w_e.T + b_e + q).mean(axis=0)
    np.testing.assert_allclose(feats, manual, atol=1e-14)
    assert feats.shape == (3,)


def test_encode_features_deterministic():
    cfg = ModelConfig(patch_dim=16, embed_dim=8, num_patches=16, seed=0)
    params = init_params(cfg)
    img = np.random.default_rng(2).uniform(0.0, 255.0, (16, 16))
    np.testing.assert_array_equal(
        encode_features(params, cfg, img, 4, 4),
        encode_features(params, cfg, img, 4, 4),
    )


def test_probe_probabilities_simplex():
    probe = init_probe(3, 5, seed=0)
    probs = probe_probabilities(probe, np.random.default_rng(0).normal(size=5), 3)
    assert probs.shape == (3,)
    assert np.all(probs > 0.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_probe_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for seed in range(5):
        probe = init_probe(3, 6, seed=seed)
        features = rng.normal(size=(1, 6))
        labels = np.array([seed % 3])
        _, grad = batch_probe_loss_and_grad(probe, features, labels, 3)
        fd = finite_diff_grad(
            lambda p: batch_probe_loss_and_grad(p, features, labels, 3)[0], probe
        )
        assert rel_err(grad, fd).max() < 1e-6


def test_probe_rejects_bad_label():
    probe = init_probe(2, 4, seed=0)
    for bad in (-1, 2):  # -1 would otherwise index the last class
        with pytest.raises(BadLabel, match=f"label {bad} "):
            batch_probe_loss_and_grad(probe, np.zeros((3, 4)), np.array([0, bad, 1]), 2)
