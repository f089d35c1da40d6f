"""Reference autoencoder: gradients, schedule, embeddings, features."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmim import pipeline, synth
from fedmim.cli import _model_config, load_config
from fedmim.corrupt import CorruptionConfig, apply_corruption, draw_corruptions
from fedmim.errors import FedmimError
from fedmim.fed import FederationConfig, make_client, run_pretraining
from fedmim.image import patchify
from fedmim.model import (
    ModelConfig,
    OptimizerConfig,
    batch_loss_and_grad,
    encode_features,
    init_params,
    lr_schedule,
    positional_embeddings,
    prepare_batch,
    stack_batches,
    unpack_params,
)
from fedmim.pipeline import PatchSpec, build_clients
from fedmim.rng import Rng
from fedmim.tgm import partition_image

from conftest import explicit_sample, random_sample
from invariance import snippet
from oracles import (activation, dense_loss, dense_loss_and_grad, dense_rows,
                     finite_diff_grad, loss_and_grad, sample_major_loss_and_grad)
from oracles import init_params as scalar_init_params


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


DEFAULT_MODEL = _model_config(load_config(None))


@pytest.mark.parametrize("cfg", [
    DEFAULT_MODEL,
    ModelConfig(patch_dim=1, embed_dim=1, num_patches=1, seed=0),
    ModelConfig(patch_dim=64, embed_dim=32, num_patches=64, seed=7),
    ModelConfig(patch_dim=64, embed_dim=32, num_patches=64, seed=2**64 - 3),
], ids=["default", "n1-e1", "seed-7", "seed-max"])
def test_init_params_is_the_scalar_draws(cfg):
    assert init_params(cfg).tobytes() == scalar_init_params(cfg).tobytes()


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
    sample = explicit_sample(cfg, np.zeros((4, 4)), masked=(0, 1, 2, 3))
    with pytest.raises(FedmimError, match="^need at least one visible patch$"):
        batch_loss_and_grad(init_params(cfg), cfg, prepare_batch(cfg, [sample]))


def test_loss_invariant_to_sample_order():
    cfg = small_cfg()
    params = init_params(cfg)
    samples = [random_sample(cfg, Rng(i)) for i in range(5)]
    loss_a, grad_a = batch_loss_and_grad(params, cfg, prepare_batch(cfg, samples))
    shuffled = [samples[i] for i in (3, 0, 4, 2, 1)]
    loss_b, grad_b = batch_loss_and_grad(params, cfg, prepare_batch(cfg, shuffled))
    assert abs(loss_a - loss_b) <= 1e-12 * loss_a
    np.testing.assert_allclose(grad_a, grad_b, atol=1e-12)


# Batches that prepare_batch must reject, built from one sample (p, m) of
# small_cfg, whose mask masks 2 of its 4 patches, each with its message.
BAD_SAMPLES = {
    "mask-length": (lambda p, m: [(p, m[:3])],
                    r"^samples must be .* got \(4, 4\) and \(3,\) bool$"),
    "mask-lengths-differ": (lambda p, m: [(p, m), (p, m[:3])], "^samples do not stack: "),
    "patch-rows": (lambda p, m: [(p[:3], m)], r"^samples must be .* got \(3, 4\) and \(4,\) bool$"),
    "non-bool-mask": (lambda p, m: [(p, m.astype(np.int64))],
                      r"^samples must be .* got \(4, 4\) and \(4,\) int64$"),
    "masked-counts-differ": (lambda p, m: [(p, m), (p, np.arange(4) < 3)],
                             "^samples mask different numbers of patches$"),
}


@pytest.mark.parametrize("case", BAD_SAMPLES)
def test_prepare_batch_rejects_bad_samples(case):
    cfg = small_cfg()
    patches, mask = random_sample(cfg, Rng(0))
    build, message = BAD_SAMPLES[case]
    with pytest.raises(FedmimError, match=message):
        prepare_batch(cfg, build(patches, mask))


def test_build_clients_rejects_a_mask_of_no_patch():
    # 0.005 of 64 patches rounds to no masked patch; the loss divides by
    # the masked count.
    cfg = ModelConfig(patch_dim=64, embed_dim=8, num_patches=64, seed=7)
    dataset = synth.generate_dataset(8, (0.5, 0.5, 0.0), Rng(3), synth.PhantomSpec())
    with pytest.raises(FedmimError, match="^samples mask no patch$"):
        build_clients(dataset, 2, 0.5, cfg, CorruptionConfig(), PatchSpec(8, 8, 0.005), 7)


def test_analytic_gradient_matches_finite_differences():
    for seed in range(5):
        cfg = small_cfg(seed)
        sample = random_sample(cfg, Rng(100 + seed))
        params = init_params(cfg)
        _, grad = loss_and_grad(params, cfg, sample)
        fd = finite_diff_grad(lambda p: loss_and_grad(p, cfg, sample)[0], params)
        assert rel_err(grad, fd).max() < 1e-6


def test_batch_loss_is_mean_of_sample_losses():
    cfg = small_cfg()
    params = init_params(cfg)
    samples = [random_sample(cfg, Rng(i)) for i in range(3)]
    batch = prepare_batch(cfg, samples)
    loss_b, grad_b = batch_loss_and_grad(params, cfg, batch)
    losses, grads = zip(*(loss_and_grad(params, cfg, s) for s in samples))
    assert loss_b == pytest.approx(np.mean(losses), abs=1e-12)
    np.testing.assert_allclose(grad_b, np.mean(grads, axis=0), atol=1e-12)


def test_stacked_batches_match_one_batch_of_all_samples():
    # Each sample is centred on its own masked-row mean, so the parts'
    # centred sums add up to the union's.
    cfg = small_cfg()
    params = init_params(cfg)
    samples = [random_sample(cfg, Rng(i)) for i in range(6)]
    parts = [prepare_batch(cfg, samples[a:b]) for a, b in ((0, 3), (3, 4), (4, 6))]
    stacked = stack_batches(parts)
    assert stacked.size == 6 and stacked.n_mask == 2 and stacked.targets is None
    loss_a, grad_a = batch_loss_and_grad(params, cfg, stacked)
    loss_b, grad_b = batch_loss_and_grad(params, cfg, prepare_batch(cfg, samples))
    assert abs(loss_a - loss_b) <= 1e-12 * loss_b
    assert np.abs(grad_a - grad_b).max() <= 1e-12 * np.abs(grad_b).max()
    other = explicit_sample(cfg, np.zeros((4, 4)), masked=(0, 1, 2))
    with pytest.raises(FedmimError, match="visible or masked patch counts"):
        stack_batches([parts[0], prepare_batch(cfg, [other])])


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
# Loss 5.6e-7: uncentred sums cancel to a 2.2e-12 relative error here.
@example(n=1, n_vis=4, n_mask=1, patch_dim=1, embed_dim=4, seed=4)
@settings(max_examples=60, deadline=None)
def test_stats_path_matches_dense_path(n, n_vis, n_mask, patch_dim, embed_dim, seed):
    cfg = ModelConfig(patch_dim, embed_dim, n_vis + n_mask, seed=0)
    gen = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        order = gen.permutation(cfg.num_patches)
        patches = gen.uniform(0.0, 255.0, (cfg.num_patches, patch_dim))
        samples.append(explicit_sample(cfg, patches, order[:n_mask]))
    params = gen.normal(0.0, 0.5, cfg.param_count)
    batch = prepare_batch(cfg, samples)
    loss_a, grad_a = batch_loss_and_grad(params, cfg, batch)
    loss_b, grad_b = dense_loss_and_grad(params, cfg, dense_rows(cfg, samples))
    assert abs(loss_a - loss_b) <= 1e-12 * loss_b
    assert np.abs(grad_a - grad_b).max() <= 1e-12 * np.abs(grad_b).max()
    # The loss is the mean of the single-sample losses.
    single = [dense_loss(params, cfg, dense_rows(cfg, [sample])) for sample in samples]
    assert loss_a == pytest.approx(np.mean(single), rel=1e-12)


@given(
    n=st.integers(1, 600),
    n_vis=st.integers(1, 6),
    n_mask=st.integers(1, 6),
    patch_dim=st.integers(1, 12),
    embed_dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, n_vis=3, n_mask=4, patch_dim=6, embed_dim=3, seed=0)
@example(n=1, n_vis=1, n_mask=1, patch_dim=1, embed_dim=1, seed=1)
@example(n=257, n_vis=2, n_mask=3, patch_dim=5, embed_dim=4, seed=2)  # two pieces
@example(n=600, n_vis=6, n_mask=2, patch_dim=12, embed_dim=8, seed=3)
@example(n=461, n_vis=3, n_mask=1, patch_dim=12, embed_dim=1, seed=101847)  # E = 1 rounding
@settings(max_examples=40, deadline=None)
def test_patch_major_step_matches_sample_major_oracle(n, n_vis, n_mask, patch_dim,
                                                      embed_dim, seed):
    # The patch-major step sums over samples in pieces, in a fixed order,
    # against the sample-major oracle. The forward pass is the same
    # arithmetic on reordered rows, so for E >= 2 the loss keeps its bytes.
    # At E = 1, numpy computes rows @ W_e^T with a matrix-vector kernel whose
    # rounding depends on each row's position, so reordering the rows can
    # move the loss in its last bits.
    cfg = ModelConfig(patch_dim, embed_dim, n_vis + n_mask, seed=0)
    gen = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        order = gen.permutation(cfg.num_patches)
        patches = gen.uniform(0.0, 255.0, (cfg.num_patches, patch_dim))
        samples.append(explicit_sample(cfg, patches, order[:n_mask]))
    params = gen.normal(0.0, 0.5, cfg.param_count)
    batch = prepare_batch(cfg, samples)
    loss_a, grad_a = batch_loss_and_grad(params, cfg, batch)
    loss_b, grad_b = sample_major_loss_and_grad(params, cfg, batch)
    if embed_dim >= 2:
        assert loss_a == loss_b
    else:
        assert abs(loss_a - loss_b) <= 1e-13 * loss_b
    assert np.abs(grad_a - grad_b).max() <= 1e-13 * np.abs(grad_b).max()


def test_prepared_rows_are_views_of_patch_major_arrays():
    cfg = small_cfg()
    samples = [random_sample(cfg, Rng(i)) for i in range(3)]
    batch = stack_batches([prepare_batch(cfg, samples[:2]), prepare_batch(cfg, samples[2:])])
    for rows in (batch.visible, batch.q_visible):
        assert rows.transpose(1, 0, 2).flags.c_contiguous
    for i, (patches, masked) in enumerate(samples):
        np.testing.assert_array_equal(batch.visible[i], patches[~masked] / 255.0)
        np.testing.assert_array_equal(batch.q_visible[i], positional_embeddings(4, 3)[~masked])


# Client sizes of the BLAS thread sweep: every size up to 160, and sizes
# around the 256-row pieces and the 490 samples where R^T ctx once split.
BLAS_SWEEP_SIZES = [*range(1, 161), 255, 256, 257, 489, 490, 512, 601]


def gradient_digests(sizes) -> list[str]:
    """sha256 of the loss and gradient of the default model at seed 7 on
    the first n samples of one fixed corrupted, masked dataset of 200
    phantoms (repeated past 200), for each n in sizes."""
    cfg = ModelConfig(patch_dim=64, embed_dim=32, num_patches=64, seed=7)
    dataset = synth.generate_dataset(200, (0.5, 0.5, 0.0), Rng(3), synth.PhantomSpec())
    corr = CorruptionConfig()
    plans = draw_corruptions([s.image.shape for s in dataset], corr,
                             [Rng(3).spawn(0, i) for i in range(len(dataset))])
    samples = [partition_image(apply_corruption(s.image, plan, corr), 8, 8, 0.75)
               for s, plan in zip(dataset, plans)]
    params = init_params(cfg)
    digests = []
    for n in sizes:
        batch = prepare_batch(cfg, [samples[i % len(samples)] for i in range(n)])
        loss, grad = batch_loss_and_grad(params, cfg, batch)
        digests.append(hashlib.sha256(np.float64(loss).tobytes() + grad.tobytes()).hexdigest())
    return digests


def test_gradient_bytes_independent_of_blas_threads():
    digests = snippet("from test_model import BLAS_SWEEP_SIZES, gradient_digests; "
                      "print(*gradient_digests(BLAS_SWEEP_SIZES))", ("baseline", "blas2"))
    one, two = digests["baseline"].split(), digests["blas2"].split()
    assert len(one) == len(BLAS_SWEEP_SIZES)
    assert [n for n, a, b in zip(BLAS_SWEEP_SIZES, one, two) if a != b] == []


TABLES_DIGEST = """import hashlib
from fedmim.corrupt import gaussian_weights
from fedmim.model import positional_embeddings
h = hashlib.sha256()
for i in range(201):
    h.update(gaussian_weights(0.5 + 0.01 * i).tobytes())
for shape in [(1, 1), (16, 8), (64, 32), (256, 64)]:
    h.update(positional_embeddings(*shape).tobytes())
print(h.hexdigest())"""


def test_small_tables_independent_of_simd_dispatch():
    # The Gaussian taps and the embedding frequencies come from math's
    # scalar exp and pow; numpy's exp and power round by the SIMD target.
    digests = snippet(TABLES_DIGEST, ("baseline", "no_x86_v4", "no_x86_v3"))
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("args", [(0, 8, 0.75), (8, -1, 0.75)])
def test_patch_spec_rejects_out_of_range(args):
    with pytest.raises(ValueError):
        PatchSpec(*args)


def test_stats_loss_matches_residual_sum_after_training(monkeypatch):
    # Near convergence the expanded loss subtracts terms much larger than
    # itself; check it against the direct residual sum where that matters.
    cfg = ModelConfig(patch_dim=64, embed_dim=32, num_patches=64, seed=7)
    dataset = synth.generate_dataset(512, (0.35, 0.35, 0.3), Rng(7), synth.PhantomSpec())
    samples = []

    def recording_make_client(cid, model_cfg, prepared):
        samples.append(prepared)
        return make_client(cid, model_cfg, prepared)

    monkeypatch.setattr(pipeline, "make_client", recording_make_client)
    clients = build_clients(
        dataset, 8, 0.5, cfg, CorruptionConfig(), PatchSpec(8, 8, 0.75), 7)
    fed_cfg = FederationConfig(8, 12, 48, OptimizerConfig(5e-4, 1e-6, 10, 200), seed=7)
    params, _ = run_pretraining(fed_cfg, cfg, clients, init_params(cfg))
    for client, prepared in zip(clients, samples, strict=True):
        loss_a, grad_a = batch_loss_and_grad(params, cfg, client.batch)
        loss_b, grad_b = dense_loss_and_grad(params, cfg, dense_rows(cfg, prepared))
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
    sample = explicit_sample(cfg, patches, masked=(2, 3))
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
    with pytest.raises(ValueError, match="^need 0 <= eta_min <= eta_max$"):
        OptimizerConfig(eta_max=1e-4, eta_min=1e-3)
    with pytest.raises(ValueError, match="^need 0 <= warmup_rounds <= total_rounds$"):
        OptimizerConfig(warmup_rounds=20, total_rounds=10)
    with pytest.raises(ValueError, match="^patch_dim, embed_dim, num_patches must all be >= 1$"):
        ModelConfig(patch_dim=4, embed_dim=0, num_patches=4, seed=0)


def test_encode_features_matches_manual():
    cfg = ModelConfig(patch_dim=4, embed_dim=3, num_patches=4, seed=2)
    params = init_params(cfg)
    imgs = np.random.default_rng(1).uniform(0.0, 255.0, (2, 4, 4))
    patches = np.stack([patchify(img, 2, 2) for img in imgs])
    feats = encode_features(params, cfg, patches)
    assert feats.shape == (2, 3)
    w_e, b_e, _, _ = unpack_params(params, cfg)
    q = positional_embeddings(4, 3)
    for feat, img_patches in zip(feats, patches):
        manual = activation(img_patches / 255.0 @ w_e.T + b_e + q).mean(axis=0)
        np.testing.assert_allclose(feat, manual, atol=1e-14)
    with pytest.raises(FedmimError, match="^patches do not match model config$"):
        encode_features(params, cfg, patches[:, :3])
