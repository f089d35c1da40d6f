"""End-to-end acceptance gate: ten numbered criteria, one pass/fail line
each (echoed in the pytest terminal summary).

The slow criteria (4, 5) run scaled-down but real federated pre-training
on the synthetic phantom corpus; expect a few minutes total.
"""

import math
import time
from pathlib import Path

import numpy as np

from fedmim import fed, metrics, model, smat, synth
from fedmim.cli import EXIT_OK, main as cli_main
from fedmim.corrupt import (
    CorruptionConfig,
    gaussian_weights,
    motion_blur_kernel,
    salt_pepper,
)
from fedmim.finetune import batch_probe_loss_and_grad, init_probe
from fedmim.image import convolve2d
from fedmim.model import (
    ModelConfig,
    OptimizerConfig,
    batch_loss_and_grad,
    init_params,
    prepare_batch,
)
from fedmim.pipeline import PatchSpec
from fedmim.rng import Rng
from fedmim.tgm import apply_uim, round_half_up, select_mask

from conftest import random_sample, record_criterion, stack_samples
from invariance import Case
from oracles import (dense_loss, dense_rows, finite_diff_grad, gaussian_kernel, points_mask,
                     sector_exterior)

REPO = Path(__file__).resolve().parents[1]


def rel_err(analytic, numeric, floor=1e-3):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)
    sizes = [(4, 3), (64, 32)] + [
        (int(rng.integers(4, 65)), int(rng.integers(3, 33))) for _ in range(18)
    ]
    worst = 0.0
    for i, (n, e) in enumerate(sizes):
        cfg = ModelConfig(patch_dim=n, embed_dim=e, num_patches=4, seed=i)
        sample = random_sample(cfg, Rng(1000 + i))
        params = init_params(cfg)
        _, grad = batch_loss_and_grad(params, cfg, prepare_batch(cfg, *stack_samples([sample])))
        rows = dense_rows(cfg, [sample])
        fd = finite_diff_grad(lambda p: dense_loss(p, cfg, rows), params)
        worst = max(worst, float(rel_err(grad, fd).max()))
        # Probe head gradient on a matching embedding size, one-sample batch.
        probe = init_probe(2, e, seed=i)
        feature = rng.normal(size=(1, e))
        label = np.array([i % 2])
        _, pgrad = batch_probe_loss_and_grad(probe, feature, label, 2)
        pfd = finite_diff_grad(
            lambda p: batch_probe_loss_and_grad(p, feature, label, 2)[0], probe
        )
        worst = max(worst, float(rel_err(pgrad, pfd).max()))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    record_criterion(
        1, ok,
        f"analytic vs finite-diff over {len(sizes)} configs: "
        f"max rel err {worst:.2e} (< 1e-6), {elapsed:.1f}s (< 5s)",
    )


def test_criterion_2_fedavg_centralized_equivalence():
    t0 = time.time()
    base = synth.PhantomSpec(width=32, height=32)
    dataset = synth.generate_dataset(16, (0.5, 0.5, 0.0), Rng(3), base)
    model_cfg = ModelConfig(patch_dim=64, embed_dim=8, num_patches=16, seed=3)
    patch = PatchSpec(8, 8, 0.75)
    corr = CorruptionConfig(p=0.0)
    worst = 0.0
    for k in (2, 4):
        # Every client holds an identical copy of the full dataset.
        clients = [
            fed.make_client(
                cid,
                model_cfg,
                *stack_samples([
                    apply_uim(s.image, corr, 8, 8, 0.75, Rng(0).spawn(0, i))
                    for i, s in enumerate(dataset)
                ]),
            )
            for cid in range(k)
        ]
        opt = OptimizerConfig(5e-4, 1e-6, 5, 50)
        fed_params = init_params(model_cfg)
        central = fed_params.copy()
        central_batch = clients[0].batch
        for t in range(50):
            eta = model.lr_schedule(t, opt)
            results = [
                (fed.local_update(fed_params, c, model_cfg, 1, eta)[0], c.num_samples)
                for c in clients
            ]
            fed_params = fed.aggregate(results)
            _, grad = batch_loss_and_grad(central, model_cfg, central_batch)
            central = central - eta * grad
            worst = max(worst, float(np.abs(fed_params - central).max()))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    record_criterion(
        2, ok,
        f"K in {{2,4}} identical clients vs centralized GD, 50 rounds: "
        f"max |Δparam| {worst:.2e} (< 1e-9), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_weighted_aggregation_exactness():
    rng = np.random.default_rng(7)
    worst_vec = 0.0
    worst_weight = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 10))
        dim = int(rng.integers(1, 50))
        results = [
            (rng.normal(size=dim) * 100.0, int(rng.integers(1, 1000)))
            for _ in range(k)
        ]
        out = fed.aggregate(results)
        total = sum(n for _, n in results)
        weights = [n / total for _, n in results]
        worst_weight = max(worst_weight, abs(sum(weights) - 1.0))
        oracle = np.zeros(dim)
        for (vec, _), w in zip(results, weights):
            oracle += w * vec
        worst_vec = max(worst_vec, float(np.abs(out - oracle).max()))
    ok = worst_vec < 1e-12 and worst_weight < 1e-12
    record_criterion(
        3, ok,
        f"100 random draws vs two-pass oracle: max |Δ| {worst_vec:.2e} "
        f"(< 1e-12), weight-sum err {worst_weight:.2e} (< 1e-12)",
    )


def test_criterion_4_pretraining_descent(tmp_path):
    # The README's reference descent run, as documented.
    t0 = time.time()
    out = tmp_path / "pretrain"
    code = cli_main(["--config", str(REPO / "scripts" / "pretrain_experiment.json"),
                     "--seed", "7", "--out", str(out), "pretrain"])
    elapsed = time.time() - t0
    rows = (out / "loss_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in rows]
    l0, lT = losses[0], losses[-1]
    ratio = lT / l0
    worst_rise = max(
        losses[i + 1] - losses[i] for i in range(10, len(losses) - 1)
    )
    ok = (code == EXIT_OK and ratio < 0.30 and worst_rise < 1e-4
          and elapsed < 300.0)
    record_criterion(
        4, ok,
        f"512 phantoms, 8 clients, 200 rounds: loss {l0:.4f} -> {lT:.4f}, "
        f"ratio {ratio:.3f} (< 0.30), worst post-warmup rise {worst_rise:.1e} "
        f"(< 1e-4), {elapsed:.0f}s (< 300s)",
    )


def test_criterion_5_pretraining_transfers(monkeypatch):
    # The protocol of scripts/transfer_experiment.py, at its defaults.
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    from transfer_experiment import transfer_aurocs

    t0 = time.time()
    aucs_pre, aucs_rand = transfer_aurocs(seed=7, rounds=300)
    mean_pre = float(np.mean(aucs_pre))
    mean_rand = float(np.mean(aucs_rand))
    gap = mean_pre - mean_rand
    p_value = metrics.t_test(aucs_pre, aucs_rand)
    elapsed = time.time() - t0
    ok = mean_pre >= 0.85 and gap >= 0.05 and p_value < 0.05 and elapsed < 600.0
    record_criterion(
        5, ok,
        f"probe AUROC pretrained {mean_pre:.3f} (>= 0.85) vs random "
        f"{mean_rand:.3f}, gap {gap:.3f} (>= 0.05), t-test p {p_value:.2e} "
        f"(< 0.05), {elapsed:.0f}s (< 600s)",
    )


def test_criterion_6_smat_round_trip():
    rng = np.random.default_rng(11)
    worst_mae = 0.0
    exterior_clean = True
    outside = sector_exterior(128, 128)
    for _ in range(20):
        img = convolve2d(rng.uniform(0.0, 1.0, (128, 128)), gaussian_kernel(2.0))
        convex = smat.linear_to_convex(img)
        exterior_clean &= bool(np.all(convex[outside] == 0.0))
        back = smat.convex_to_linear(convex)
        err = np.abs(back[6:-6, 6:-6] - img[6:-6, 6:-6])
        worst_mae = max(worst_mae, float(err.mean()))
    ok = worst_mae < 5.0 / 255.0 and exterior_clean
    record_criterion(
        6, ok,
        f"20 blurred 128x128 round trips: worst interior MAE {worst_mae:.5f} "
        f"(< {5/255:.5f}), exterior exactly 0: {exterior_clean}",
    )


def test_criterion_7_tgm_exactness():
    rng = np.random.default_rng(13)
    all_match = True
    counts_ok = True
    for _ in range(1000):
        ell = int(rng.integers(2, 257))
        scores = rng.normal(size=ell)
        if rng.random() < 0.3:  # exercise ties
            scores = np.round(scores)
        mask = select_mask(scores, 0.75)
        n_masked = round_half_up(0.75 * ell)
        order = sorted(range(ell), key=lambda i: (-scores[i], i))
        all_match &= np.flatnonzero(mask).tolist() == sorted(order[:n_masked])
        all_match &= np.flatnonzero(~mask).tolist() == sorted(order[n_masked:])
        counts_ok &= int(mask.sum()) == n_masked
    ok = all_match and counts_ok
    record_criterion(
        7, ok,
        f"select_mask vs sort oracle on 1000 vectors (L <= 256): "
        f"partitions match {all_match}, counts = round_half_up(0.75 L) {counts_ok}",
    )


def test_criterion_8_corruption_kernels():
    worst_sum = 0.0
    for d in (1, 3, 5, 7, 9):
        for phi in np.linspace(0.0, math.pi, 9):
            worst_sum = max(worst_sum, abs(motion_blur_kernel(d, float(phi)).sum() - 1.0))
    for sigma in (0.5, 1.0, 1.7, 2.5):
        w = gaussian_weights(sigma)
        worst_sum = max(worst_sum, abs(w.sum() - 1.0), abs(np.outer(w, w).sum() - 1.0))
    identity_exact = all(
        np.array_equal(motion_blur_kernel(d, 0.0), np.eye(d) / d) for d in (1, 3, 5, 7)
    )
    img = np.full((100, 100), 128.0)
    bound = 3.0 * math.sqrt(10000 * 0.1 * 0.9)
    sp_ok = True
    for seed in range(10):
        out = salt_pepper(img, 0.1, 0.1, Rng(seed))
        sp_ok &= abs(int((out == 0.0).sum()) - 1000) < bound
        sp_ok &= abs(int((out == 255.0).sum()) - 1000) < bound
    ok = worst_sum < 1e-12 and identity_exact and sp_ok
    record_criterion(
        8, ok,
        f"kernel sums off by {worst_sum:.2e} (< 1e-12), K(d,0) exact: "
        f"{identity_exact}, salt-pepper counts in 3-sigma over 10 seeds: {sp_ok}",
    )


def test_criterion_9_metrics_oracles():
    rng = np.random.default_rng(17)
    auroc_exact = True
    for _ in range(50):
        n = int(rng.integers(4, 201))
        scores = np.round(rng.normal(size=n) * 3.0) / 3.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        pairwise = (
            np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
        ) / (pos.size * neg.size)
        auroc_exact &= abs(metrics.auroc(scores, labels) - pairwise) < 1e-12

    examples_ok = (
        metrics.dsc(points_mask({(0, 0), (1, 1)}, (2, 2)),
                    points_mask({(0, 0), (1, 1)}, (2, 2))) == 1.0
        and metrics.dsc(points_mask({(0, 0)}, (2, 2)),
                        points_mask({(1, 1)}, (2, 2))) == 0.0
        and metrics.hausdorff(points_mask({(0, 0), (10, 0)}, (1, 11)),
                              points_mask({(0, 0)}, (1, 11))) == 10.0
        and metrics.mae([0.0, 2.0], [1.0, 1.0]) == 1.0
    )

    ps = np.zeros((128, 128))
    ps[50, 10:31] = 1.0
    ys, xs = np.mgrid[0:128, 0:128].astype(np.float64)
    fh = ((xs - 60.0) ** 2 + (ys - 70.0) ** 2 <= 100.0).astype(np.float64)
    aop_val = metrics.aop(ps, fh)
    aop_ok = abs(aop_val - 49.79) < 1.5

    mean, half = metrics.ci95([1.0, 2.0, 3.0, 4.0, 5.0])
    ci_ok = abs(mean - 3.0) < 1e-12 and abs(half - 1.3859) < 1e-4

    ok = auroc_exact and examples_ok and aop_ok and ci_ok
    record_criterion(
        9, ok,
        f"AUROC pairwise-exact on 50 instances: {auroc_exact}, "
        f"DSC/HD/MAE examples: {examples_ok}, AoP {aop_val:.2f} deg "
        f"(49.79 +/- 1.5), ci95 half-width ok: {ci_ok}",
    )


def test_criterion_10_cli_determinism(invariance):
    cfg = {
        "version": 1,
        "synth": {"n": 48, "width": 32, "height": 32},
        "model": {"embed_dim": 8},
        "federation": {"num_clients": 4, "total_rounds": 6, "local_steps": 2},
        "optimizer": {"warmup_rounds": 2},
    }
    outs = [
        invariance.run(Case((("--config", "cfg.json", "--seed", "21", "--threads", threads,
                              "--out", "run", "pretrain"),), {"cfg.json": cfg}),
                       perturbation) / "run"
        for threads, perturbation in (("1", "baseline"), ("8", "blas2"))
    ]
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("loss_trace.csv", "checkpoint.params", "checkpoint.json")
    )
    record_criterion(
        10, identical,
        f"cmd_pretrain --threads 1 at 1 OpenBLAS thread vs --threads 8 at 2, "
        f"fresh processes: byte-identical trace and checkpoint: {identical}",
    )
