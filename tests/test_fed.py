"""Federated engine: local updates, aggregation, orchestration, checkpoints."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmim import fed
from fedmim.errors import FedmimError, NonFiniteLoss
from fedmim.fed import (
    Checkpoint,
    ClientState,
    FederationConfig,
    aggregate,
    global_loss,
    load_checkpoint,
    local_update,
    make_client,
    run_pretraining,
    save_checkpoint,
)
from fedmim.model import (
    ModelConfig,
    OptimizerConfig,
    batch_loss_and_grad,
    init_params,
    lr_schedule,
    prepare_batch,
)
from fedmim.rng import Rng

from conftest import random_sample


def small_cfg(seed=0):
    return ModelConfig(patch_dim=4, embed_dim=3, num_patches=4, seed=seed)


def build_client(cid, cfg, n_samples, seed):
    samples = [random_sample(cfg, Rng(seed + i)) for i in range(n_samples)]
    return make_client(cid, cfg, samples)


def test_make_client_rejects_empty():
    with pytest.raises(ValueError):
        make_client(0, small_cfg(), [])


def test_local_update_zero_eta_is_identity():
    cfg = small_cfg()
    client = build_client(0, cfg, 3, 10)
    params = init_params(cfg)
    out, loss = local_update(params, client, cfg, steps=5, eta=0.0)
    np.testing.assert_array_equal(out, params)
    assert loss == batch_loss_and_grad(params, cfg, client.batch)[0]


def test_local_update_descends():
    cfg = small_cfg()
    client = build_client(0, cfg, 4, 20)
    params = init_params(cfg)
    eta = 1e-3
    before, _ = batch_loss_and_grad(params, cfg, client.batch)
    for _ in range(4):  # retry with a smaller step if needed
        after, _ = batch_loss_and_grad(
            local_update(params, client, cfg, 5, eta)[0], cfg, client.batch
        )
        if after <= before:
            break
        eta /= 10.0
    assert after <= before


def test_aggregate_single_client_identity():
    vec = np.arange(5.0)
    np.testing.assert_allclose(aggregate([(vec, 7)]), vec, atol=1e-15)


def test_aggregate_weighted_mean():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    out = aggregate([(a, 1), (b, 3)])
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)


@given(
    st.integers(2, 8),
    st.integers(1, 30),
    st.integers(0, 2**31),
)
@settings(max_examples=100)
def test_aggregate_matches_two_pass_oracle(k, dim, seed):
    rng = np.random.default_rng(seed)
    results = [(rng.normal(size=dim) * 10.0, int(rng.integers(1, 100))) for _ in range(k)]
    out = aggregate(results)
    total = sum(n for _, n in results)
    weights = [n / total for _, n in results]
    assert abs(sum(weights) - 1.0) < 1e-12
    oracle = np.zeros(dim)
    for (vec, _), w in zip(results, weights):
        oracle += w * vec
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_aggregate_floats_like_vectors():
    # Losses take the same n_k / n weights, in list order, as parameters.
    assert aggregate([(0.1, 3), (0.7, 5)]) == 3 / 8 * 0.1 + 5 / 8 * 0.7
    assert aggregate([(0.1, 60)]) == 0.1  # one client: weight exactly 1
    assert aggregate([(0.1, 3), (0.7, 5)]) == \
        aggregate([(np.array([0.1]), 3), (np.array([0.7]), 5)])[0]


def test_aggregate_errors():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([(np.zeros(3), 0)])
    with pytest.raises(FedmimError, match="^aggregated values differ in shape$"):
        aggregate([(np.zeros(3), 1), (np.zeros(4), 1)])
    with pytest.raises(FedmimError, match="^aggregated values differ in shape$"):
        aggregate([(0.5, 1), (np.zeros(1), 1)])


def test_global_loss_single_client_single_sample():
    cfg = small_cfg()
    sample = random_sample(cfg, Rng(0))
    client = make_client(0, cfg, [sample])
    params = init_params(cfg)
    expected, _ = batch_loss_and_grad(params, cfg, prepare_batch(cfg, [sample]))
    assert global_loss(params, cfg, [client]) == pytest.approx(expected, abs=1e-15)


def test_global_loss_weighted_by_sample_count():
    cfg = small_cfg()
    c0 = build_client(0, cfg, 1, 0)
    c1 = build_client(1, cfg, 3, 50)
    params = init_params(cfg)
    l0, _ = batch_loss_and_grad(params, cfg, c0.batch)
    l1, _ = batch_loss_and_grad(params, cfg, c1.batch)
    expected = (1 * l0 + 3 * l1) / 4
    assert global_loss(params, cfg, [c1, c0]) == pytest.approx(expected, abs=1e-15)


def test_run_pretraining_zero_schedule_keeps_params():
    cfg = small_cfg()
    clients = [build_client(i, cfg, n, 10 * i) for i, n in enumerate((1, 2, 4))]
    fed_cfg = FederationConfig(
        num_clients=3, total_rounds=1,
        opt=OptimizerConfig(eta_max=0.0, eta_min=0.0, warmup_rounds=0, total_rounds=1),
    )
    params0 = init_params(cfg)
    params, trace = run_pretraining(fed_cfg, cfg, clients, params0)
    assert params.tobytes() == params0.tobytes()
    assert len(trace) == 2
    assert trace[0][0] == 0 and trace[1][0] == 1
    assert trace[0][1] == pytest.approx(trace[1][1])


def test_run_pretraining_trace_rounds():
    cfg = small_cfg()
    clients = [build_client(i, cfg, 2, 10 * i) for i in range(2)]
    fed_cfg = FederationConfig(
        num_clients=2, total_rounds=3,
        opt=OptimizerConfig(1e-3, 1e-5, 1, 3),
    )
    _, trace = run_pretraining(fed_cfg, cfg, clients, init_params(cfg))
    assert [row[0] for row in trace] == [0, 1, 2, 3]
    assert trace[0][2] == 0.0


def test_run_pretraining_warmup_round_is_plain_average(monkeypatch):
    # lr_schedule(0) is 0 under warmup: round 1 takes no steps, and the
    # unchanged parameters still go through aggregate.
    cfg = small_cfg()
    clients = [build_client(i, cfg, i + 1, 5 * i) for i in range(3)]
    fed_cfg = FederationConfig(3, 1, 4, OptimizerConfig(1e-3, 1e-5, 1, 5))
    params0 = init_params(cfg)
    calls = []
    monkeypatch.setattr(
        fed, "batch_loss_and_grad", lambda *a: calls.append(a) or batch_loss_and_grad(*a))
    params, trace = run_pretraining(fed_cfg, cfg, clients, params0)
    assert len(calls) == 2 * len(clients)  # one loss each before and after
    expected = aggregate([(params0, c.num_samples) for c in clients])
    assert params.tobytes() == expected.tobytes()
    assert trace[0][1] == trace[1][1]


def test_run_pretraining_trace_is_global_loss(monkeypatch):
    cfg = small_cfg()
    clients = [build_client(i, cfg, 2 + i, 3 * i) for i in range(3)]
    fed_cfg = FederationConfig(3, 4, 2, OptimizerConfig(1e-2, 1e-5, 1, 4))
    calls = []
    monkeypatch.setattr(fed, "global_loss", lambda *a: calls.append(a) or global_loss(*a))
    params, trace = run_pretraining(fed_cfg, cfg, clients, init_params(cfg))
    assert len(calls) == 1  # the other rows come from the local steps
    params = init_params(cfg)
    expected = [global_loss(params, cfg, clients)]
    for t in range(fed_cfg.total_rounds):
        eta = lr_schedule(t, fed_cfg.opt)
        params = aggregate([(local_update(params, c, cfg, 2, eta)[0], c.num_samples)
                            for c in clients])
        expected.append(global_loss(params, cfg, clients))
    assert [row[1] for row in trace] == expected


def test_fedsgd_round_is_one_step_over_stacked_clients(monkeypatch):
    # With one local step, each round is one gradient step over the union
    # of the clients' samples, and must match the per-client loop.
    cfg = small_cfg()
    clients = [build_client(i, cfg, n, 11 * i) for i, n in enumerate((5, 1, 3))]
    total = sum(c.num_samples for c in clients)
    fed_cfg = FederationConfig(3, 5, 1, OptimizerConfig(0.2, 1e-3, 2, 5))
    sizes = []
    monkeypatch.setattr(fed, "batch_loss_and_grad",
                        lambda *a: sizes.append(a[2].size) or batch_loss_and_grad(*a))
    params, trace = run_pretraining(fed_cfg, cfg, clients[::-1], init_params(cfg))
    monkeypatch.undo()
    assert sizes == [total] * (fed_cfg.total_rounds + 1)

    reference = init_params(cfg)
    expected = []
    for t in range(fed_cfg.total_rounds):
        eta = lr_schedule(t, fed_cfg.opt)
        results = [(local_update(reference, c, cfg, 1, eta), c.num_samples) for c in clients]
        reference = aggregate([(p, n_k) for (p, _), n_k in results])
        expected.append(sum(loss * n_k for (_, loss), n_k in results) / total)
    expected.append(global_loss(reference, cfg, clients))
    assert np.abs(params - reference).max() <= 1e-12 * np.abs(reference).max()
    assert np.abs(params - init_params(cfg)).max() > 1e-3  # the rounds moved it
    assert [row[0] for row in trace] == list(range(fed_cfg.total_rounds + 1))
    for (_, loss, _), want in zip(trace, expected, strict=True):
        assert abs(loss - want) <= 1e-12 * want


@pytest.mark.parametrize("local_steps", [1, 2])
@pytest.mark.parametrize("bad_round", [0, 2])
def test_run_pretraining_stops_at_first_non_finite_round(monkeypatch, local_steps,
                                                         bad_round):
    # A NaN loss at round k's first call raises before round k + 1 runs.
    cfg = small_cfg()
    clients = [build_client(i, cfg, 2 + i, 4 * i) for i in range(3)]
    fed_cfg = FederationConfig(3, 5, local_steps, OptimizerConfig(1e-2, 1e-5, 0, 5))
    per_round = 1 if local_steps == 1 else len(clients) * local_steps
    calls = []

    def nan_at_round(*args):
        loss, grad = batch_loss_and_grad(*args)
        calls.append(args)
        return (math.nan if len(calls) == bad_round * per_round + 1 else loss), grad

    monkeypatch.setattr(fed, "batch_loss_and_grad", nan_at_round)
    with pytest.raises(NonFiniteLoss, match=f"^global loss at round {bad_round} is nan$"):
        run_pretraining(fed_cfg, cfg, clients, init_params(cfg))
    assert len(calls) == (bad_round + 1) * per_round


@pytest.mark.parametrize("local_steps", [1, 2])
def test_run_pretraining_leaves_clients_untouched(local_steps):
    cfg = small_cfg()
    clients = [build_client(i, cfg, 2 + i, 6 * i) for i in range(3)]

    def values():
        return [[getattr(c, f.name) for f in dataclasses.fields(c)] for c in clients]

    before = values()
    fed_cfg = FederationConfig(3, 3, local_steps, OptimizerConfig(1e-2, 1e-5, 1, 3))
    run_pretraining(fed_cfg, cfg, clients, init_params(cfg))
    for was, now in zip(before, values(), strict=True):
        assert all(a is b for a, b in zip(was, now, strict=True))


def test_run_pretraining_client_order_irrelevant():
    cfg = small_cfg()
    clients = [build_client(i, cfg, 2, 7 * i) for i in range(3)]
    opt = OptimizerConfig(1e-3, 1e-5, 1, 4)
    fed_cfg = FederationConfig(3, 4, 1, opt)
    p_a, _ = run_pretraining(fed_cfg, cfg, clients, init_params(cfg))
    p_b, _ = run_pretraining(fed_cfg, cfg, clients[::-1], init_params(cfg))
    np.testing.assert_array_equal(p_a, p_b)


def test_federation_config_validation():
    with pytest.raises(ValueError, match="^num_clients must be >= 1, got 0$"):
        FederationConfig(0, 1)
    with pytest.raises(ValueError, match="^total_rounds must be >= 1, got 0$"):
        FederationConfig(1, 0)
    with pytest.raises(ValueError, match="^local_steps must be >= 1, got 0$"):
        FederationConfig(1, 1, local_steps=0)


def checkpoint_fixture(cfg):
    fed_cfg = FederationConfig(2, 10, 4, OptimizerConfig(5e-4, 1e-6, 2, 10), seed=3)
    params = init_params(cfg)
    return Checkpoint(cfg, fed_cfg, 10, 3, params)


def test_checkpoint_round_trip(tmp_path):
    cfg = small_cfg(5)
    cp = checkpoint_fixture(cfg)
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, cp)
    back = load_checkpoint(prefix)
    np.testing.assert_array_equal(back.params, cp.params)
    assert back.model_cfg == cp.model_cfg
    assert back.round_index == 10
    assert back.seed == 3
    assert back.fed_cfg.opt == cp.fed_cfg.opt


def test_checkpoint_byte_identical_saves(tmp_path):
    cfg = small_cfg(5)
    cp = checkpoint_fixture(cfg)
    save_checkpoint(str(tmp_path / "a"), cp)
    save_checkpoint(str(tmp_path / "b"), cp)
    assert (tmp_path / "a.params").read_bytes() == (tmp_path / "b.params").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_checkpoint_truncated_payload(tmp_path):
    cfg = small_cfg()
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(cfg))
    payload = (tmp_path / "ck.params").read_bytes()
    (tmp_path / "ck.params").write_bytes(payload[:-8])
    with pytest.raises(FedmimError, match=r"^payload holds \d+ values, manifest says \d+$"):
        load_checkpoint(prefix)


def test_checkpoint_partial_value(tmp_path):
    cfg = small_cfg()
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(cfg))
    payload = (tmp_path / "ck.params").read_bytes()
    (tmp_path / "ck.params").write_bytes(payload[:-3])
    with pytest.raises(FedmimError, match=r"ck\.params has partial values$"):
        load_checkpoint(prefix)


def test_checkpoint_corrupted_payload(tmp_path):
    cfg = small_cfg()
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(cfg))
    payload = bytearray((tmp_path / "ck.params").read_bytes())
    payload[0] ^= 0xFF
    (tmp_path / "ck.params").write_bytes(bytes(payload))
    with pytest.raises(FedmimError, match=r"ck\.params checksum mismatch$"):
        load_checkpoint(prefix)


def test_checkpoint_manifest_wrong_count(tmp_path):
    import json

    cfg = small_cfg()
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(cfg))
    manifest = json.loads((tmp_path / "ck.json").read_text())
    manifest["param_count"] = 1
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    with pytest.raises(FedmimError, match="^manifest param count 1 inconsistent with model config"):
        load_checkpoint(prefix)


def test_checkpoint_manifest_model_section_is_model_config(tmp_path):
    import json

    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(small_cfg(5)))
    model = json.loads((tmp_path / "ck.json").read_text())["model"]
    assert model == {"patch_dim": 4, "embed_dim": 3, "num_patches": 4, "seed": 5}


def test_checkpoint_manifest_federation_section_is_federation_config(tmp_path):
    import json
    from dataclasses import asdict

    prefix = str(tmp_path / "ck")
    cp = checkpoint_fixture(small_cfg(5))
    save_checkpoint(prefix, cp)
    federation = json.loads((tmp_path / "ck.json").read_text())["federation"]
    assert federation == asdict(cp.fed_cfg)
    assert load_checkpoint(prefix).fed_cfg == cp.fed_cfg


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "nope"))


def _flat_federation(manifest):
    """The federation record as it was before it held FederationConfig's
    fields: the optimizer's fields beside the others, with no seed."""
    federation = manifest["federation"]
    federation.update(federation.pop("opt"))
    del federation["seed"]


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["model"].update(embed_dim=0), "bad field: patch_dim, embed_dim"),
    (lambda m: m["federation"]["opt"].update(warmup_rounds=99),
     "bad field: need 0 <= warmup"),
    (lambda m: m["model"].pop("seed"), "bad field: ModelConfig.__init__() missing"),
    (_flat_federation, "bad field: 'opt'"),
    (lambda m: m.update(round="10"), "bad field: round must be an int >= 0, got '10'"),
    (lambda m: m.update(round=10.0), "bad field: round must be an int >= 0, got 10.0"),
    (lambda m: m.update(round=True), "bad field: round must be an int >= 0, got True"),
    (lambda m: m.update(round=-1), "bad field: round must be an int >= 0, got -1"),
], ids=["model-range", "optimizer-range", "model-key", "flat-federation",
        "round-string", "round-float", "round-bool", "round-negative"])
def test_checkpoint_bad_manifest_field(tmp_path, edit, message):
    import json

    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(small_cfg()))
    manifest = json.loads((tmp_path / "ck.json").read_text())
    edit(manifest)
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    with pytest.raises(FedmimError, match="^" + re.escape(f"{prefix}.json: {message}")):
        load_checkpoint(prefix)


def test_checkpoint_manifest_not_utf8(tmp_path):
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(small_cfg()))
    (tmp_path / "ck.json").write_bytes(b"\xff{}")
    with pytest.raises(FedmimError, match="ck.json: not valid JSON"):
        load_checkpoint(prefix)


@pytest.mark.parametrize("local_steps", [1, 2])
def test_resume_matches_uninterrupted(tmp_path, local_steps):
    cfg = small_cfg()
    clients = [build_client(i, cfg, 2, 5 * i) for i in range(2)]
    opt = OptimizerConfig(1e-3, 1e-5, 2, 6)
    full_cfg = FederationConfig(2, 6, local_steps, opt)
    p_full, t_full = run_pretraining(full_cfg, cfg, clients, init_params(cfg))
    # Stop at round 3, then resume with the same schedule.
    head_cfg = FederationConfig(2, 3, local_steps, opt)
    p_head, t_head = run_pretraining(head_cfg, cfg, clients, init_params(cfg))
    p_tail, t_tail = run_pretraining(full_cfg, cfg, clients, p_head, start_round=3)
    assert p_full.tobytes() == p_tail.tobytes()
    assert t_full == t_head + t_tail[1:]
