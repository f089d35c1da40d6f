"""Federated engine: local updates, aggregation, orchestration, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmim import fed
from fedmim.errors import ChecksumMismatch, ConfigMismatch, MalformedFile, ShapeMismatch
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
    samples = [random_sample(cfg, Rng(seed + i), 2, 2) for i in range(n_samples)]
    return make_client(cid, cfg, samples)


def test_make_client_rejects_empty():
    with pytest.raises(ValueError):
        make_client(0, small_cfg(), [])


def test_local_update_zero_eta_is_identity():
    cfg = small_cfg()
    client = build_client(0, cfg, 3, 10)
    params = init_params(cfg)
    out = local_update(params, client, cfg, steps=5, eta=0.0)
    np.testing.assert_array_equal(out, params)


def test_local_update_descends():
    cfg = small_cfg()
    client = build_client(0, cfg, 4, 20)
    params = init_params(cfg)
    eta = 1e-3
    before, _ = batch_loss_and_grad(params, cfg, client.batch)
    for _ in range(4):  # retry with a smaller step if needed
        after, _ = batch_loss_and_grad(
            local_update(params, client, cfg, 5, eta), cfg, client.batch
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


def test_aggregate_errors():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ShapeMismatch):
        aggregate([(np.zeros(3), 1), (np.zeros(4), 1)])


def test_global_loss_single_client_single_sample():
    cfg = small_cfg()
    sample = random_sample(cfg, Rng(0), 2, 2)
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
    clients = [build_client(0, cfg, 2, 0)]
    fed_cfg = FederationConfig(
        num_clients=1, total_rounds=1,
        opt=OptimizerConfig(eta_max=0.0, eta_min=0.0, warmup_rounds=0, total_rounds=1),
    )
    params0 = init_params(cfg)
    params, trace = run_pretraining(fed_cfg, cfg, clients, params0)
    np.testing.assert_array_equal(params, params0)
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
        params = aggregate([(local_update(params, c, cfg, 2, eta), c.num_samples)
                            for c in clients])
        expected.append(global_loss(params, cfg, clients))
    assert [row[1] for row in trace] == expected


def test_run_pretraining_client_order_irrelevant():
    cfg = small_cfg()
    clients = [build_client(i, cfg, 2, 7 * i) for i in range(3)]
    opt = OptimizerConfig(1e-3, 1e-5, 1, 4)
    fed_cfg = FederationConfig(3, 4, 1, opt)
    p_a, _ = run_pretraining(fed_cfg, cfg, clients, init_params(cfg))
    p_b, _ = run_pretraining(fed_cfg, cfg, clients[::-1], init_params(cfg))
    np.testing.assert_array_equal(p_a, p_b)


def test_federation_config_validation():
    with pytest.raises(ValueError):
        FederationConfig(0, 1).validate()
    with pytest.raises(ValueError):
        FederationConfig(1, 0).validate()
    with pytest.raises(ValueError):
        FederationConfig(1, 1, local_steps=0).validate()


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
    with pytest.raises(MalformedFile):
        load_checkpoint(prefix)


def test_checkpoint_partial_value(tmp_path):
    cfg = small_cfg()
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(cfg))
    payload = (tmp_path / "ck.params").read_bytes()
    (tmp_path / "ck.params").write_bytes(payload[:-3])
    with pytest.raises(MalformedFile):
        load_checkpoint(prefix)


def test_checkpoint_corrupted_payload(tmp_path):
    cfg = small_cfg()
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(cfg))
    payload = bytearray((tmp_path / "ck.params").read_bytes())
    payload[0] ^= 0xFF
    (tmp_path / "ck.params").write_bytes(bytes(payload))
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(prefix)


def test_checkpoint_manifest_wrong_count(tmp_path):
    import json

    cfg = small_cfg()
    prefix = str(tmp_path / "ck")
    save_checkpoint(prefix, checkpoint_fixture(cfg))
    manifest = json.loads((tmp_path / "ck.json").read_text())
    manifest["param_count"] = 1
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigMismatch):
        load_checkpoint(prefix)


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(MalformedFile):
        load_checkpoint(str(tmp_path / "nope"))


def test_resume_matches_uninterrupted(tmp_path):
    cfg = small_cfg()
    clients = [build_client(i, cfg, 2, 5 * i) for i in range(2)]
    opt = OptimizerConfig(1e-3, 1e-5, 2, 6)
    full_cfg = FederationConfig(2, 6, 2, opt)
    p_full, t_full = run_pretraining(full_cfg, cfg, clients, init_params(cfg))
    # Stop at round 3, then resume with the same schedule.
    head_cfg = FederationConfig(2, 3, 2, opt)
    p_head, t_head = run_pretraining(head_cfg, cfg, clients, init_params(cfg))
    p_tail, t_tail = run_pretraining(full_cfg, cfg, clients, p_head, start_round=3)
    np.testing.assert_array_equal(p_full, p_tail)
    assert t_full == t_head + t_tail[1:]
