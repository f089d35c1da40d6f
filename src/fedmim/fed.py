"""Federated pre-training engine: broadcast, local full-batch gradient
steps, sample-count-weighted aggregation, and checkpoint persistence.

Determinism contract: clients run one after another and their results
are merged in ascending client-id order. A FedSGD run (one local step)
has a single client, the union of every client's samples stacked in
ascending client-id order, and goes through the same round loop. Every
per-sample random choice is frozen at setup, so two runs with the same
config, data, and seed produce byte-identical checkpoints.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import FedmimError, NonFiniteLoss
from .model import (ModelConfig, OptimizerConfig, PreparedBatch, batch_loss_and_grad,
                    lr_schedule, prepare_batch, stack_batches)


@dataclass(frozen=True)
class FederationConfig:
    num_clients: int
    total_rounds: int
    local_steps: int = 1
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.total_rounds < 1:
            raise ValueError(f"total_rounds must be >= 1, got {self.total_rounds}")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")


@dataclass(frozen=True)
class ClientState:
    """One client's frozen pre-processed dataset."""

    client_id: int
    batch: PreparedBatch

    @property
    def num_samples(self) -> int:
        return self.batch.size


def make_client(client_id: int, model_cfg: ModelConfig, patches: np.ndarray,
                masked: np.ndarray) -> ClientState:
    """The client of the samples whose (n, L, N) patch rows and (n, L) bool
    masks are given; prepare_batch takes the patch rows over."""
    if len(patches) == 0:
        raise ValueError("client dataset must be non-empty")
    return ClientState(client_id, prepare_batch(model_cfg, patches, masked))


def local_update(global_params: np.ndarray, client: ClientState, model_cfg: ModelConfig,
                 steps: int, eta: float) -> tuple[np.ndarray, float]:
    """E full-batch gradient steps on the client's local mean objective.

    Returns the new params and the first step's loss, taken at
    global_params. At eta 0 the steps are skipped, as they could not move
    the parameters; the loss is still taken.
    """
    params = global_params
    for step in range(steps):
        loss, grad = batch_loss_and_grad(params, model_cfg, client.batch)
        if step == 0:
            start_loss = loss
            if eta == 0.0:
                break
        params = params - eta * grad
    return params, start_loss


def aggregate(local_results: list[tuple[np.ndarray | float, int]]) -> np.ndarray | float:
    """Weighted mean of (value, n_k) pairs, vectors or floats alike, with
    weights n_k / n, summed in list order."""
    if not local_results:
        raise ValueError("nothing to aggregate")
    shape = np.shape(local_results[0][0])
    total = sum(n_k for _, n_k in local_results)
    if total < 1:
        raise ValueError("total sample count must be >= 1")
    acc = 0.0
    for value, n_k in local_results:
        if np.shape(value) != shape:
            raise FedmimError("aggregated values differ in shape")
        acc += (n_k / total) * value
    return acc


def global_loss(params: np.ndarray, model_cfg: ModelConfig,
                clients: list[ClientState]) -> float:
    """Sample-count-weighted mean of the per-client mean losses."""
    return aggregate([
        (batch_loss_and_grad(params, model_cfg, c.batch)[0], c.num_samples)
        for c in sorted(clients, key=lambda c: c.client_id)
    ])


def run_pretraining(
    cfg: FederationConfig,
    model_cfg: ModelConfig,
    clients: list[ClientState],
    initial_params: np.ndarray,
    start_round: int = 0,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Run rounds start_round..total_rounds-1 of broadcast / local update /
    aggregate. Returns final params and a (round, global_loss, eta) trace;
    the first trace row is the loss before any update in this call, and
    each row's eta is the one of the round that led to it. A row whose loss
    is NaN or infinite raises NonFiniteLoss before any later round runs.

    With one local step, the n_k-weighted mean of the client steps is one
    gradient step on the union of the clients' samples (FedSGD), so the
    clients' batches, stacked in client-id order, train as one client.
    """
    if not clients:
        raise ValueError("need at least one client")
    clients = sorted(clients, key=lambda c: c.client_id)
    if cfg.local_steps == 1:
        clients = [ClientState(clients[0].client_id,
                               stack_batches([c.batch for c in clients]))]
    params = initial_params
    trace: list[tuple[int, float, float]] = []
    prev_eta = 0.0
    for t in range(start_round, cfg.total_rounds):
        eta = lr_schedule(t, cfg.opt)
        results = [(local_update(params, c, model_cfg, cfg.local_steps, eta), c.num_samples)
                   for c in clients]
        params = aggregate([(p, n_k) for (p, _), n_k in results])
        # Each client's first step took its loss at the broadcast params,
        # so their weighted mean is the global loss this round started from.
        start = aggregate([(loss, n_k) for (_, loss), n_k in results])
        trace.append(_finite_row(t, start, prev_eta))
        prev_eta = eta
    final = global_loss(params, model_cfg, clients)
    trace.append(_finite_row(cfg.total_rounds, final, prev_eta))
    return params, trace


def _finite_row(t: int, loss: float, eta: float) -> tuple[int, float, float]:
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"global loss at round {t} is {loss}")
    return t, loss, eta


# Checkpoint persistence: <name>.json manifest + <name>.params payload
# (little-endian float64 array in ParameterVector layout).


@dataclass(frozen=True)
class Checkpoint:
    model_cfg: ModelConfig
    fed_cfg: FederationConfig
    round_index: int
    seed: int
    params: np.ndarray
    config: dict | None = None  # the run config that cli.cmd_pretrain resumes by


def _payload_bytes(params: np.ndarray) -> bytes:
    return np.ascontiguousarray(params, dtype="<f8").tobytes()


def save_checkpoint(path_prefix: str, cp: Checkpoint) -> None:
    payload = _payload_bytes(cp.params)
    manifest = {
        "model": asdict(cp.model_cfg),
        "federation": asdict(cp.fed_cfg),
        "round": cp.round_index,
        "seed": cp.seed,
        "param_count": int(cp.params.size),
        "crc32": zlib.crc32(payload),
    }
    if cp.config is not None:
        manifest["config"] = cp.config
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    # Both files are written in full under temporary names before either
    # replaces the old one, so a save that fails while writing leaves the
    # previous checkpoint at path_prefix loadable. A process killed between
    # the two renames leaves new params under the old manifest, whose CRC
    # load_checkpoint then rejects.
    files = ((f"{path_prefix}.params", payload),
             (f"{path_prefix}.json", text.encode("utf-8")))
    for path, data in files:
        with open(f"{path}.tmp", "wb") as fh:
            fh.write(data)
    for path, _ in files:
        os.replace(f"{path}.tmp", path)


def load_checkpoint(path_prefix: str) -> Checkpoint:
    """Read <path_prefix>.json and .params. A missing or unreadable file
    raises its OSError; bad contents raise FedmimError naming the file."""
    try:
        with open(f"{path_prefix}.json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise FedmimError(f"{path_prefix}.json: not valid JSON: {exc}") from exc
    with open(f"{path_prefix}.params", "rb") as fh:
        payload = fh.read()

    try:
        model_cfg = ModelConfig(**manifest["model"])
        fed = manifest["federation"]
        fed_cfg = FederationConfig(**{**fed, "opt": OptimizerConfig(**fed["opt"])})
        param_count = manifest["param_count"]
        crc = manifest["crc32"]
        round_index = manifest["round"]
        seed = manifest["seed"]
        config = manifest.get("config")  # after the fields above, manifest is a dict
    except (KeyError, TypeError, ValueError) as exc:
        raise FedmimError(f"{path_prefix}.json: bad field: {exc}") from exc
    if type(round_index) is not int or round_index < 0:
        raise FedmimError(f"{path_prefix}.json: bad field: round must be an int >= 0, "
                          f"got {round_index!r}")
    if not isinstance(config, (dict, type(None))):
        raise FedmimError(f"{path_prefix}.json: bad field: config must be an object")

    if param_count != model_cfg.param_count:
        raise FedmimError(f"manifest param count {param_count} inconsistent with model "
                          f"config ({model_cfg.param_count})")
    if len(payload) % 8 != 0:
        raise FedmimError(f"payload {path_prefix}.params has partial values")
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if params.size != param_count:
        raise FedmimError(f"payload holds {params.size} values, manifest says {param_count}")
    if zlib.crc32(payload) != crc:
        raise FedmimError(f"{path_prefix}.params checksum mismatch")
    return Checkpoint(model_cfg, fed_cfg, round_index, seed, params, config)
