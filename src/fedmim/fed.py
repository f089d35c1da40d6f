"""Federated pre-training engine: broadcast, local full-batch gradient
steps, sample-count-weighted aggregation, and checkpoint persistence.

Determinism contract: clients run one after another and their results
are merged in ascending client-id order, and every per-sample random
choice is frozen at setup, so two runs with the same config, data, and
seed produce byte-identical checkpoints.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ChecksumMismatch, ConfigMismatch, MalformedFile, ShapeMismatch
from .image import PatchGrid
from .model import (
    ModelConfig,
    OptimizerConfig,
    PreparedBatch,
    batch_loss_and_grad,
    lr_schedule,
    prepare_batch,
)
from .tgm import MaskPartition


@dataclass(frozen=True)
class FederationConfig:
    num_clients: int
    total_rounds: int
    local_steps: int = 1
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0

    def validate(self) -> "FederationConfig":
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.total_rounds < 1:
            raise ValueError(f"total_rounds must be >= 1, got {self.total_rounds}")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")
        self.opt.validate()
        return self


@dataclass
class ClientState:
    """One client's frozen pre-processed dataset, plus the loss at the
    parameters its last local_update started from."""

    client_id: int
    batch: PreparedBatch
    start_loss: float | None = None

    @property
    def num_samples(self) -> int:
        return self.batch.size


def make_client(
    client_id: int,
    model_cfg: ModelConfig,
    samples: list[tuple[PatchGrid, MaskPartition]],
) -> ClientState:
    if not samples:
        raise ValueError("client dataset must be non-empty")
    return ClientState(client_id, prepare_batch(model_cfg, samples))


def local_update(
    global_params: np.ndarray,
    client: ClientState,
    model_cfg: ModelConfig,
    steps: int,
    eta: float,
) -> np.ndarray:
    """E full-batch gradient steps on the client's local mean objective.

    The first step's loss, taken at global_params, goes to
    client.start_loss. At eta 0 the steps are skipped, as they could not
    move the parameters; the loss is still taken.
    """
    params = global_params
    for step in range(steps):
        loss, grad = batch_loss_and_grad(params, model_cfg, client.batch)
        if step == 0:
            client.start_loss = loss
            if eta == 0.0:
                break
        params = params - eta * grad
    return params


def aggregate(local_results: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Weighted mean with weights n_k / n, summed in list order."""
    if not local_results:
        raise ValueError("nothing to aggregate")
    length = local_results[0][0].size
    total = sum(n_k for _, n_k in local_results)
    if total < 1:
        raise ValueError("total sample count must be >= 1")
    acc = np.zeros(length)
    for vec, n_k in local_results:
        if vec.size != length:
            raise ShapeMismatch("parameter vectors differ in length")
        acc += (n_k / total) * vec
    return acc


def _weighted_mean(losses: list[tuple[float, int]]) -> float:
    """Sample-count-weighted mean of (loss, n_k) pairs, summed in list order."""
    total = sum(n_k for _, n_k in losses)
    acc = 0.0
    for loss, n_k in losses:
        acc += n_k * loss
    return acc / total


def global_loss(
    params: np.ndarray, model_cfg: ModelConfig, clients: list[ClientState]
) -> float:
    """Sample-count-weighted mean of the per-client mean losses."""
    return _weighted_mean([
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
    each row's eta is the one of the round that led to it."""
    cfg.validate()
    if not clients:
        raise ValueError("need at least one client")
    clients = sorted(clients, key=lambda c: c.client_id)
    params = initial_params
    trace: list[tuple[int, float, float]] = []
    prev_eta = 0.0
    for t in range(start_round, cfg.total_rounds):
        eta = lr_schedule(t, cfg.opt)
        params = aggregate([
            (local_update(params, c, model_cfg, cfg.local_steps, eta), c.num_samples)
            for c in clients
        ])
        # Each client's first step took its loss at the broadcast params, so
        # their weighted mean is the global loss this round started from.
        start = _weighted_mean([(c.start_loss, c.num_samples) for c in clients])
        trace.append((t, start, prev_eta))
        prev_eta = eta
    trace.append((cfg.total_rounds, global_loss(params, model_cfg, clients), prev_eta))
    return params, trace


# Checkpoint persistence: <name>.json manifest + <name>.params payload
# (little-endian float64 array in ParameterVector layout).


@dataclass(frozen=True)
class Checkpoint:
    model_cfg: ModelConfig
    fed_cfg: FederationConfig
    round_index: int
    seed: int
    params: np.ndarray


def _payload_bytes(params: np.ndarray) -> bytes:
    return np.ascontiguousarray(params, dtype="<f8").tobytes()


def save_checkpoint(path_prefix: str, cp: Checkpoint) -> None:
    payload = _payload_bytes(cp.params)
    manifest = {
        "model": {
            "patch_dim": cp.model_cfg.patch_dim,
            "embed_dim": cp.model_cfg.embed_dim,
            "num_patches": cp.model_cfg.num_patches,
            "seed": cp.model_cfg.seed,
        },
        "federation": {
            "num_clients": cp.fed_cfg.num_clients,
            "total_rounds": cp.fed_cfg.total_rounds,
            "local_steps": cp.fed_cfg.local_steps,
            "eta_max": cp.fed_cfg.opt.eta_max,
            "eta_min": cp.fed_cfg.opt.eta_min,
            "warmup_rounds": cp.fed_cfg.opt.warmup_rounds,
            "schedule_rounds": cp.fed_cfg.opt.total_rounds,
        },
        "round": cp.round_index,
        "seed": cp.seed,
        "param_count": int(cp.params.size),
        "crc32": zlib.crc32(payload),
    }
    with open(f"{path_prefix}.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(f"{path_prefix}.params", "wb") as fh:
        fh.write(payload)


def load_checkpoint(path_prefix: str) -> Checkpoint:
    try:
        with open(f"{path_prefix}.json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedFile(f"cannot read manifest {path_prefix}.json: {exc}") from exc
    try:
        with open(f"{path_prefix}.params", "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read payload {path_prefix}.params: {exc}") from exc

    try:
        model_cfg = ModelConfig(
            patch_dim=manifest["model"]["patch_dim"],
            embed_dim=manifest["model"]["embed_dim"],
            num_patches=manifest["model"]["num_patches"],
            seed=manifest["model"]["seed"],
        )
        fed = manifest["federation"]
        fed_cfg = FederationConfig(
            num_clients=fed["num_clients"],
            total_rounds=fed["total_rounds"],
            local_steps=fed["local_steps"],
            opt=OptimizerConfig(
                eta_max=fed["eta_max"],
                eta_min=fed["eta_min"],
                warmup_rounds=fed["warmup_rounds"],
                total_rounds=fed["schedule_rounds"],
            ),
            seed=manifest["seed"],
        )
        param_count = manifest["param_count"]
        crc = manifest["crc32"]
        round_index = manifest["round"]
        seed = manifest["seed"]
    except (KeyError, TypeError) as exc:
        raise MalformedFile(f"manifest {path_prefix}.json missing field: {exc}") from exc

    if param_count != model_cfg.param_count:
        raise ConfigMismatch(
            f"manifest param count {param_count} inconsistent with model config "
            f"({model_cfg.param_count})"
        )
    if len(payload) % 8 != 0:
        raise MalformedFile(f"payload {path_prefix}.params has partial values")
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if params.size != param_count:
        raise MalformedFile(
            f"payload holds {params.size} values, manifest says {param_count}"
        )
    if zlib.crc32(payload) != crc:
        raise ChecksumMismatch(f"{path_prefix}.params checksum mismatch")
    return Checkpoint(model_cfg, fed_cfg, round_index, seed, params)
