"""Glue between data generation, per-image masking, and the federated
engine: freeze each sample's corruption draw and mask partition at setup,
split samples across clients, and build client states."""

from __future__ import annotations

from dataclasses import dataclass

from .corrupt import CorruptionConfig, apply_corruption, draw_corruptions
from .fed import ClientState, make_client
from .model import ModelConfig
from .rng import Rng
from .synth import LabeledSample, partition_clients
from .tgm import partition_image


@dataclass(frozen=True)
class PatchSpec:
    patch_h: int = 8
    patch_w: int = 8
    mask_ratio: float = 0.75

    def __post_init__(self):
        # tgm.mask_count checks mask_ratio against the patch count.
        if self.patch_h < 1 or self.patch_w < 1:
            raise ValueError(f"patch_h and patch_w must be >= 1, got "
                             f"{self.patch_h}x{self.patch_w}")


def build_clients(
    dataset: list[LabeledSample],
    num_clients: int,
    alpha: float,
    model_cfg: ModelConfig,
    corr_cfg: CorruptionConfig,
    patch: PatchSpec,
    seed: int,
) -> list[ClientState]:
    """Dirichlet-partition the dataset and build frozen client states.

    The corruption and mask partition of every image are frozen here.
    Sample idx of client cid corrupts with the rng derived from
    (seed, cid, idx), so the objective is identical across rounds and
    however the work is scheduled. Every client's corruption is drawn in
    one lockstep call, and each client's images are corrupted as it is
    built.
    """
    shards = partition_clients(dataset, num_clients, alpha, Rng(seed).spawn(-1))
    root = Rng(seed)
    plans = iter(draw_corruptions(
        [s.image.shape for shard in shards for s in shard], corr_cfg,
        [root.spawn(cid, idx) for cid, shard in enumerate(shards)
         for idx in range(len(shard))]))
    clients = []
    for cid, shard in enumerate(shards):
        prepared = [partition_image(apply_corruption(s.image, next(plans), corr_cfg),
                                    patch.patch_h, patch.patch_w, patch.mask_ratio)
                    for s in shard]
        clients.append(make_client(cid, model_cfg, prepared))
    return clients
