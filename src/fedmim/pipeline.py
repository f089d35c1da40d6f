"""Glue between data generation, per-image masking, and the federated
engine: freeze each sample's corruption draw and mask partition at setup,
split samples across clients, and build client states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrupt import CorruptionConfig
from .fed import ClientState, make_client
from .image import PatchGrid
from .model import ModelConfig
from .rng import Rng
from .synth import LabeledSample, partition_clients
from .tgm import MaskPartition, apply_uim


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


def prepare_samples(
    images: list[np.ndarray],
    corr_cfg: CorruptionConfig,
    patch: PatchSpec,
    seed: int,
    client_id: int = 0,
) -> list[tuple[PatchGrid, MaskPartition]]:
    """Freeze the corruption + mask partition of every image.

    Each sample's rng derives from (seed, client_id, sample index), so the
    objective is identical across rounds and across parallelism choices.
    """
    root = Rng(seed)
    return [
        apply_uim(
            img,
            corr_cfg,
            patch.patch_h,
            patch.patch_w,
            patch.mask_ratio,
            root.spawn(client_id, idx),
        )
        for idx, img in enumerate(images)
    ]


def build_clients(
    dataset: list[LabeledSample],
    num_clients: int,
    alpha: float,
    model_cfg: ModelConfig,
    corr_cfg: CorruptionConfig,
    patch: PatchSpec,
    seed: int,
) -> list[ClientState]:
    """Dirichlet-partition the dataset and build frozen client states."""
    shards = partition_clients(dataset, num_clients, alpha, Rng(seed).spawn(-1))
    clients = []
    for cid, shard in enumerate(shards):
        prepared = prepare_samples(
            [s.image for s in shard], corr_cfg, patch, seed, client_id=cid
        )
        clients.append(make_client(cid, model_cfg, prepared))
    return clients
