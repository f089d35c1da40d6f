"""Glue between data generation, per-image masking, and the federated
engine: freeze each sample's corruption draw and mask partition at setup,
split samples across clients, and build client states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrupt import CorruptionConfig, apply_corruption, draw_corruptions
from .errors import FedmimError
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
    built, straight into the rows of the one patch stack that its batch
    takes over. Every image must have one shape.
    """
    shards = partition_clients(dataset, num_clients, alpha, Rng(seed).spawn(-1))
    shapes = sorted({s.image.shape for s in dataset})
    if len(shapes) > 1:
        raise FedmimError(f"dataset images must share one shape, got {shapes}")
    root = Rng(seed)
    plans = iter(draw_corruptions(
        shapes[0], corr_cfg,
        [root.spawn(cid, idx) for cid, shard in enumerate(shards)
         for idx in range(len(shard))]))
    (h, w), (ph, pw) = shapes[0], (patch.patch_h, patch.patch_w)

    def stack(shard):
        patches = np.empty((len(shard), (h // ph) * (w // pw), ph * pw))
        masked = np.empty(patches.shape[:2], dtype=bool)
        for i, s in enumerate(shard):
            _, masked[i] = partition_image(apply_corruption(s.image, next(plans), corr_cfg),
                                           ph, pw, patch.mask_ratio, out=patches[i])
        return patches, masked

    # A client's stack is freed once its batch is made, before the next one.
    return [make_client(cid, model_cfg, *stack(shard)) for cid, shard in enumerate(shards)]
