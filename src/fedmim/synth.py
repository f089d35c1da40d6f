"""Synthetic ultrasound phantoms: speckled backgrounds, elliptical benign
and irregular malignant lesions with ground-truth masks, sector-mode
rendering, and Dirichlet non-IID client partitioning."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LesionOutOfBounds, TooFewSamples
from .rng import Rng
from .smat import CONVEX, LINEAR, ScanGeometry, linear_to_convex

BENIGN = 0
MALIGNANT = 1
NONE = 2

_RAYLEIGH_MEAN = math.sqrt(math.pi / 2.0)
_PARTITION_TRIES = 1000


@dataclass(frozen=True)
class Lesion:
    center_x: float
    center_y: float
    axis_x: float
    axis_y: float
    intensity_delta: float
    irregularity: float


@dataclass(frozen=True)
class PhantomSpec:
    width: int = 64
    height: int = 64
    background_level: float = 150.0
    speckle_strength: float = 0.25
    lesion: Lesion | None = None
    class_label: int = NONE

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"width and height must be >= 1, got "
                             f"{self.width}x{self.height}")
        if self.speckle_strength < 0.0:
            raise ValueError(
                f"speckle_strength must be >= 0, got {self.speckle_strength}")


@dataclass(frozen=True)
class LabeledSample:
    image: np.ndarray
    lesion_mask: np.ndarray
    label: int
    mode: str


def _boundary_wobble(rng: Rng, harmonics: int = 4) -> tuple[list[float], list[float]]:
    """Random smooth periodic perturbation, normalized to peak amplitude 1."""
    amps = [rng.uniform(0.3, 1.0) for _ in range(harmonics)]
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(harmonics)]
    peak = sum(amps)
    return [a / peak for a in amps], phases


def _lesion_mask(spec: PhantomSpec, rng: Rng) -> np.ndarray:
    lesion = spec.lesion
    mask = np.zeros((spec.height, spec.width))
    if lesion is None:
        return mask
    reach_x = lesion.axis_x * (1.0 + lesion.irregularity)
    reach_y = lesion.axis_y * (1.0 + lesion.irregularity)
    if (lesion.center_x - reach_x < 0 or lesion.center_x + reach_x > spec.width - 1
            or lesion.center_y - reach_y < 0 or lesion.center_y + reach_y > spec.height - 1):
        raise LesionOutOfBounds(
            f"lesion at ({lesion.center_x}, {lesion.center_y}) with reach "
            f"({reach_x:.1f}, {reach_y:.1f}) exceeds {spec.width}x{spec.height}"
        )
    ys, xs = np.mgrid[0 : spec.height, 0 : spec.width].astype(np.float64)
    dx = (xs - lesion.center_x) / lesion.axis_x
    dy = (ys - lesion.center_y) / lesion.axis_y
    radial = dx * dx + dy * dy
    if lesion.irregularity == 0.0:
        # Exact pixel-center ellipse test.
        return (radial <= 1.0).astype(np.float64)
    amps, phases = _boundary_wobble(rng)
    alpha = np.arctan2(dy, dx)
    wobble = np.zeros_like(alpha)
    for h, (amp, phase) in enumerate(zip(amps, phases), start=2):
        wobble += amp * np.sin(h * alpha + phase)
    limit = 1.0 + lesion.irregularity * wobble
    return (radial <= limit * limit).astype(np.float64)


def generate_phantom(spec: PhantomSpec, rng: Rng) -> LabeledSample:
    """Render one linear-mode phantom with its ground-truth lesion mask."""
    mask = _lesion_mask(spec, rng)
    base = np.full((spec.height, spec.width), spec.background_level)
    if spec.lesion is not None:
        base = base + spec.lesion.intensity_delta * mask
    if spec.speckle_strength > 0.0:
        envelope = np.empty(spec.width * spec.height)
        for i in range(envelope.size):
            g1 = rng.normal()
            g2 = rng.normal()
            envelope[i] = math.hypot(g1, g2)
        factor = 1.0 + spec.speckle_strength * (
            envelope.reshape(spec.height, spec.width) / _RAYLEIGH_MEAN - 1.0
        )
        img = base * factor
    else:
        img = base
    return LabeledSample(np.clip(img, 0.0, 255.0), mask, spec.class_label, LINEAR)


def random_lesion(
    width: int, height: int, label: int, rng: Rng,
    intensity_delta: float = -60.0,
    irregularity_range: tuple[float, float] = (0.45, 0.85),
    axis_range: tuple[float, float] = (0.14, 0.24),
    malignant_delta: float | None = None,
) -> Lesion:
    """Draw lesion geometry.

    Both classes are hypoechoic; class is carried by the boundary texture
    (smooth ellipse vs irregular outline) and, when malignant_delta is
    set, by a deeper malignant contrast.
    """
    irregularity = 0.0 if label == BENIGN else rng.uniform(*irregularity_range)
    if label != BENIGN and malignant_delta is not None:
        intensity_delta = malignant_delta
    scale = min(width, height)
    axis_x = rng.uniform(*axis_range) * scale
    axis_y = rng.uniform(*axis_range) * scale
    margin_x = axis_x * (1.0 + irregularity) + 1.0
    margin_y = axis_y * (1.0 + irregularity) + 1.0
    return Lesion(
        center_x=rng.uniform(margin_x, width - 1 - margin_x),
        center_y=rng.uniform(margin_y, height - 1 - margin_y),
        axis_x=axis_x,
        axis_y=axis_y,
        intensity_delta=intensity_delta,
        irregularity=irregularity,
    )


def generate_dataset(
    n: int,
    class_mix: tuple[float, float, float],
    rng: Rng,
    base_spec: PhantomSpec = PhantomSpec(),
    lesion_kwargs: dict | None = None,
) -> list[LabeledSample]:
    """n phantoms with labels per class_mix and 50/50 linear/convex modes.

    Every per-sample choice comes from an rng derived from (seed, index),
    so the dataset is reproducible and order-independent.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if abs(sum(class_mix) - 1.0) > 1e-9 or any(p < 0 for p in class_mix):
        raise ValueError(f"class_mix must be a probability vector, got {class_mix}")
    geom = ScanGeometry.default_for(base_spec.width, base_spec.height)
    samples: list[LabeledSample] = []
    for i in range(n):
        child = rng.spawn(i)
        u = child.random()
        if u < class_mix[0]:
            label = BENIGN
        elif u < class_mix[0] + class_mix[1]:
            label = MALIGNANT
        else:
            label = NONE
        lesion = None
        if label != NONE:
            lesion = random_lesion(
                base_spec.width, base_spec.height, label, child,
                **(lesion_kwargs or {}),
            )
        spec = replace(base_spec, lesion=lesion, class_label=label)
        sample = generate_phantom(spec, child)
        if child.random() < 0.5:
            warped = linear_to_convex(
                sample.image, geom, base_spec.width, base_spec.height
            )
            warped_mask = linear_to_convex(
                sample.lesion_mask, geom, base_spec.width, base_spec.height
            )
            sample = LabeledSample(
                warped, (warped_mask >= 0.5).astype(np.float64), label, CONVEX
            )
        samples.append(sample)
    return samples


def partition_clients(
    dataset: list, num_clients: int, alpha: float, rng: Rng
) -> list[list]:
    """Dirichlet(alpha) non-IID split by class; every client gets >= 1 item."""
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if len(dataset) < num_clients:
        raise TooFewSamples(
            f"{len(dataset)} samples cannot cover {num_clients} clients"
        )
    if num_clients == 1:
        return [list(dataset)]

    by_class: dict[int, list[int]] = {}
    for idx, sample in enumerate(dataset):
        label = getattr(sample, "label", 0)
        by_class.setdefault(label, []).append(idx)

    for _ in range(_PARTITION_TRIES):
        assignment: list[list[int]] = [[] for _ in range(num_clients)]
        for label in sorted(by_class):
            proportions = rng.dirichlet(alpha, num_clients)
            cuts = np.cumsum(proportions)
            for idx in by_class[label]:
                u = rng.random()
                client = int(np.searchsorted(cuts, u, side="right"))
                assignment[min(client, num_clients - 1)].append(idx)
        if all(assignment):
            return [[dataset[i] for i in client_idx] for client_idx in assignment]
    raise TooFewSamples(
        f"could not give every one of {num_clients} clients a sample in "
        f"{_PARTITION_TRIES} tries"
    )
