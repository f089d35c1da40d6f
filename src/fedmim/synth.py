"""Synthetic ultrasound phantoms: speckled backgrounds, elliptical benign
and irregular malignant lesions with ground-truth masks, sector-mode
rendering, and Dirichlet non-IID client partitioning."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import FedmimError
from .rng import Rng, lockstep_rayleigh
from .smat import CONVEX, LINEAR, linear_to_convex

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
class LesionSpec:
    """How random_lesion draws a lesion: its contrast, the malignant
    contrast (None: the same), and the ranges of the malignant boundary's
    irregularity and of each axis as a fraction of the shorter side."""

    intensity_delta: float = -60.0
    malignant_delta: float | None = None
    irregularity_range: tuple[float, float] = (0.45, 0.85)
    axis_range: tuple[float, float] = (0.14, 0.24)

    def __post_init__(self):
        for name in ("intensity_delta", "malignant_delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        lo, hi = self.axis_range
        if not 0.0 < lo <= hi:
            raise ValueError(f"axis_range must satisfy 0 < lo <= hi, "
                             f"got {list(self.axis_range)}")
        lo, hi = self.irregularity_range
        if not 0.0 <= lo <= hi:
            raise ValueError(f"irregularity_range must satisfy 0 <= lo <= hi, "
                             f"got {list(self.irregularity_range)}")


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
        if not math.isfinite(self.background_level):
            raise ValueError(
                f"background_level must be finite, got {self.background_level}")
        if not self.speckle_strength >= 0.0:
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


@lru_cache(maxsize=4)
def _pixel_grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (ys, xs) pixel coordinates of a height x width image."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    for arr in (ys, xs):
        arr.flags.writeable = False
    return ys, xs


def _lesion_mask(spec: PhantomSpec, rng: Rng) -> np.ndarray:
    lesion = spec.lesion
    mask = np.zeros((spec.height, spec.width))
    if lesion is None:
        return mask
    # Whatever the signs; a NaN center or reach fails the bounds test.
    reach_x = abs(lesion.axis_x) * (1.0 + abs(lesion.irregularity))
    reach_y = abs(lesion.axis_y) * (1.0 + abs(lesion.irregularity))
    if not (0 <= lesion.center_x - reach_x and lesion.center_x + reach_x <= spec.width - 1
            and 0 <= lesion.center_y - reach_y and lesion.center_y + reach_y <= spec.height - 1):
        raise FedmimError(f"lesion at ({lesion.center_x}, {lesion.center_y}) with reach "
                          f"({reach_x:.1f}, {reach_y:.1f}) exceeds {spec.width}x{spec.height}")
    # Off its bounding box a pixel is reach + 1 or more from the center on
    # some axis, so |dx| or |dy| > 1 + |irregularity| >= |limit|.
    box = (slice(math.floor(lesion.center_y - reach_y), math.ceil(lesion.center_y + reach_y) + 1),
           slice(math.floor(lesion.center_x - reach_x), math.ceil(lesion.center_x + reach_x) + 1))
    ys, xs = _pixel_grid(spec.height, spec.width)
    dx = (xs[box] - lesion.center_x) / lesion.axis_x
    dy = (ys[box] - lesion.center_y) / lesion.axis_y
    radial = dx * dx + dy * dy
    limit = 1.0  # an exact pixel-center ellipse test
    if lesion.irregularity != 0.0:
        amps, phases = _boundary_wobble(rng)
        alpha = np.arctan2(dy, dx)
        wobble = np.zeros_like(alpha)
        for h, (amp, phase) in enumerate(zip(amps, phases), start=2):
            wobble += amp * np.sin(h * alpha + phase)
        limit = 1.0 + lesion.irregularity * wobble
    mask[box] = radial <= limit * limit
    return mask


def _render(specs: list[PhantomSpec], masks: list[np.ndarray],
            rngs: list[Rng]) -> np.ndarray:
    """The (n, H, W) linear-mode images of phantoms that share their size
    and speckle strength, each given its lesion mask and the rng that drew
    it: background plus lesion contrast, times Rayleigh speckle.

    Each pixel's speckle envelope is the radius of one Box-Muller pair of
    its phantom's rng, drawn in lockstep with the other phantoms'.
    """
    first = specs[0]
    images = np.empty((len(specs), first.height, first.width))
    strength = first.speckle_strength
    if strength > 0.0:
        lockstep_rayleigh(rngs, images.reshape(len(specs), -1))
    for img, spec, mask in zip(images, specs, masks):
        base = np.full(img.shape, spec.background_level)
        if spec.lesion is not None:
            base = base + spec.lesion.intensity_delta * mask
        if strength > 0.0:
            # base * (1 + strength * (envelope / mean - 1)), in place.
            img /= _RAYLEIGH_MEAN
            img -= 1.0
            img *= strength
            img += 1.0
            img *= base
        else:
            img[...] = base
        np.clip(img, 0.0, 255.0, out=img)
    return images


def generate_phantom(spec: PhantomSpec, rng: Rng) -> LabeledSample:
    """Render one linear-mode phantom with its ground-truth lesion mask."""
    mask = _lesion_mask(spec, rng)
    return LabeledSample(_render([spec], [mask], [rng])[0], mask, spec.class_label, LINEAR)


def random_lesion(width: int, height: int, label: int, rng: Rng,
                  spec: LesionSpec = LesionSpec()) -> Lesion:
    """Draw lesion geometry.

    Both classes are hypoechoic; class is carried by the boundary texture
    (smooth ellipse vs irregular outline) and, when spec.malignant_delta is
    set, by a deeper malignant contrast.
    """
    irregularity = 0.0 if label == BENIGN else rng.uniform(*spec.irregularity_range)
    intensity_delta = spec.intensity_delta
    if label != BENIGN and spec.malignant_delta is not None:
        intensity_delta = spec.malignant_delta
    scale = min(width, height)
    axis_x = rng.uniform(*spec.axis_range) * scale
    axis_y = rng.uniform(*spec.axis_range) * scale
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
    lesion_spec: LesionSpec = LesionSpec(),
) -> list[LabeledSample]:
    """n phantoms with labels per class_mix and 50/50 linear/convex modes.

    Every per-sample choice comes from an rng derived from (seed, index),
    so the dataset is reproducible and order-independent. Each sample's
    rng draws its label, lesion and boundary alone, then its speckle in
    lockstep with every other sample's, then its scan-mode coin.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not (abs(sum(class_mix) - 1.0) <= 1e-9 and all(p >= 0 for p in class_mix)):
        raise ValueError(f"class_mix must be a probability vector, got {class_mix}")
    if n == 0:
        return []
    children = [rng.spawn(i) for i in range(n)]
    specs = [_draw_spec(base_spec, class_mix, child, lesion_spec)
             for child in children]
    masks = [_lesion_mask(spec, child) for spec, child in zip(specs, children)]
    # A convex sample's warp overwrites its linear image and mask, so the
    # speckle goes straight into the buffer the images live in.
    images = _render(specs, masks, children)
    samples: list[LabeledSample] = []
    for image, mask, spec, child in zip(images, masks, specs, children):
        mode = LINEAR
        if child.random() < 0.5:
            image[...] = linear_to_convex(image)
            mask[...] = linear_to_convex(mask) >= 0.5
            mode = CONVEX
        samples.append(LabeledSample(image, mask, spec.class_label, mode))
    return samples


def _draw_spec(base_spec: PhantomSpec, class_mix: tuple[float, float, float],
               rng: Rng, lesion_spec: LesionSpec) -> PhantomSpec:
    """One sample's class label, per class_mix, and lesion."""
    u = rng.random()
    if u < class_mix[0]:
        label = BENIGN
    elif u < class_mix[0] + class_mix[1]:
        label = MALIGNANT
    else:
        return replace(base_spec, lesion=None, class_label=NONE)
    lesion = random_lesion(base_spec.width, base_spec.height, label, rng, lesion_spec)
    return replace(base_spec, lesion=lesion, class_label=label)


def partition_clients(
    dataset: list, num_clients: int, alpha: float, rng: Rng
) -> list[list]:
    """Dirichlet(alpha) non-IID split by class; every client gets >= 1 item."""
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be a finite number > 0, got {alpha}")
    if len(dataset) < num_clients:
        raise FedmimError(f"{len(dataset)} samples cannot cover {num_clients} clients")
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
    raise FedmimError(f"could not give every one of {num_clients} clients a sample in "
                      f"{_PARTITION_TRIES} tries")
