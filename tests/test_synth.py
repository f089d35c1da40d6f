"""Phantom generator: speckle, lesions, dataset mixing, client partitioning."""

import math

import numpy as np
import pytest

from fedmim.errors import LesionOutOfBounds, TooFewSamples
from fedmim.rng import Rng
from fedmim.smat import CONVEX, LINEAR, ScanGeometry, linear_to_convex
from fedmim.synth import (
    BENIGN,
    MALIGNANT,
    NONE,
    Lesion,
    PhantomSpec,
    generate_dataset,
    generate_phantom,
    partition_clients,
    random_lesion,
)


def test_no_speckle_no_lesion_is_constant():
    spec = PhantomSpec(width=16, height=16, background_level=150.0, speckle_strength=0.0)
    sample = generate_phantom(spec, Rng(0))
    np.testing.assert_array_equal(sample.image, np.full((16, 16), 150.0))
    np.testing.assert_array_equal(sample.lesion_mask, 0.0)
    assert sample.label == NONE
    assert sample.mode == LINEAR


@pytest.mark.parametrize("kwargs, message", [
    ({"width": 0}, "width and height must be >= 1, got 0x64"),
    ({"height": -1}, "width and height must be >= 1, got 64x-1"),
    ({"speckle_strength": -5.0}, "speckle_strength must be >= 0, got -5.0"),
])
def test_phantom_spec_rejects_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PhantomSpec(**kwargs)


def test_benign_lesion_is_exact_ellipse():
    lesion = Lesion(16.0, 16.0, 6.0, 4.0, -60.0, 0.0)
    spec = PhantomSpec(32, 32, 150.0, 0.0, lesion, BENIGN)
    sample = generate_phantom(spec, Rng(0))
    ys, xs = np.mgrid[0:32, 0:32].astype(np.float64)
    inside = ((xs - 16.0) / 6.0) ** 2 + ((ys - 16.0) / 4.0) ** 2 <= 1.0
    np.testing.assert_array_equal(sample.lesion_mask, inside.astype(np.float64))
    np.testing.assert_allclose(sample.image[inside], 90.0)
    np.testing.assert_allclose(sample.image[~inside], 150.0)


def test_lesion_contrast_within_speckle_noise():
    # Mean inside minus mean outside should approximate intensity_delta
    # within 3 sigma of the speckle fluctuation.
    lesion = Lesion(32.0, 32.0, 10.0, 10.0, -60.0, 0.0)
    spec = PhantomSpec(64, 64, 150.0, 0.25, lesion, BENIGN)
    deltas = []
    for seed in range(5):
        s = generate_phantom(spec, Rng(seed))
        m = s.lesion_mask > 0.5
        deltas.append(s.image[m].mean() - s.image[~m].mean())
    # Speckle sd per pixel ~ strength * level * sqrt(2 - pi/2) / sqrt(pi/2);
    # with hundreds of pixels averaged, 3 sigma is a few intensity units.
    n_in = int((s.lesion_mask > 0.5).sum())
    sd = 0.25 * 150.0 * math.sqrt(4.0 / math.pi - 1.0)
    bound = 3.0 * sd * math.sqrt(1.0 / n_in + 1.0 / (64 * 64 - n_in))
    assert abs(np.mean(deltas) + 60.0) < bound + 3.0  # +3 for clip/irregular edge


def test_lesion_out_of_bounds():
    lesion = Lesion(2.0, 2.0, 6.0, 6.0, -60.0, 0.0)
    spec = PhantomSpec(16, 16, 150.0, 0.0, lesion, BENIGN)
    with pytest.raises(LesionOutOfBounds):
        generate_phantom(spec, Rng(0))


def test_random_lesion_class_texture():
    rng = Rng(0)
    for _ in range(20):
        benign = random_lesion(64, 64, BENIGN, rng)
        assert benign.irregularity == 0.0
        malignant = random_lesion(64, 64, MALIGNANT, rng)
        assert 0.45 <= malignant.irregularity <= 0.85


def test_random_lesion_malignant_delta_override():
    rng = Rng(1)
    b = random_lesion(64, 64, BENIGN, rng, intensity_delta=-75.0, malignant_delta=-95.0)
    m = random_lesion(64, 64, MALIGNANT, rng, intensity_delta=-75.0, malignant_delta=-95.0)
    assert b.intensity_delta == -75.0
    assert m.intensity_delta == -95.0


def test_random_lesion_fits():
    rng = Rng(2)
    for label in (BENIGN, MALIGNANT):
        for _ in range(50):
            lesion = random_lesion(64, 64, label, rng)
            spec = PhantomSpec(64, 64, 150.0, 0.0, lesion, label)
            generate_phantom(spec, rng)  # must not raise


def test_generate_dataset_empty():
    assert generate_dataset(0, (1.0, 0.0, 0.0), Rng(0)) == []


def test_generate_dataset_lanes_equal_each_phantom_alone():
    # Each sample drawn on its own rng, through one-lane generate_phantom,
    # gives the bytes and end state of the lockstep dataset.
    spec = PhantomSpec(24, 16)
    mix = (0.4, 0.4, 0.2)
    samples = generate_dataset(12, mix, Rng(9), spec)
    geom = ScanGeometry.default_for(24, 16)
    for i, sample in enumerate(samples):
        rng = Rng(9).spawn(i)
        u = rng.random()
        label = BENIGN if u < mix[0] else MALIGNANT if u < mix[0] + mix[1] else NONE
        lesion = None if label == NONE else random_lesion(24, 16, label, rng)
        alone = generate_phantom(PhantomSpec(24, 16, lesion=lesion, class_label=label), rng)
        image, mask, mode = alone.image, alone.lesion_mask, LINEAR
        if rng.random() < 0.5:
            image = linear_to_convex(image, geom, 24, 16)
            mask = (linear_to_convex(mask, geom, 24, 16) >= 0.5).astype(np.float64)
            mode = CONVEX
        assert (sample.label, sample.mode) == (label, mode)
        assert sample.image.tobytes() == image.tobytes()
        assert sample.lesion_mask.tobytes() == mask.tobytes()
    assert {s.mode for s in samples} == {LINEAR, CONVEX}
    assert {s.label for s in samples} == {BENIGN, MALIGNANT, NONE}


def test_generate_dataset_all_benign():
    spec = PhantomSpec(32, 32)
    samples = generate_dataset(20, (1.0, 0.0, 0.0), Rng(3), spec)
    assert all(s.label == BENIGN for s in samples)
    assert all(s.mode in (LINEAR, CONVEX) for s in samples)


def test_generate_dataset_class_counts_binomial():
    spec = PhantomSpec(16, 16, speckle_strength=0.0)
    samples = generate_dataset(1000, (0.5, 0.5, 0.0), Rng(4), spec)
    benign = sum(1 for s in samples if s.label == BENIGN)
    assert abs(benign - 500) < 3.0 * math.sqrt(1000 * 0.25)


def test_generate_dataset_rejects_bad_mix():
    with pytest.raises(ValueError):
        generate_dataset(4, (0.5, 0.2, 0.1), Rng(0))
    with pytest.raises(ValueError):
        generate_dataset(4, (1.5, -0.5, 0.0), Rng(0))


def test_generate_dataset_deterministic():
    spec = PhantomSpec(32, 32)
    a = generate_dataset(6, (0.4, 0.3, 0.3), Rng(9), spec)
    b = generate_dataset(6, (0.4, 0.3, 0.3), Rng(9), spec)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.image, sb.image)
        assert sa.label == sb.label and sa.mode == sb.mode


def test_generate_dataset_mode_mix():
    spec = PhantomSpec(16, 16, speckle_strength=0.0)
    samples = generate_dataset(400, (0.0, 0.0, 1.0), Rng(5), spec)
    convex = sum(1 for s in samples if s.mode == CONVEX)
    assert abs(convex - 200) < 3.0 * math.sqrt(400 * 0.25)


class _Tagged:
    def __init__(self, label):
        self.label = label


def test_partition_single_client_gets_all():
    data = [_Tagged(i % 2) for i in range(10)]
    shards = partition_clients(data, 1, 0.5, Rng(0))
    assert shards == [data]


def test_partition_covers_dataset():
    data = [_Tagged(i % 3) for i in range(60)]
    shards = partition_clients(data, 4, 0.5, Rng(1))
    assert len(shards) == 4
    assert all(shards)
    flat = [id(s) for shard in shards for s in shard]
    assert sorted(flat) == sorted(id(s) for s in data)


def test_partition_high_alpha_near_uniform():
    data = [_Tagged(i % 2) for i in range(400)]
    sizes = []
    for seed in range(5):
        shards = partition_clients(data, 4, 1000.0, Rng(seed))
        sizes.extend(len(s) for s in shards)
    # Multinomial with near-equal cell probabilities: sd ~ sqrt(400*0.25*0.75).
    sd = math.sqrt(400 * 0.25 * 0.75)
    assert all(abs(s - 100) < 3.0 * sd for s in sizes)


def test_partition_low_alpha_skews():
    data = [_Tagged(0) for _ in range(200)]
    sizes = [
        max(len(s) for s in partition_clients(data, 4, 0.1, Rng(seed)))
        for seed in range(10)
    ]
    # With alpha = 0.1 at least some draws should be strongly concentrated.
    assert max(sizes) > 100


def test_partition_errors():
    with pytest.raises(ValueError):
        partition_clients([_Tagged(0)], 0, 0.5, Rng(0))
    with pytest.raises(ValueError):
        partition_clients([_Tagged(0)], 1, 0.0, Rng(0))
    with pytest.raises(TooFewSamples):
        partition_clients([_Tagged(0)], 2, 0.5, Rng(0))


def test_partition_deterministic():
    data = [_Tagged(i % 2) for i in range(40)]
    a = partition_clients(data, 3, 0.5, Rng(7))
    b = partition_clients(data, 3, 0.5, Rng(7))
    assert [[id(x) for x in shard] for shard in a] == [
        [id(x) for x in shard] for shard in b
    ]
