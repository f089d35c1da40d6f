"""Phantom generator: speckle, lesions, dataset mixing, client partitioning."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedmim import synth
from fedmim.errors import FedmimError
from fedmim.rng import Rng
from fedmim.smat import CONVEX, LINEAR, linear_to_convex
from fedmim.synth import (
    BENIGN,
    MALIGNANT,
    NONE,
    Lesion,
    LesionSpec,
    PhantomSpec,
    generate_dataset,
    generate_phantom,
    partition_clients,
    random_lesion,
)
from oracles import lesion_mask_full_grid


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
    ({"speckle_strength": math.nan}, "speckle_strength must be >= 0, got nan"),
    ({"background_level": math.nan}, "background_level must be finite, got nan"),
    ({"background_level": math.inf}, "background_level must be finite, got inf"),
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
    with pytest.raises(FedmimError, match=r"^lesion at \(2.0, 2.0\) with reach \(6.0, 6.0\) exceeds 16x16$"):
        generate_phantom(spec, Rng(0))


def test_lesion_with_nan_center_is_out_of_bounds():
    lesion = Lesion(math.nan, 8.0, 2.0, 2.0, -60.0, 0.0)
    spec = PhantomSpec(16, 16, 150.0, 0.0, lesion, BENIGN)
    with pytest.raises(FedmimError, match=r"^lesion at \(nan, 8.0\) with reach "):
        generate_phantom(spec, Rng(0))


TOP_IRREGULARITY = LesionSpec().irregularity_range[1]


@st.composite
def lesion_phantoms(draw) -> PhantomSpec:
    """A phantom of any shape with a lesion inside it: drawn by
    random_lesion, or built with irregularity 0, the top of the default
    irregularity_range or between (either sign), axes of either sign, and
    a center whose reach touches the low border, the high border or
    neither on each axis."""
    if draw(st.booleans()):
        # The default axis_range fits a lesion into 32 pixels or more.
        width, height = draw(st.integers(32, 80)), draw(st.integers(32, 80))
        label = draw(st.sampled_from([BENIGN, MALIGNANT]))
        lesion = random_lesion(width, height, label, Rng(draw(st.integers(0, 2**64 - 1))))
        return PhantomSpec(width, height, lesion=lesion, class_label=label)
    width, height = draw(st.integers(4, 80)), draw(st.integers(4, 80))
    irregularity = draw(st.sampled_from([0.0, TOP_IRREGULARITY])
                        | st.floats(-TOP_IRREGULARITY, TOP_IRREGULARITY))
    centers, axes = [], []
    for side in (width, height):
        # The lesion fits when its reach, |axis| (1 + |irregularity|), is
        # at most (side - 1) / 2.
        most = (side - 1) / (2.0 * (1.0 + abs(irregularity)))
        axis = draw(st.floats(0.5, most) | st.just(most))
        reach = axis * (1.0 + abs(irregularity))
        lo, hi = reach, side - 1 - reach
        assume(lo <= hi)
        center = draw(st.sampled_from([lo, hi]) | st.floats(lo, hi))
        assume(center - reach >= 0 and center + reach <= side - 1)
        centers.append(center)
        axes.append(-axis if draw(st.booleans()) else axis)
    lesion = Lesion(*centers, *axes, -60.0, irregularity)
    return PhantomSpec(width, height, lesion=lesion, class_label=MALIGNANT)


@given(lesion_phantoms(), st.integers(0, 2**64 - 1))
@example(PhantomSpec(9, 5, lesion=Lesion(2.0, 2.0, 2.0, 2.0, -60.0, 0.0)), 0)
@example(PhantomSpec(64, 40, lesion=Lesion(31.5, 19.5, 31.5 / 1.85, 19.5 / 1.85, -60.0,
                                           0.85)), 1)
@settings(max_examples=150, deadline=None)
def test_lesion_mask_on_its_box_matches_the_full_grid(spec, seed):
    box, full = Rng(seed), Rng(seed)
    assert synth._lesion_mask(spec, box).tobytes() == \
        lesion_mask_full_grid(spec, full).tobytes()
    assert box._s == full._s


def test_random_lesion_class_texture():
    rng = Rng(0)
    for _ in range(20):
        benign = random_lesion(64, 64, BENIGN, rng)
        assert benign.irregularity == 0.0
        malignant = random_lesion(64, 64, MALIGNANT, rng)
        assert 0.45 <= malignant.irregularity <= 0.85


def test_lesion_spec_defaults():
    spec = LesionSpec()
    assert spec.intensity_delta == -60.0
    assert spec.malignant_delta is None
    assert spec.irregularity_range == (0.45, 0.85)
    assert spec.axis_range == (0.14, 0.24)


@pytest.mark.parametrize("kwargs, message", [
    ({"axis_range": (0.3, 0.1)}, "axis_range must satisfy 0 < lo <= hi, got [0.3, 0.1]"),
    ({"axis_range": (0.0, 0.1)}, "axis_range must satisfy 0 < lo <= hi, got [0.0, 0.1]"),
    ({"axis_range": (math.nan, 0.1)},
     "axis_range must satisfy 0 < lo <= hi, got [nan, 0.1]"),
    ({"irregularity_range": (0.9, 0.5)},
     "irregularity_range must satisfy 0 <= lo <= hi, got [0.9, 0.5]"),
    ({"irregularity_range": (-0.1, 0.5)},
     "irregularity_range must satisfy 0 <= lo <= hi, got [-0.1, 0.5]"),
    ({"irregularity_range": (0.5, math.nan)},
     "irregularity_range must satisfy 0 <= lo <= hi, got [0.5, nan]"),
    ({"intensity_delta": math.nan}, "intensity_delta must be finite, got nan"),
    ({"intensity_delta": -math.inf}, "intensity_delta must be finite, got -inf"),
    ({"malignant_delta": math.nan}, "malignant_delta must be finite, got nan"),
    ({"malignant_delta": math.inf}, "malignant_delta must be finite, got inf"),
], ids=["axis-inverted", "axis-zero", "axis-nan", "irregularity-inverted",
        "irregularity-negative", "irregularity-nan", "intensity-nan", "intensity-inf",
        "malignant-nan", "malignant-inf"])
def test_lesion_spec_rejects_out_of_range(kwargs, message):
    with pytest.raises(ValueError) as err:
        LesionSpec(**kwargs)
    assert str(err.value) == message


def test_lesion_spec_accepts_closed_ranges():
    spec = LesionSpec(irregularity_range=(0.0, 0.0), axis_range=(0.2, 0.2))
    lesion = random_lesion(64, 64, MALIGNANT, Rng(0), spec)
    assert lesion.irregularity == 0.0
    assert lesion.axis_x == lesion.axis_y == 0.2 * 64


def test_random_lesion_malignant_delta_override():
    rng = Rng(1)
    spec = LesionSpec(intensity_delta=-75.0, malignant_delta=-95.0)
    b = random_lesion(64, 64, BENIGN, rng, spec)
    m = random_lesion(64, 64, MALIGNANT, rng, spec)
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
    for i, sample in enumerate(samples):
        rng = Rng(9).spawn(i)
        u = rng.random()
        label = BENIGN if u < mix[0] else MALIGNANT if u < mix[0] + mix[1] else NONE
        lesion = None if label == NONE else random_lesion(24, 16, label, rng)
        alone = generate_phantom(PhantomSpec(24, 16, lesion=lesion, class_label=label), rng)
        image, mask, mode = alone.image, alone.lesion_mask, LINEAR
        if rng.random() < 0.5:
            image = linear_to_convex(image)
            mask = (linear_to_convex(mask) >= 0.5).astype(np.float64)
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
    with pytest.raises(ValueError):
        generate_dataset(4, (math.nan, 0.5, 0.5), Rng(0))


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
    with pytest.raises(FedmimError, match="^1 samples cannot cover 2 clients$"):
        partition_clients([_Tagged(0)], 2, 0.5, Rng(0))


def test_partition_deterministic():
    data = [_Tagged(i % 2) for i in range(40)]
    a = partition_clients(data, 3, 0.5, Rng(7))
    b = partition_clients(data, 3, 0.5, Rng(7))
    assert [[id(x) for x in shard] for shard in a] == [
        [id(x) for x in shard] for shard in b
    ]
