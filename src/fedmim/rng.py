"""Deterministic, platform-independent random number generation.

xoshiro256** with splitmix64 seeding. Pure integer arithmetic masked to
64 bits, so the stream is identical on every platform regardless of the
host libc or numpy build. All stochastic behaviour in the package flows
through this generator.

Long draws step many streams together: ``lockstep_random`` and
``lockstep_rayleigh`` hold the states of n streams as one uint64 array
and advance them as one, the way parallel-stream generators step
independent xoshiro lanes (Blackman & Vigna, ACM TOMS 2021; Salmon et
al., SC 2011). The step is linear over GF(2), so the state d draws ahead
is p(A) s with p = x**d mod the step's characteristic polynomial
(Haramoto et al., INFORMS J. Computing 2008). A long stream is cut into
sub-lanes, each started from the stream's state jumped ahead to its first
draw, and all sub-lanes step together: the sequential steps drop from
count to 256 + count / sub. Each draw is still exactly its own stream's
draw, and each ``Rng`` is left at the end state it would reach alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
# Kept draws times lanes per block of lockstep draws: bounds the uint64
# draws and the float64 values one block holds (512 KiB each).
_BLOCK_WORDS = 1 << 16
_UNIT = 1.0 / (1 << 53)
# The characteristic polynomial of xoshiro256's state step A over GF(2),
# bit i the coefficient of x**i. The state d steps ahead of s is p(A) s
# for p = x**d mod _CHARPOLY (Haramoto et al., INFORMS J. Computing 2008);
# tests/oracles.py derives it again by Berlekamp-Massey.
_CHARPOLY = 0x10003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001
_DEGREE = 256
# A long draw is cut into at most _MAX_SUB_LANES jumped sub-lanes per
# stream and _LANE_BUDGET sub-lanes in all, past which wider steps stop
# paying for the jump.
_MAX_SUB_LANES = 64
_LANE_BUDGET = 2048
# Shift counts as uint64 arrays: a Python int costs a conversion per call.
_SHIFT_17, _SHIFT_19, _SHIFT_45 = (np.array(k, dtype=np.uint64) for k in (17, 19, 45))


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def mix_key(*parts: int) -> int:
    """Fold integers into a single 64-bit seed (for per-item derived rngs)."""
    state = 0
    for part in parts:
        state = (state ^ (part & _MASK)) & _MASK
        state, out = _splitmix64(state)
        state = out
    return state


class Rng:
    """Seedable xoshiro256** stream."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        state = self._seed
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        self._s = s
        self._gauss_cache: float | None = None

    def spawn(self, *parts: int) -> "Rng":
        """Derive an independent child stream keyed on this rng's seed.

        Depends only on the constructor seed, not on how much of the parent
        stream has been consumed.
        """
        return Rng(mix_key(self._seed, *parts))

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection (unbiased)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def normal(self) -> float:
        """Standard normal via Box-Muller (pairs cached)."""
        if self._gauss_cache is not None:
            z = self._gauss_cache
            self._gauss_cache = None
            return z
        while True:
            u1 = self.random()
            if u1 > 0.0:
                break
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def gamma(self, alpha: float) -> float:
        """Gamma(alpha, 1) via Marsaglia-Tsang; alpha < 1 uses the boost trick."""
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if alpha < 1.0:
            u = self.random()
            while u == 0.0:
                u = self.random()
            return self.gamma(alpha + 1.0) * u ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = self.random()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v
            if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def dirichlet(self, alpha: float, k: int) -> list[float]:
        """Symmetric Dirichlet(alpha) over k components."""
        draws = [self.gamma(alpha) for _ in range(k)]
        total = sum(draws)
        if total == 0.0:
            raise ValueError(f"Dirichlet alpha {alpha} is so small that all "
                             f"{k} Gamma draws underflow to 0")
        return [d / total for d in draws]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def _scramble(s1: np.ndarray) -> None:
    """Turn each s1 into the 53 high bits of xoshiro256**'s output for it
    (next_u64 >> 11), in place."""
    s1 *= np.uint64(5)
    high = s1 >> np.uint64(57)
    s1 <<= np.uint64(7)
    s1 |= high
    s1 *= np.uint64(9)
    s1 >>= np.uint64(11)


def _stepper(s: np.ndarray):
    """A function that advances the (4, k) uint64 xoshiro256 states s by
    one step in place. Its views of s are made once, not per step."""
    s1, s2, s3 = s[1], s[2], s[3]
    low, high, swapped = s[0:2], s[2:4], s[3:1:-1]
    t = np.empty_like(s1)
    xor, lsh, rsh, bor = np.bitwise_xor, np.left_shift, np.right_shift, np.bitwise_or

    def step() -> None:
        lsh(s1, _SHIFT_17, t)
        xor(high, low, high)  # s2 ^= s0, s3 ^= s1
        xor(low, swapped, low)  # s0 ^= s3, s1 ^= s2
        xor(s2, t, s2)
        lsh(s3, _SHIFT_45, t)  # s3 = rotl(s3, 45)
        rsh(s3, _SHIFT_19, s3)
        bor(s3, t, s3)

    return step


def _mulmod(a: int, b: int) -> int:
    """a * b mod _CHARPOLY over GF(2), bit i of an int the coefficient of
    x**i. Loops over the set bits of a, so a monomial a costs one shift."""
    product = 0
    while a:
        low = a & -a
        product ^= b * low
        a ^= low
    while (top := product.bit_length() - 1) >= _DEGREE:
        product ^= _CHARPOLY << (top - _DEGREE)
    return product


def _x_pow(d: int) -> int:
    """x**d mod _CHARPOLY by square-and-multiply."""
    result = 1
    for bit in bin(d)[2:]:
        result = _mulmod(result, result)
        if bit == "1":
            result = _mulmod(2, result)
    return result


def _poly_masks(polys: list[int]) -> np.ndarray:
    """The (256, k, 1) uint64 table of k jump polynomials: entry [b, j] is
    all ones when polys[j] has the term x**b, else 0."""
    raw = b"".join(p.to_bytes(_DEGREE // 8, "little") for p in polys)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    masks = bits.reshape(len(polys), _DEGREE).T.astype(np.uint64) * np.uint64(_MASK)
    return masks[:, :, None]


@functools.lru_cache(maxsize=8)
def _jump_masks(count: int, m: int, sub: int) -> np.ndarray:
    """_poly_masks of x**count (column 0, the end state) and x**(j*m) for
    j = 1 .. sub-1 (sub-lane j's start), read-only."""
    ahead = _x_pow(m)
    polys = [_x_pow(count)]
    poly = 1
    for _ in range(1, sub):
        poly = _mulmod(ahead, poly)
        polys.append(poly)
    masks = _poly_masks(polys)
    masks.setflags(write=False)
    return masks


def _jump(s: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The (4, k, n) states p_j(A) s for the (4, n) states s and the k
    polynomials of masks, where A is one xoshiro256 step: column j is s
    jumped by the distance whose polynomial is p_j. Steps s in place."""
    ahead = s[:, None, :]  # A**b s, stepped once per bit b
    acc = np.zeros((4, masks.shape[1], s.shape[1]), dtype=np.uint64)
    term = np.empty_like(acc)
    step = _stepper(s)
    for b, mask in enumerate(masks):
        if b:
            step()
        np.bitwise_and(ahead, mask, out=term)
        acc ^= term
    return acc


def _cut(n: int, count: int) -> tuple[int, int]:
    """(sub, m): each of n streams of count draws is cut into sub sub-lanes
    of m draws (the last may hold fewer), m even. sub is 1, no jump, when
    too few sub-lanes fit the lane budget or when the jump would not at
    least halve the sequential steps."""
    sub = min(_LANE_BUDGET // n, count // 2, _MAX_SUB_LANES)
    if sub < 4:
        return 1, count
    m = 2 * -(-count // (2 * sub))
    if 2 * (_DEGREE + m) > count:
        return 1, count
    return -(-count // m), m


def _lockstep(rngs: list[Rng], out: np.ndarray, stride: int, convert) -> set[int]:
    """Fill row i of the (n, count) float64 array out with convert applied,
    in place, to the random() values of draws 0, stride, 2 * stride, ... of
    rngs[i]; the draws between are stepped, never stored. Returns the
    streams with a kept draw of 0; each Rng ends stride * count draws on.

    The states are held as one (4, sub * n) uint64 array and stepped
    together: stream i's sub-lane j starts from its state jumped ahead
    j * m draws, so m steps make all stride * count draws. One jump pass
    gives every sub-lane's start and each stream's end state. Each op runs
    once per block of kept draws, which goes into out as one transposed
    copy per sub-lane.
    """
    n, count = out.shape
    s = np.array([rng._s for rng in rngs], dtype=np.uint64).T.copy()
    sub, m = _cut(n, stride * count)
    if sub > 1:
        jumped = _jump(s.copy(), _jump_masks(stride * count, m, sub))
        end = jumped[:, 0].copy()
        jumped[:, 0] = s
        lanes = jumped.reshape(4, sub * n)
    else:
        lanes = end = s
    width, kept = sub * n, m // stride
    s1, step = lanes[1], _stepper(lanes)
    rows = max(1, min(kept, _BLOCK_WORDS // width))
    bits, values = np.empty((rows, width), dtype=np.uint64), np.empty((rows, width))
    zero: set[int] = set()
    for start in range(0, kept, rows):
        block = bits[:kept - start]
        for row in block:  # row = s1 before the steps, which fixes its draw
            row[...] = s1
            for _ in range(stride):
                step()
        _scramble(block)
        if not block.all():  # a draw of 0, about 2**-53 a draw
            zero.update(lane % n for r, lane in np.argwhere(block == 0).tolist()
                        if lane // n * kept + start + r < count)
        u = np.multiply(block, _UNIT, out=values[:len(block)])
        convert(u)
        for j, first in enumerate(range(start, count, kept)):  # sub-lane j
            piece = u[:count - first, j * n:(j + 1) * n]
            out[:, first:first + len(piece)] = piece.T
    for rng, state in zip(rngs, end.T.tolist()):
        rng._s = state
    return zero


def lockstep_random(rngs: list[Rng], out: np.ndarray) -> np.ndarray:
    """Fill row i of the (n, count) float64 array out with the next count
    values of rngs[i].random(), stepping the n streams together. Returns out."""
    if rngs:
        _lockstep(rngs, out, 1, lambda u: None)
    return out


def uniform_draws(rng: Rng, lo: float, hi: float, count: int) -> np.ndarray:
    """The next count values of rng.uniform(lo, hi), value for value: the
    lockstep draws u taken to lo + (hi - lo) * u."""
    return lo + (hi - lo) * lockstep_random([rng], np.empty((1, count)))[0]


def lockstep_rayleigh(rngs: list[Rng], out: np.ndarray) -> np.ndarray:
    """Fill row i of the (n, count) float64 array out with count Rayleigh(1)
    radii sqrt(-2 ln u1), each from one Box-Muller pair (u1, u2) of
    rngs[i], as Rng.normal draws a pair; u2 is stepped over to stay in step.

    A lane that draws u1 == 0, which Rng.normal draws again (about 2**-53
    a draw), is redone on the scalar path. Returns out.
    """
    if not rngs:
        return out
    starts = [list(rng._s) for rng in rngs]
    with np.errstate(divide="ignore"):  # a retry lane's u1 == 0
        retry = _lockstep(rngs, out, 2, lambda u1: np.sqrt(  # sqrt(-2 ln u1), in place
            np.multiply(np.log(u1, out=u1), -2.0, out=u1), out=u1))
    for lane in retry:
        rng = rngs[lane]
        rng._s = starts[lane]
        for i in range(out.shape[1]):
            u1 = rng.random()
            while u1 == 0.0:
                u1 = rng.random()
            rng.random()
            out[lane, i] = math.sqrt(-2.0 * math.log(u1))
    return out
