"""Deterministic, platform-independent random number generation.

xoshiro256** with splitmix64 seeding. Pure integer arithmetic masked to
64 bits, so the stream is identical on every platform regardless of the
host libc or numpy build. All stochastic behaviour in the package flows
through this generator.

Per-pixel draws step many streams together: ``lockstep_random`` and
``lockstep_rayleigh`` hold n streams' states as one (4, n) uint64 array
and advance them as one, the way parallel-stream generators step
independent xoshiro lanes (Blackman & Vigna, ACM TOMS 2021; Salmon et
al., SC 2011). Each lane gets exactly the draws its ``Rng`` would give
alone and is left at the same end state.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
# Steps times lanes per block of lockstep draws: bounds the uint64
# history one block holds (128 KiB).
_BLOCK_WORDS = 1 << 14
_UNIT = 1.0 / (1 << 53)
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


def _scramble(s1: np.ndarray) -> np.ndarray:
    """Turn each s1 into the 53 high bits of xoshiro256**'s output for it
    (next_u64 >> 11), in place. Returns s1."""
    s1 *= np.uint64(5)
    high = s1 >> np.uint64(57)
    s1 <<= np.uint64(7)
    s1 |= high
    s1 *= np.uint64(9)
    s1 >>= np.uint64(11)
    return s1


def _lockstep_draws(rngs: list[Rng], count: int):
    """Yield (start, bits) for the next count draws of every rng in blocks:
    bits[j, i] is next_u64() >> 11 of rngs[i]'s draw start + j. The states
    are held as one (4, n) uint64 array and stepped together, and each Rng
    is left at its lane's end state after the last block. Every block but
    the last has an even number of draws."""
    n = len(rngs)
    s = np.array([rng._s for rng in rngs], dtype=np.uint64).T.copy()
    s1, s2, s3 = s[1], s[2], s[3]
    low, high, swapped = s[0:2], s[2:4], s[3:1:-1]
    t = np.empty_like(s1)
    xor, lsh, rsh, bor = np.bitwise_xor, np.left_shift, np.right_shift, np.bitwise_or
    step = max(2, _BLOCK_WORDS // n) & ~1
    for start in range(0, count, step):
        hist = np.empty((min(step, count - start), n), dtype=np.uint64)
        for row in hist:  # row = s1 before the step, which fixes its draw
            row[...] = s1
            lsh(s1, _SHIFT_17, t)
            xor(high, low, high)  # s2 ^= s0, s3 ^= s1
            xor(low, swapped, low)  # s0 ^= s3, s1 ^= s2
            xor(s2, t, s2)
            lsh(s3, _SHIFT_45, t)  # s3 = rotl(s3, 45)
            rsh(s3, _SHIFT_19, s3)
            bor(s3, t, s3)
        yield start, _scramble(hist)
    for rng, state in zip(rngs, s.T.tolist()):
        rng._s = state


def lockstep_random(rngs: list[Rng], out: np.ndarray) -> np.ndarray:
    """Fill row i of the (n, count) float64 array out with the next count
    values of rngs[i].random(), stepping the n streams together. Returns out."""
    if rngs:
        for start, bits in _lockstep_draws(rngs, out.shape[1]):
            np.multiply(bits.T, _UNIT, out=out[:, start:start + len(bits)])
    return out


def lockstep_rayleigh(rngs: list[Rng], out: np.ndarray) -> np.ndarray:
    """Fill row i of the (n, count) float64 array out with count Rayleigh(1)
    radii sqrt(-2 ln u1), each from one Box-Muller pair (u1, u2) of
    rngs[i], as Rng.normal draws a pair; u2 is drawn to stay in step.

    A lane that draws u1 == 0, which Rng.normal draws again (about 2**-53
    a draw), is redone on the scalar path. Returns out.
    """
    if not rngs:
        return out
    count = out.shape[1]
    starts = [list(rng._s) for rng in rngs]
    retry: set[int] = set()
    for start, bits in _lockstep_draws(rngs, 2 * count):
        u1 = bits[0::2]
        retry.update(np.flatnonzero((u1 == 0).any(axis=0)).tolist())
        block = out[:, start // 2:start // 2 + len(u1)]
        np.multiply(u1.T, _UNIT, out=block)
        with np.errstate(divide="ignore"):  # a retry lane's u1 == 0
            np.log(block, out=block)
        block *= -2.0
        np.sqrt(block, out=block)
    for lane in retry:
        rng = rngs[lane]
        rng._s = starts[lane]
        for i in range(count):
            u1 = rng.random()
            while u1 == 0.0:
                u1 = rng.random()
            rng.random()
            out[lane, i] = math.sqrt(-2.0 * math.log(u1))
    return out
