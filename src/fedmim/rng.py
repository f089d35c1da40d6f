"""Deterministic, platform-independent random number generation.

xoshiro256** with splitmix64 seeding. Pure integer arithmetic masked to
64 bits, so the stream is identical on every platform regardless of the
host libc or numpy build. All stochastic behaviour in the package flows
through this generator.
"""

from __future__ import annotations

import math

_MASK = 0xFFFFFFFFFFFFFFFF


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
