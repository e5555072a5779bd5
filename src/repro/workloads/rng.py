"""A pure-Python ``numpy.random.default_rng(seed)``, draw for draw.

The dataset generators were written against numpy's default
generator (PCG64 seeded through ``SeedSequence``), and the 84 goldens
pin what they produced.  :class:`Generator` reproduces that stream bit
for bit without importing numpy, for exactly the calls the generators
make:

* ``integers(low, high[, size])`` -- numpy's Lemire rejection on 32-
  or 64-bit draws, sharing PCG64's buffered upper 32-bit half;
* ``random([size])``, ``normal(loc, scale)`` (the ziggurat of
  :mod:`repro.workloads._ziggurat`) and ``geometric(p)``;
* ``permutation(n)`` -- Fisher-Yates with masked rejection;
* ``choice(n, size, p=...)`` -- inverse CDF over the running sum;
* ``choice(n, size, replace=False)`` -- Floyd's algorithm then a
  Lemire shuffle, numpy's path for ``n <= 10000``.

Anything else numpy offers is deliberately absent.  The property tests
in ``tests/workloads/test_rng.py`` compare every method with numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.workloads._ziggurat import FE, FI, KE, KI, WE, WI

__all__ = ["Generator"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Ziggurat tail starts (numpy/random/src/distributions/ziggurat_constants.h).
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
_EXP_R = 7.6971174701310497140446280481

#: numpy's switch from the search to the inversion geometric sampler.
_GEOMETRIC_SEARCH_P = 0.333333333333333333333333
_INT64_MAX = (1 << 63) - 1


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> _XSHIFT

    pool = [
        hashmix(entropy[i] if i < len(entropy) else 0)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> _XSHIFT)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, len(halves), 2)]


class Generator:
    """What ``numpy.random.default_rng(seed)`` returns, restricted to
    the calls above."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        s0, s1, s2, s3 = _seed_words(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state = (self._state + (s0 << 64 | s1)) & _M128
        self._next64()
        #: The upper half of the last 64-bit draw ``_next32`` split,
        #: or None -- PCG64's ``has_uint32``/``uinteger`` pair.
        self._half: Optional[int] = None

    # -- raw draws -----------------------------------------------------------

    def _next64(self) -> int:
        """Step the LCG, then output XSL-RR of the new state."""
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        draw = self._next64()
        self._half = draw >> 32
        return draw & _M32

    def _next_double(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def _bounded(self, rng: int) -> int:
        """A uniform integer in ``[0, rng]`` by Lemire's method."""
        if rng == 0:
            return 0
        if rng <= _M32:
            if rng == _M32:
                return self._next32()
            draw, bits, mask = self._next32, 32, _M32
        elif rng == _M64:
            return self._next64()
        else:
            draw, bits, mask = self._next64, 64, _M64
        excl = rng + 1
        m = draw() * excl
        leftover = m & mask
        if leftover < excl:
            threshold = (mask - rng) % excl
            while leftover < threshold:
                m = draw() * excl
                leftover = m & mask
        return m >> bits

    def _interval(self, top: int) -> int:
        """A uniform integer in ``[0, top]`` by masked rejection."""
        mask = (1 << top.bit_length()) - 1
        draw = self._next32 if top <= _M32 else self._next64
        while True:
            value = draw() & mask
            if value <= top:
                return value

    # -- the numpy calls -----------------------------------------------------

    def integers(self, low: int, high: int, size: Optional[int] = None):
        """Uniform integers in ``[low, high)``: one, or a list of ``size``."""
        if high <= low:
            raise ValueError(f"high must exceed low, got [{low}, {high})")
        rng = high - 1 - low
        if size is None:
            return low + self._bounded(rng)
        bounded = self._bounded
        return [low + bounded(rng) for _ in range(size)]

    def random(self, size: Optional[int] = None):
        """Uniform floats in ``[0, 1)``: one, or a list of ``size``."""
        if size is None:
            return self._next_double()
        draw = self._next_double
        return [draw() for _ in range(size)]

    def normal(self, loc: float, scale: float) -> float:
        return loc + scale * self._standard_normal()

    def geometric(self, p: float) -> int:
        """Trials up to and including the first success."""
        if p >= _GEOMETRIC_SEARCH_P:
            u = self._next_double()
            x = 1
            total = prod = p
            q = 1.0 - p
            while u > total:
                prod *= q
                total += prod
                x += 1
            return x
        z = -self._standard_exponential() / math.log1p(-p)
        return _INT64_MAX if z >= 9.223372036854776e18 else math.ceil(z)

    def permutation(self, n: int) -> List[int]:
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            out[i], out[j] = out[j], out[i]
        return out

    def choice(
        self,
        n: int,
        size: int,
        replace: bool = True,
        p: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """``size`` draws from ``range(n)``: weighted by ``p`` (with
        replacement) or distinct (``replace=False``, no ``p``)."""
        if replace:
            cdf = list(accumulate(p))
            total = cdf[-1]
            cdf = [c / total for c in cdf]
            uniforms = self.random(size)
            return [bisect_right(cdf, u) for u in uniforms]
        if size > n:
            raise ValueError(f"cannot take {size} distinct values of {n}")
        chosen = set()
        picks = []
        for j in range(n - size, n):
            value = self._bounded(j)
            if value in chosen:
                value = j
            chosen.add(value)
            picks.append(value)
        for i in range(size - 1, 0, -1):
            k = self._bounded(i)
            picks[i], picks[k] = picks[k], picks[i]
        return picks

    # -- ziggurat samplers ---------------------------------------------------

    def _standard_normal(self) -> float:
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = r >> 1 & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        if rabs >> 8 & 1:
                            return -(_NOR_R + xx)
                        return _NOR_R + xx
            elif ((FI[idx - 1] - FI[idx]) * self._next_double() + FI[idx]
                  < math.exp(-0.5 * x * x)):
                return x

    def _standard_exponential(self) -> float:
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return x
            if idx == 0:
                return _EXP_R - math.log1p(-self._next_double())
            if ((FE[idx - 1] - FE[idx]) * self._next_double() + FE[idx]
                    < math.exp(-x)):
                return x
