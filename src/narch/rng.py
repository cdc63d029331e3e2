"""Seeded xorshift64* generator so agent runs reproduce across implementations.

The algorithm is pinned exactly. State is one 64-bit word; each draw
updates it as

    s ^= s >> 12;  s ^= (s << 25) mod 2^64;  s ^= s >> 27

and outputs ``(s * 2685821657736338717) mod 2^64`` (the multiplier is
0x2545F4914F6CDD1D). A zero seed is replaced by the constant
0x9E3779B97F4A7C15, because the all-zero state is a fixed point of the
shift map. Any implementation following this recipe yields bit-identical
streams for equal seeds.
"""

from __future__ import annotations

from .laurent import RationalLike, _integer, as_rational

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_ZERO_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """Deterministic 64-bit generator; equal seeds give equal streams."""

    def __init__(self, seed: int) -> None:
        if not 0 <= _integer(seed, "seed") <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        self._state = seed if seed != 0 else _ZERO_SEED_SUBSTITUTE

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * _MULTIPLIER) & _MASK64

    def bernoulli(self, probability: RationalLike) -> bool:
        """True with the given rational probability, to 2^-64 granularity.

        Decided by the exact integer comparison u * den < num * 2^64 on one
        64-bit draw u, i.e. u < :func:`_threshold`; no floating point is involved.
        """
        return _threshold(probability) > self.next_u64()  # checks p before drawing


def _threshold(probability: RationalLike) -> int:
    """ceil(num * 2^64 / den) for p = num/den: a draw u has u * den < num * 2^64 iff u < it."""
    p = as_rational(probability)
    if not 0 <= p.numerator <= p.denominator:
        raise ValueError("probability must lie in [0, 1]")
    return -(-(p.numerator << 64) // p.denominator)
