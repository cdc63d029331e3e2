"""Shared hypothesis strategies for exact values."""

from fractions import Fraction
from math import ceil, floor

from hypothesis import strategies as st

from narch.laurent import LaurentSeries, normalize


def rationals(min_value=-10, max_value=10, max_denominator=12):
    return st.fractions(
        min_value=Fraction(min_value),
        max_value=Fraction(max_value),
        max_denominator=max_denominator,
    )


def fraction_grid(min_value, max_value, max_denominator):
    """The support of ``st.fractions`` with these arguments, ascending.

    ``st.sampled_from`` over it draws the same values many times faster.
    """
    low, high = Fraction(min_value), Fraction(max_value)
    return sorted({
        Fraction(p, q)
        for q in range(1, max_denominator + 1)
        for p in range(ceil(low * q), floor(high * q) + 1)
    })


def thresholds():
    return st.fractions(
        min_value=Fraction(1, 8), max_value=Fraction(4), max_denominator=8
    )


def series(min_exp=-5, max_exp=6, max_terms=4) -> st.SearchStrategy[LaurentSeries]:
    pairs = st.lists(
        st.tuples(st.integers(min_exp, max_exp), rationals()),
        max_size=max_terms,
    )
    return pairs.map(normalize)


def nonzero_series():
    return series().filter(lambda a: not a.is_zero())
