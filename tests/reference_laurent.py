"""The kernel's earlier accumulator and comparison: one dict loop per
operation and a separate term walk for ``compare``.

The library now sums every operation's terms in one accumulator and
decides ``compare`` with the ``compare_scaled`` walk; the differential
tests in ``test_laurent.py`` check the two against each other.
"""

from fractions import Fraction
from typing import Iterable

from narch.laurent import LaurentSeries, Ordering, RationalLike, _raw, as_rational


def normalize(pairs: Iterable[tuple[int, RationalLike]]) -> LaurentSeries:
    """Build a series from raw (exponent, coefficient) pairs.

    Duplicate exponents are summed, zero coefficients dropped, exponents
    sorted ascending.
    """
    acc: dict[int, Fraction] = {}
    for exponent, raw in pairs:
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError(f"exponent {exponent!r} is not an integer")
        coeff = acc.get(exponent, Fraction(0)) + as_rational(raw)
        if coeff == 0:
            acc.pop(exponent, None)
        else:
            acc[exponent] = coeff
    return _raw(tuple(sorted(acc.items())))


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    if not b.terms:
        return a
    if not a.terms:
        return b
    acc = dict(a.terms)
    for exponent, coeff in b.terms:
        total = acc.get(exponent, Fraction(0)) + coeff
        if total == 0:
            acc.pop(exponent, None)
        else:
            acc[exponent] = total
    return _raw(tuple(sorted(acc.items())))


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Convolution product over the finite supports."""
    acc: dict[int, Fraction] = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            exponent = ea + eb
            total = acc.get(exponent, Fraction(0)) + ca * cb
            if total == 0:
                acc.pop(exponent, None)
            else:
                acc[exponent] = total
    return _raw(tuple(sorted(acc.items())))


def compare(a: LaurentSeries, b: LaurentSeries) -> Ordering:
    """Three-way comparison at the smallest exponent where a and b differ.

    Absent terms count as coefficient 0, so a series whose first surplus
    term is positive is the greater one at that exponent.
    """
    ta, tb = a.terms, b.terms
    i = j = 0
    while i < len(ta) and j < len(tb):
        ea, ca = ta[i]
        eb, cb = tb[j]
        if ea == eb:
            if ca != cb:
                return Ordering.LESS if ca < cb else Ordering.GREATER
            i += 1
            j += 1
        elif ea < eb:
            return Ordering.GREATER if ca > 0 else Ordering.LESS
        else:
            return Ordering.LESS if cb > 0 else Ordering.GREATER
    if i < len(ta):
        return Ordering.GREATER if ta[i][1] > 0 else Ordering.LESS
    if j < len(tb):
        return Ordering.LESS if tb[j][1] > 0 else Ordering.GREATER
    return Ordering.EQUAL
