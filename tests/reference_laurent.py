"""The kernel's earlier accumulator, comparison, series scanner and
formatter: one ``Fraction`` dict loop per operation, a separate term walk
for ``compare``, a character-by-character ``parse``, ``Fraction``-valued
``scalar_mul`` and ``series_from_json``, and ``format_series`` through
``Fraction.__str__``.

The library now sums products, additions and constructors in one
accumulator over integer parts, scales and formats from integer parts,
decides ``compare`` with the ``compare_scaled`` walk, and reads each series
term, with the connective after it, as one match of a compiled pattern. The differential tests in
``test_laurent.py`` check each pair against each other; for ``parse`` they
compare the series, or the error message and its position. Every function
here builds its result through this module's own ``normalize`` and
``as_rational``, so none shares the library's accumulator or rational
reader; only the value types, ``ZERO`` and the parse error are imported,
and every result is built through the public validating
``LaurentSeries(terms)`` constructor, so none shares a constructor with
the integer rows the library stores.
"""

import re
from fractions import Fraction
from typing import Iterable

from narch.laurent import (
    ZERO,
    LaurentSeries,
    Ordering,
    RationalLike,
    SeriesParseError,
)

_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_rational(value: RationalLike) -> Fraction:
    """An int, a grammar string such as ``-3/4``, or a Fraction as a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        denominator = int(match[2] or 1) if match else 0
        if denominator == 0:
            raise ValueError(f"not a rational: {value!r}")
        return Fraction(int(match[1]), denominator)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


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
    return LaurentSeries(tuple(sorted(acc.items())))


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
    return LaurentSeries(tuple(sorted(acc.items())))


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
    return LaurentSeries(tuple(sorted(acc.items())))


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


def parse(text: str) -> LaurentSeries:
    """Parse series text such as ``5 eps^-1 + 2 eps^3`` or ``0``, one character at a time.

    Grammar: ``series := term (("+" | "-") term)*``,
    ``term := rational ["eps^" integer]``,
    ``rational := ["-"] digits ["/" digits]``, where digits are ASCII
    ``0``-``9``; blanks between tokens are the ASCII whitespace
    characters only; an omitted exponent means ``eps^0``. Raises
    :class:`SeriesParseError` on malformed input.
    """
    pos = 0
    length = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < length and text[pos] in " \t\n\r\v\f":
            pos += 1

    def read_digits(what: str) -> int:
        nonlocal pos
        start = pos
        while pos < length and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            raise SeriesParseError(f"expected {what}", start)
        return int(text[start:pos])

    def read_term(sign: int) -> tuple[int, Fraction]:
        nonlocal pos
        skip_ws()
        if pos < length and text[pos] == "-":
            sign = -sign
            pos += 1
        numerator = read_digits("digits")
        denominator = 1
        if pos < length and text[pos] == "/":
            pos += 1
            den_pos = pos
            denominator = read_digits("denominator digits")
            if denominator == 0:
                raise SeriesParseError("denominator must be nonzero", den_pos)
        exponent = 0
        before_ws = pos
        skip_ws()
        if text.startswith("eps", pos):
            pos += 3
            if pos >= length or text[pos] != "^":
                raise SeriesParseError("expected '^' after 'eps'", pos)
            pos += 1
            exp_sign = 1
            if pos < length and text[pos] == "-":
                exp_sign = -1
                pos += 1
            exponent = exp_sign * read_digits("exponent digits")
        else:
            pos = before_ws
        return exponent, Fraction(sign * numerator, denominator)

    pairs = [read_term(1)]
    skip_ws()
    while pos < length:
        connective = text[pos]
        if connective not in "+-":
            raise SeriesParseError(f"expected '+' or '-', found {connective!r}", pos)
        pos += 1
        pairs.append(read_term(1 if connective == "+" else -1))
        skip_ws()
    return normalize(pairs)


def scalar_mul(q: RationalLike, a: LaurentSeries) -> LaurentSeries:
    scale = as_rational(q)
    if scale == 0:
        return ZERO
    if scale == 1:
        return a
    return LaurentSeries(tuple((e, scale * c) for e, c in a.terms))


def format_series(a: LaurentSeries) -> str:
    """Canonical text form, ascending exponents; inverse of :func:`parse`."""
    if not a.terms:
        return "0"
    first_exp, first_coeff = a.terms[0]
    parts = [f"{first_coeff} eps^{first_exp}"]
    for exponent, coeff in a.terms[1:]:
        connective = " + " if coeff > 0 else " - "
        parts.append(f"{connective}{abs(coeff)} eps^{exponent}")
    return "".join(parts)


def series_from_json(obj: object) -> LaurentSeries:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ValueError("series JSON must be an object with a 'terms' list")
    raw = obj["terms"]
    if not isinstance(raw, list):
        raise ValueError("'terms' must be a list of [exponent, coefficient] pairs")
    pairs = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"bad term entry {entry!r}")
        exponent, coeff = entry
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ValueError(f"bad exponent {exponent!r}")
        pairs.append((exponent, as_rational(coeff)))
    return normalize(pairs)
