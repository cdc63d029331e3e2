"""Exact formal Laurent series over the rationals with lexicographic order.

A value is a finite sum of terms ``c * eps^e`` with rational coefficient
``c`` and integer exponent ``e``, kept in normalized form: exponents
strictly ascending, no zero coefficients, the empty sum is zero. ``eps``
behaves as a positive infinitesimal, so ``1 eps^1`` sits below every
positive rational while ``1 eps^-1`` sits above every rational. Two series
are ordered by comparing coefficients at the smallest exponent where they
differ.

Coefficients are exact :class:`fractions.Fraction` values, never floats,
so ordering decisions are never corrupted by rounding. All values are
immutable and all functions are pure; sharing across threads is safe.

Division of series is deliberately absent: the inverse of a finite-support
series generally has infinite support.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Tuple, Union

RationalLike = Union[Fraction, int, str]
TermPair = Tuple[int, Fraction]
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # rational := ["-"] digits ["/" digits]
_BLANKS = "[ \t\n\r\v\f]*"  # ASCII whitespace only
# One series term with the blanks around it. The digit runs may be empty,
# so that parse reports a missing run at its own offset.
_TERM = re.compile(
    rf"{_BLANKS}(-?)([0-9]*)(?:/([0-9]*))?(?:{_BLANKS}(eps)(?:\^(-?)([0-9]*))?)?{_BLANKS}"
)


class Ordering(Enum):
    """Result of a three-way exact comparison."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


@total_ordering
class PlusInfinity:
    """Order marker for the zero series.

    Greater than every integer and equal to itself, stated once in ``__lt__``
    (``total_ordering`` derives the rest); absorbs integer addition.
    """

    _instance: "PlusInfinity | None" = None

    def __new__(cls) -> "PlusInfinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PlusInfinity"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlusInfinity)

    def __hash__(self) -> int:
        return hash("PlusInfinity")

    def __lt__(self, other: object):
        if isinstance(other, (int, PlusInfinity)):
            return False
        return NotImplemented

    def __add__(self, other: object):
        if isinstance(other, (int, PlusInfinity)):
            return self
        return NotImplemented

    __radd__ = __add__


PLUS_INFINITY = PlusInfinity()

OrderValue = Union[int, PlusInfinity]


def _integer(value: object, what: str = "exponent") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _rational_parts(value: RationalLike) -> tuple[int, int]:
    # (numerator, denominator > 0), unreduced for text; str and int skip the ABC test
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        denominator = int(match[2] or 1) if match else 0
        if denominator == 0:
            raise ValueError(f"not a rational: {value!r}")
        return int(match[1]), denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, a string such as ``-3/4``, or a Fraction to a Fraction.

    Floats are rejected: every quantity in this package is exact. Strings
    must match the series grammar's ``rational := ["-"] digits ["/" digits]``
    exactly, with ASCII digits and a nonzero denominator. ``Fraction``
    itself would also read ``1e-1``, ``0.5``, ``1_0``, ``+3``, surrounding
    blanks and other Unicode digits, such as ``"١"``.
    """
    return value if isinstance(value, Fraction) else Fraction(*_rational_parts(value))


@total_ordering
@dataclass(frozen=True)
class LaurentSeries:
    """A finite-support formal Laurent series with rational coefficients.

    ``terms`` holds (exponent, coefficient) pairs, strictly ascending by
    exponent, with no zero coefficients; the empty tuple is the zero
    series. Build values through :func:`normalize`, :func:`monomial` or
    :func:`parse` rather than by hand; the constructor validates but does
    not repair. ``__lt__`` states the order through :func:`compare`, and
    ``total_ordering`` derives the rest.
    """

    terms: tuple[TermPair, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(tuple(pair) for pair in self.terms))
        previous = None
        for pair in self.terms:
            if len(pair) != 2:
                raise ValueError(f"term {pair!r} is not an (exponent, coefficient) pair")
            exponent, coeff = pair
            _integer(exponent)
            if not isinstance(coeff, Fraction):
                raise TypeError(f"coefficient {coeff!r} is not a Fraction")
            if coeff == 0:
                raise ValueError("normalized series cannot store a zero coefficient")
            if previous is not None and exponent <= previous:
                raise ValueError("exponents must be strictly ascending and unique")
            previous = exponent

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> OrderValue:
        """Smallest exponent carrying a nonzero coefficient; infinite for zero."""
        if not self.terms:
            return PLUS_INFINITY
        return self.terms[0][0]

    def leading_coeff(self) -> Fraction:
        """Coefficient at the order, or 0 for the zero series."""
        if not self.terms:
            return Fraction(0)
        return self.terms[0][1]

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if isinstance(other, LaurentSeries):
            return add(self, other)
        return NotImplemented

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if isinstance(other, LaurentSeries):
            return sub(self, other)
        return NotImplemented

    def __neg__(self) -> "LaurentSeries":
        return neg(self)

    def __mul__(self, other: object) -> "LaurentSeries":
        if isinstance(other, LaurentSeries):
            return mul(self, other)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return scalar_mul(other, self)
        return NotImplemented

    __rmul__ = __mul__  # reached only with a non-series left operand; both products commute

    def __lt__(self, other: "LaurentSeries") -> bool:
        if isinstance(other, LaurentSeries):
            return compare(self, other) is Ordering.LESS
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"LaurentSeries({format_series(self)!r})"


ZERO = LaurentSeries()
ONE = LaurentSeries(((0, Fraction(1)),))


def _raw(terms: tuple[TermPair, ...]) -> LaurentSeries:
    # Arithmetic-internal constructor: callers guarantee the normalized-form
    # invariants, so the validating __init__ is bypassed.
    series = object.__new__(LaurentSeries)
    object.__setattr__(series, "terms", terms)
    return series


def _collect(triples: Iterable[tuple[int, int, int]]) -> LaurentSeries:
    # The one coefficient accumulator of constructors and products, over checked
    # (exponent, numerator, denominator > 0) integers: sums stay integer pairs,
    # and one Fraction, which reduces, is built per surviving term.
    acc: dict[int, tuple[int, int]] = {}
    for exponent, num, den in triples:
        if exponent in acc:
            n, d = acc[exponent]
            acc[exponent] = (n + num, d) if d == den else (n * den + num * d, d * den)
        else:
            acc[exponent] = (num, den)
    return _raw(tuple([(e, Fraction(n, d)) for e, (n, d) in sorted(acc.items()) if n]))


def normalize(pairs: Iterable[tuple[int, RationalLike]]) -> LaurentSeries:
    """Build a series from raw (exponent, coefficient) pairs.

    Duplicate exponents are summed, zero coefficients dropped, exponents
    sorted ascending.
    """
    return _collect((_integer(e), *_rational_parts(c)) for e, c in pairs)


def monomial(coefficient: RationalLike, exponent: int) -> LaurentSeries:
    """The single-term series ``coefficient * eps^exponent`` (zero if c = 0)."""
    _integer(exponent)
    coeff = as_rational(coefficient)
    if coeff == 0:
        return ZERO
    return _raw(((exponent, coeff),))


def embed_rational(value: RationalLike) -> LaurentSeries:
    """Embed a rational as the eps^0 term; this embedding preserves order."""
    return monomial(value, 0)


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Merge of the two ascending term tuples; coefficients meet only at shared exponents."""
    ta, tb = a.terms, b.terms
    terms, i, j = [], 0, 0
    while i < len(ta) and j < len(tb):
        ea, eb = ta[i][0], tb[j][0]
        if ea != eb:
            terms.append(ta[i] if ea < eb else tb[j])
        elif total := ta[i][1] + tb[j][1]:
            terms.append((ea, total))
        i += ea <= eb  # past the lower exponent, or past both where they meet
        j += eb <= ea
    return _raw((*terms, *ta[i:], *tb[j:]))


def neg(a: LaurentSeries) -> LaurentSeries:
    return _raw(tuple((e, -c) for e, c in a.terms))


def sub(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return add(a, neg(b))


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Convolution product over the finite supports, summed as integers."""
    pa = [(e, c.numerator, c.denominator) for e, c in a.terms]
    pb = [(e, c.numerator, c.denominator) for e, c in b.terms]
    return _collect([(ea + eb, na * nb, da * db) for ea, na, da in pa for eb, nb, db in pb])


def scalar_mul(q: RationalLike, a: LaurentSeries) -> LaurentSeries:
    num, den = _rational_parts(q)
    if num == 0:
        return ZERO
    if num == den:
        return a
    return _raw(tuple((e, Fraction(num * c.numerator, den * c.denominator)) for e, c in a.terms))


def compare(a: LaurentSeries, b: LaurentSeries) -> Ordering:
    """Three-way comparison at the smallest exponent where a and b differ.

    Absent terms count as coefficient 0, so a series whose first surplus
    term is positive is the greater one at that exponent.
    """
    return compare_scaled(a, 1, b, 1)


def compare_scaled(a: LaurentSeries, ka: int, b: LaurentSeries, kb: int) -> Ordering:
    """Compare ka * a against kb * b for positive integer scales.

    The one term-by-term walk; :func:`compare` is scales (1, 1). The
    result equals comparing ``scalar_mul(ka, a)`` with ``scalar_mul(kb, b)``,
    but coefficient components are cross-multiplied as integers, so
    nothing is allocated. Positive scaling preserves signs, which keeps
    the surplus-term cases unchanged.
    """
    if _integer(ka, "scale") < 1 or _integer(kb, "scale") < 1:
        raise ValueError("scales must be positive")
    ta, tb = a.terms, b.terms
    i = j = 0
    while i < len(ta) and j < len(tb):
        ea, ca = ta[i]
        eb, cb = tb[j]
        if ea == eb:
            lhs = ka * ca.numerator * cb.denominator
            rhs = kb * cb.numerator * ca.denominator
            if lhs != rhs:
                return Ordering.LESS if lhs < rhs else Ordering.GREATER
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


def order(a: LaurentSeries) -> OrderValue:
    return a.order()


def leading_coeff(a: LaurentSeries) -> Fraction:
    return a.leading_coeff()


class SeriesParseError(ValueError):
    """Malformed series text; ``position`` is the zero-based character offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse(text: str) -> LaurentSeries:
    """Parse series text such as ``5 eps^-1 + 2 eps^3`` or ``0``.

    Grammar: ``series := term (("+" | "-") term)*``,
    ``term := rational ["eps^" integer]``,
    ``rational := ["-"] digits ["/" digits]``, where digits are ASCII
    ``0``-``9``; blanks between tokens are the ASCII whitespace
    characters only; an omitted exponent means ``eps^0``. Each term is
    one match of ``_TERM``. A :class:`SeriesParseError` points at the
    first character of a missing digit run, at the first digit of a zero
    denominator, just after an ``eps`` without ``^``, or at a character
    that is not a connective.
    """
    triples, pos, sign = [], 0, 1
    while True:
        term = _TERM.match(text, pos)  # every part is optional: the match never fails
        minus, num, den, eps, exp_minus, exp = term.groups()
        if not num:
            raise SeriesParseError("expected digits", term.start(2))
        if den == "":
            raise SeriesParseError("expected denominator digits", term.start(3))
        if den is not None and not int(den):
            raise SeriesParseError("denominator must be nonzero", term.start(3))
        if eps and exp is None:
            raise SeriesParseError("expected '^' after 'eps'", term.end(4))
        if exp == "":
            raise SeriesParseError("expected exponent digits", term.start(6))
        exponent = int(exp_minus + exp) if eps else 0
        triples.append((exponent, sign * int(minus + num), int(den or 1)))
        pos = term.end()
        if pos == len(text):
            return _collect(triples)
        if text[pos] not in "+-":
            raise SeriesParseError(f"expected '+' or '-', found {text[pos]!r}", pos)
        sign = 1 if text[pos] == "+" else -1
        pos += 1


def _ratio_text(numerator: int, denominator: int, suffix: str = "") -> str:
    """numerator/denominator in lowest terms with one gcd, then ``suffix``; series and bandit cells."""
    divisor = math.gcd(numerator, denominator)
    if divisor == denominator:
        return f"{numerator // divisor}{suffix}"
    return f"{numerator // divisor}/{denominator // divisor}{suffix}"


def format_series(a: LaurentSeries) -> str:
    """Canonical text form, ascending exponents; inverse of :func:`parse`."""
    parts = []
    for exponent, coeff in a.terms:
        num = coeff.numerator
        if parts:  # a later term is joined by its sign
            parts.append(" + " if num > 0 else " - ")
            num = abs(num)
        parts.append(_ratio_text(num, coeff.denominator, f" eps^{exponent}"))
    return "".join(parts) or "0"


def series_to_json(a: LaurentSeries) -> dict:
    """JSON form ``{"terms": [[exponent, "num/den"], ...]}``, ascending."""
    return {"terms": [[e, f"{c.numerator}/{c.denominator}"] for e, c in a.terms]}


def series_from_json(obj: object) -> LaurentSeries:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ValueError("series JSON must be an object with a 'terms' list")
    raw = obj["terms"]
    if not isinstance(raw, list):
        raise ValueError("'terms' must be a list of [exponent, coefficient] pairs")
    triples = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"bad term entry {entry!r}")
        exponent, coeff = entry
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ValueError(f"bad exponent {exponent!r}")
        triples.append((exponent, *_rational_parts(coeff)))
    return _collect(triples)
