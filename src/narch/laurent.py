"""Exact formal Laurent series over the rationals with lexicographic order.

A value is a finite sum of terms ``c * eps^e`` with rational coefficient
``c`` and integer exponent ``e``, kept in normalized form: exponents
strictly ascending, no zero coefficients, the empty sum is zero. ``eps``
behaves as a positive infinitesimal, so ``1 eps^1`` sits below every
positive rational while ``1 eps^-1`` sits above every rational. Two series
are ordered by comparing coefficients at the smallest exponent where they
differ.

Coefficients are exact rationals, never floats, so ordering decisions are
never corrupted by rounding. Inside the kernel each term is an integer row
``(exponent, numerator, denominator)`` kept in lowest terms by one
``math.gcd`` per result; :class:`fractions.Fraction` values appear only at
the boundary, in ``terms`` and ``leading_coeff()``; one reader gives a
value's first row, ``(PLUS_INFINITY, 0, 1)`` for zero. Values are
immutable and functions pure; sharing across threads is safe.

Division of series is deliberately absent: the inverse of a finite-support
series generally has infinite support.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Iterable, Tuple, Union

RationalLike = Union[Fraction, int, str]
TermPair = Tuple[int, Fraction]
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # rational := ["-"] digits ["/" digits]
_BLANK_CHARS = " \t\n\r\v\f"  # ASCII whitespace only
_BLANKS = f"[{_BLANK_CHARS}]*"
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


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, in constructor order, and
    its ``__init__`` validates the arguments and stores them through the
    slots' own setters (:func:`_slot_setters`), past the blocking
    ``__setattr__``. The field names, a parent's first, are the class's
    ``__match_args__``, as a dataclass's would be. Over the tuple of field
    values the base gives value semantics: ``==`` only between objects of
    the same class, the tuple's hash, the ``Name(field=value, ...)`` repr,
    and copy and pickle that rebuild through the validating constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        inherited = getattr(cls, "__match_args__", ())
        cls.__match_args__ = (*inherited, *cls.__dict__.get("__slots__", ()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # the default slot restore would go through the blocking __setattr__
        return type(self), self._fields()


def _slot_setters(cls: type) -> tuple:
    """The setter of each of ``cls``'s own slots, in ``__slots__`` order."""
    return tuple([getattr(cls, name).__set__ for name in cls.__slots__])


@total_ordering
class LaurentSeries(_Frozen):
    """A finite-support formal Laurent series with rational coefficients.

    A value is one tuple of integer rows ``(exponent, numerator,
    denominator)``: exponents strictly ascending, denominator positive,
    numerator nonzero, each row in lowest terms; the empty tuple is the
    zero series. The rows are canonical, so equality and hashing read
    them directly. ``terms`` gives the same value as (exponent,
    :class:`~fractions.Fraction`) pairs, built when read. Build values
    through :func:`normalize`, :func:`monomial` or :func:`parse` rather
    than by hand; the constructor takes such pairs and validates but does
    not repair. ``__lt__`` states the order through :func:`compare`, and
    ``total_ordering`` derives the rest. Values are immutable.
    """

    __slots__ = ("_rows",)

    def __init__(self, terms: Iterable[TermPair] = ()) -> None:
        terms = tuple(tuple(pair) for pair in terms)
        rows, previous = [], None
        for pair in terms:
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
            rows.append((exponent, coeff.numerator, coeff.denominator))
        _set_rows(self, tuple(rows))

    def __reduce__(self):
        # rebuilt from the pairs the validating constructor takes
        return LaurentSeries, (self.terms,)

    @property
    def terms(self) -> tuple[TermPair, ...]:
        """The (exponent, coefficient) pairs, ascending; coefficients are Fractions."""
        return tuple([(e, Fraction(n, d)) for e, n, d in self._rows])

    def is_zero(self) -> bool:
        return not self._rows

    def order(self) -> OrderValue:
        """Smallest exponent carrying a nonzero coefficient; infinite for zero."""
        return _leading_row(self)[0]

    def leading_coeff(self) -> Fraction:
        """Coefficient at the order, or 0 for the zero series."""
        _, num, den = _leading_row(self)
        return Fraction(num, den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentSeries):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

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
        return bool(self._rows)

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"LaurentSeries({format_series(self)!r})"


(_set_rows,) = _slot_setters(LaurentSeries)


def _raw(rows: tuple[tuple[int, int, int], ...]) -> LaurentSeries:
    # Arithmetic-internal constructor: callers guarantee the row invariants,
    # so the validating __init__ is bypassed.
    series = object.__new__(LaurentSeries)
    _set_rows(series, rows)
    return series


ZERO = _raw(())
ONE = _raw(((0, 1, 1),))
_ZERO_ROW = (PLUS_INFINITY, 0, 1)  # the zero series' leading row: infinite order, 0/1


def _leading_row(a: LaurentSeries) -> tuple:
    """The leading term's row (order, numerator, denominator): the first row, or ``_ZERO_ROW``."""
    return a._rows[0] if a._rows else _ZERO_ROW


def _reduced(exponent: int, num: int, den: int) -> tuple[int, int, int]:
    # The row for num/den (den > 0) at exponent, in lowest terms by one gcd.
    divisor = gcd(num, den)
    return exponent, num // divisor, den // divisor


def _collect(triples: Iterable[tuple[int, int, int]]) -> LaurentSeries:
    # The one coefficient accumulator of constructors and products, over checked
    # (exponent, numerator, denominator > 0) integers: sums stay integer pairs,
    # and each surviving sum is reduced to its row.
    acc: dict[int, tuple[int, int]] = {}
    for exponent, num, den in triples:
        if exponent in acc:
            n, d = acc[exponent]
            acc[exponent] = (n + num, d) if d == den else (n * den + num * d, d * den)
        else:
            acc[exponent] = (num, den)
    return _raw(tuple([_reduced(e, n, d) for e, (n, d) in sorted(acc.items()) if n]))


def normalize(pairs: Iterable[tuple[int, RationalLike]]) -> LaurentSeries:
    """Build a series from raw (exponent, coefficient) pairs.

    Duplicate exponents are summed, zero coefficients dropped, exponents
    sorted ascending.
    """
    return _collect((_integer(e), *_rational_parts(c)) for e, c in pairs)


def monomial(coefficient: RationalLike, exponent: int) -> LaurentSeries:
    """The single-term series ``coefficient * eps^exponent`` (zero if c = 0)."""
    _integer(exponent)
    num, den = _rational_parts(coefficient)
    if num == 0:
        return ZERO
    return _raw((_reduced(exponent, num, den),))


def embed_rational(value: RationalLike) -> LaurentSeries:
    """Embed a rational as the eps^0 term; this embedding preserves order."""
    return monomial(value, 0)


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Merge of the two ascending row tuples; coefficients meet only at shared exponents."""
    ra, rb = a._rows, b._rows
    rows, i, j = [], 0, 0
    while i < len(ra) and j < len(rb):
        ea, na, da = ra[i]
        eb, nb, db = rb[j]
        if ea != eb:
            rows.append(ra[i] if ea < eb else rb[j])
        else:
            n, d = (na + nb, da) if da == db else (na * db + nb * da, da * db)
            if n:
                rows.append(_reduced(ea, n, d))
        i += ea <= eb  # past the lower exponent, or past both where they meet
        j += eb <= ea
    return _raw((*rows, *ra[i:], *rb[j:]))


def neg(a: LaurentSeries) -> LaurentSeries:
    return _raw(tuple([(e, -n, d) for e, n, d in a._rows]))


def sub(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return add(a, neg(b))


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Convolution product over the finite supports, summed as integers."""
    rb = b._rows
    return _collect([(ea + eb, na * nb, da * db) for ea, na, da in a._rows for eb, nb, db in rb])


def scalar_mul(q: RationalLike, a: LaurentSeries) -> LaurentSeries:
    num, den = _rational_parts(q)
    if num == 0:
        return ZERO
    if num == den:
        return a
    return _raw(tuple([_reduced(e, num * n, den * d) for e, n, d in a._rows]))


def compare(a: LaurentSeries, b: LaurentSeries) -> Ordering:
    """Three-way comparison at the smallest exponent where a and b differ.

    Absent terms count as coefficient 0, so a series whose first surplus
    term is positive is the greater one at that exponent.
    """
    return compare_scaled(a, 1, b, 1)


def compare_scaled(a: LaurentSeries, ka: int, b: LaurentSeries, kb: int) -> Ordering:
    """Compare ka * a against kb * b for positive integer scales.

    The one comparison walk; :func:`compare` is scales (1, 1). The
    result equals comparing ``scalar_mul(ka, a)`` with ``scalar_mul(kb, b)``,
    but row integers are cross-multiplied, so nothing is allocated.
    Canonical rows put equal prefixes at equal positions, so one index
    walks both; past the shorter tuple, the longer one's next row decides.
    """
    if _integer(ka, "scale") < 1 or _integer(kb, "scale") < 1:
        raise ValueError("scales must be positive")
    ra, rb = a._rows, b._rows
    for (ea, na, da), (eb, nb, db) in zip(ra, rb):
        if ea < eb:
            return Ordering.GREATER if na > 0 else Ordering.LESS
        if ea > eb:
            return Ordering.LESS if nb > 0 else Ordering.GREATER
        lhs, rhs = ka * na * db, kb * nb * da
        if lhs != rhs:
            return Ordering.LESS if lhs < rhs else Ordering.GREATER
    if len(ra) > len(rb):
        return Ordering.GREATER if ra[len(rb)][1] > 0 else Ordering.LESS
    if len(rb) > len(ra):
        return Ordering.LESS if rb[len(ra)][1] > 0 else Ordering.GREATER
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


def format_series(a: LaurentSeries) -> str:
    """Canonical text form, ascending exponents; inverse of :func:`parse`.

    Rows are in lowest terms, so each is printed as it stands.
    """
    parts = []
    for exponent, num, den in a._rows:
        if parts:  # a later term is joined by its sign
            parts.append(" + " if num > 0 else " - ")
            num = abs(num)
        parts.append(f"{num} eps^{exponent}" if den == 1 else f"{num}/{den} eps^{exponent}")
    return "".join(parts) or "0"


def series_to_json(a: LaurentSeries) -> dict:
    """JSON form ``{"terms": [[exponent, "num/den"], ...]}``, ascending."""
    return {"terms": [[e, f"{n}/{d}"] for e, n, d in a._rows]}


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
