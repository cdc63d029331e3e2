import copy
import itertools
import math
import operator
import pickle
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narch.laurent import (
    LaurentSeries,
    ONE,
    Ordering,
    PLUS_INFINITY,
    SeriesParseError,
    ZERO,
    add,
    as_rational,
    compare,
    compare_scaled,
    embed_rational,
    format_series,
    leading_coeff,
    monomial,
    mul,
    neg,
    normalize,
    order,
    parse,
    scalar_mul,
    series_from_json,
    series_to_json,
    sub,
)

from . import reference_laurent as reference
from .strategies import nonzero_series, rationals, series


def s(text: str) -> LaurentSeries:
    return parse(text)


class TestNormalize:
    def test_merges_duplicate_exponents(self):
        assert normalize([(1, 2), (1, 3)]) == monomial(5, 1)

    def test_cancellation_gives_zero(self):
        assert normalize([(0, 1), (0, -1)]) == ZERO

    def test_orders_ascending(self):
        assert normalize([(3, 2), (-1, 5)]) == s("5 eps^-1 + 2 eps^3")

    def test_rejects_non_integer_exponent(self):
        with pytest.raises(TypeError):
            normalize([("1", 2)])


class TestConstructors:
    def test_monomial(self):
        assert monomial(5, -1) == s("5 eps^-1")
        assert monomial(0, 7) == ZERO
        assert monomial(1, 0) == ONE

    def test_embed_rational(self):
        assert embed_rational(Fraction(3, 2)) == s("3/2 eps^0")
        assert embed_rational(0) == ZERO
        assert embed_rational(-1) == s("-1 eps^0")

    @pytest.mark.parametrize("exponent", ["x", 1.5, True])
    def test_monomial_checks_exponent_of_zero(self, exponent):
        with pytest.raises(TypeError):
            monomial(0, exponent)

    def test_zero_monomial_is_zero(self):
        assert monomial(0, 3) is ZERO

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            LaurentSeries(((0, Fraction(0)),))
        with pytest.raises(ValueError):
            LaurentSeries(((1, Fraction(1)), (0, Fraction(1))))
        with pytest.raises(TypeError):
            LaurentSeries(((0, 1.5),))


class TestArithmetic:
    def test_additive_inverse(self):
        a = s("5 eps^-1")
        assert add(a, neg(a)) == ZERO

    def test_add_merges_terms(self):
        assert add(s("1 eps^0 + 2 eps^1"), s("3 eps^1")) == s("1 eps^0 + 5 eps^1")

    def test_sub(self):
        assert sub(ONE, monomial(1, 1)) == s("1 eps^0 - 1 eps^1")

    def test_mul_adds_exponents(self):
        assert mul(monomial(1, -1), monomial(1, 1)) == ONE

    def test_mul_polynomial_identity(self):
        a = s("1 eps^0 + 1 eps^1")
        b = s("1 eps^0 - 1 eps^1")
        assert mul(a, b) == s("1 eps^0 - 1 eps^2")

    def test_scalar_mul(self):
        assert scalar_mul(Fraction(1, 2), s("2 eps^-1 + 4 eps^3")) == s("1 eps^-1 + 2 eps^3")

    def test_operator_sugar(self):
        a = s("1 eps^0 + 1 eps^1")
        assert a + a == 2 * a
        assert a - a == ZERO
        assert -a == scalar_mul(-1, a)
        assert Fraction(1, 2) * (2 * a) == a


class TestCompare:
    def test_worked_example_greater(self):
        a = s("5 eps^-1 - 2 eps^0 + 3 eps^1 + 4 eps^2")
        b = s("5 eps^-1 - 2 eps^0 + 1 eps^1 + 4 eps^2 + 5 eps^6")
        assert compare(a, b) is Ordering.GREATER

    def test_worked_example_less(self):
        assert compare(s("999999 eps^5"), s("1/100000 eps^4")) is Ordering.LESS

    def test_zero_equal(self):
        assert compare(ZERO, ZERO) is Ordering.EQUAL

    def test_scaled_compare_stays_integer(self):
        big = monomial(10**17 + 1, 0)
        assert compare_scaled(big, 1, monomial(10**17, 0), 1) is Ordering.GREATER

    @pytest.mark.parametrize("scale", [1.0, True, Fraction(1)], ids=["float", "bool", "fraction"])
    def test_scaled_compare_rejects_non_integer_scales(self, scale):
        a, b = monomial(10**17 + 1, 0), monomial(10**17, 0)
        with pytest.raises(TypeError):
            compare_scaled(a, scale, b, 1)
        with pytest.raises(TypeError):
            compare_scaled(a, 1, b, scale)

    @pytest.mark.parametrize("scale", [0, -1])
    def test_scaled_compare_rejects_nonpositive_scales(self, scale):
        with pytest.raises(ValueError):
            compare_scaled(ONE, scale, ONE, 1)

    def test_dunders(self):
        assert s("1 eps^1") < ONE
        assert monomial(1, -1) > monomial(1000000, 0)
        assert ZERO <= ZERO


class TestOrderAndLeadingCoeff:
    def test_order(self):
        assert order(s("5 eps^-1 + 2 eps^3")) == -1
        assert order(ZERO) == PLUS_INFINITY
        assert order(monomial(3, 2)) == 2

    def test_leading_coeff(self):
        assert leading_coeff(s("5 eps^-1 + 2 eps^3")) == 5
        assert leading_coeff(ZERO) == 0
        assert leading_coeff(s("-2 eps^0 + 3 eps^1")) == -2

    def test_plus_infinity_marker(self):
        assert PLUS_INFINITY > 10**18
        assert not PLUS_INFINITY > PLUS_INFINITY
        assert PLUS_INFINITY == PLUS_INFINITY
        assert PLUS_INFINITY >= 0
        assert not PLUS_INFINITY < 5
        assert 3 < PLUS_INFINITY
        assert PLUS_INFINITY + 4 == PLUS_INFINITY
        assert 4 + PLUS_INFINITY == PLUS_INFINITY


class TestDerivedOperators:
    """The operators that ``total_ordering`` and ``__rmul__ = __mul__`` derive."""

    @given(series(), series())
    def test_six_comparisons_agree_with_compare(self, a, b):
        result = compare(a, b)
        assert (a < b) is (result is Ordering.LESS)
        assert (a <= b) is (result is not Ordering.GREATER)
        assert (a > b) is (result is Ordering.GREATER)
        assert (a >= b) is (result is not Ordering.LESS)
        assert (a == b) is (result is Ordering.EQUAL)
        assert (a != b) is (result is not Ordering.EQUAL)

    @given(series(), st.integers(-20, 20) | rationals())
    def test_scalar_product_commutes(self, a, k):
        assert k * a == a * k == scalar_mul(k, a)

    @given(st.integers(-(10**20), 10**20) | st.booleans())
    def test_plus_infinity_above_every_int(self, n):
        assert PLUS_INFINITY > n and PLUS_INFINITY >= n and PLUS_INFINITY != n
        assert not (PLUS_INFINITY < n or PLUS_INFINITY <= n or PLUS_INFINITY == n)
        assert n < PLUS_INFINITY and n <= PLUS_INFINITY
        assert not (n > PLUS_INFINITY or n >= PLUS_INFINITY)

    def test_plus_infinity_equals_itself(self):
        top = PLUS_INFINITY
        assert top == top and top <= top and top >= top
        assert not (top != top or top < top or top > top)

    @pytest.mark.parametrize("other", [Fraction(1), 1.5, None], ids=repr)
    def test_plus_infinity_against_non_integers_raises(self, other):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(PLUS_INFINITY, other)
            with pytest.raises(TypeError):
                op(other, PLUS_INFINITY)


class TestParseFormat:
    def test_parse_worked_example(self):
        assert parse("5 eps^-1 + 2 eps^3").terms == (
            (-1, Fraction(5)),
            (3, Fraction(2)),
        )

    def test_parse_zero(self):
        assert parse("0") == ZERO

    def test_parse_fractions_and_minus(self):
        assert parse("3/2 eps^0 - 1/4 eps^2") == normalize(
            [(0, Fraction(3, 2)), (2, Fraction(-1, 4))]
        )

    def test_parse_omitted_exponent(self):
        assert parse("7") == embed_rational(7)
        assert parse("-2/3") == embed_rational(Fraction(-2, 3))

    def test_parse_error_carries_position(self):
        with pytest.raises(SeriesParseError) as info:
            parse("(malformed")
        assert info.value.position == 0

    def test_parse_error_on_trailing_garbage(self):
        with pytest.raises(SeriesParseError):
            parse("1 eps^2 x")

    def test_parse_error_on_zero_denominator(self):
        with pytest.raises(SeriesParseError):
            parse("1/0")

    def test_parse_error_on_missing_caret(self):
        with pytest.raises(SeriesParseError):
            parse("1 eps2")

    @pytest.mark.parametrize(
        "text, position",
        [("\u0663 eps^\u0661", 0), ("\u00b2", 0), ("1 eps^\u00b2", 6)],
        ids=["arabic-indic", "superscript", "superscript-exponent"],
    )
    def test_parse_rejects_non_ascii_digits(self, text, position):
        with pytest.raises(SeriesParseError) as info:
            parse(text)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text, position",
        [("1\u3000eps^1", 1), ("\u00a01", 0), ("1 +\x1c2", 3)],
        ids=["ideographic-space", "no-break-space", "file-separator"],
    )
    def test_parse_rejects_non_ascii_blanks(self, text, position):
        with pytest.raises(SeriesParseError) as info:
            parse(text)
        assert info.value.position == position

    def test_parse_accepts_ascii_blanks(self):
        assert parse(" \t1\n+\r2 eps^1\v\f") == parse("1 + 2 eps^1")

    def test_format_zero(self):
        assert format_series(ZERO) == "0"

    @given(series())
    def test_round_trip(self, a):
        assert parse(format_series(a)) == a

    @given(series())
    def test_json_round_trip(self, a):
        assert series_from_json(series_to_json(a)) == a

    @pytest.mark.parametrize("text", ["\u0661", "\u0661/\u0662", "\uff11", "1/\u0662"])
    def test_non_ascii_digits_rejected(self, text):
        # Fraction() itself reads these digits; the package grammar does not
        with pytest.raises(ValueError):
            as_rational(text)
        with pytest.raises(ValueError):
            series_from_json({"terms": [[0, text]]})

    @pytest.mark.parametrize(
        "text", ["1e-1", "0.5", "1_0", "+3", " 3", "3 ", "3\n", "1/0", "3/-4", "-", "/2", "2/"]
    )
    def test_fraction_only_forms_rejected(self, text):
        # Fraction() reads several of these; rational := ["-"] digits ["/" digits] does not
        with pytest.raises(ValueError, match="not a rational"):
            as_rational(text)
        with pytest.raises(ValueError):
            series_from_json({"terms": [[0, text]]})

    @pytest.mark.parametrize(
        "text, value",
        [("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), ("007/010", Fraction(7, 10)),
         ("-0", Fraction(0)), ("6/4", Fraction(3, 2))],
    )
    def test_grammar_forms_accepted(self, text, value):
        assert as_rational(text) == value


class TestAlgebraicLaws:
    @given(series(), series(), series())
    def test_add_associative_commutative(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)

    @given(series(), series(), series())
    def test_mul_associative_commutative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b) == mul(b, a)

    @given(series(), series(), series())
    def test_distributive(self, a, b, c):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(series())
    def test_identities(self, a):
        assert add(a, ZERO) == a
        assert mul(a, ONE) == a
        assert add(a, neg(a)) == ZERO

    @given(series(), series())
    def test_compare_matches_difference_sign(self, a, b):
        assert (compare(a, b) is Ordering.LESS) == (
            compare(sub(a, b), ZERO) is Ordering.LESS
        )

    @given(series(), series())
    def test_trichotomy(self, a, b):
        results = [
            compare(a, b) is Ordering.LESS,
            compare(a, b) is Ordering.EQUAL,
            compare(a, b) is Ordering.GREATER,
        ]
        assert sum(results) == 1
        assert (compare(a, b) is Ordering.EQUAL) == (a == b)

    @given(series(), series(), series())
    def test_transitive(self, a, b, c):
        ordered = sorted([a, b, c])
        assert compare(ordered[0], ordered[2]) is not Ordering.GREATER

    @given(rationals(), rationals())
    def test_embedding_preserves_order(self, x, y):
        if x < y:
            assert compare(embed_rational(x), embed_rational(y)) is Ordering.LESS

    @given(nonzero_series(), nonzero_series())
    def test_order_and_lc_multiplicative(self, a, b):
        product = mul(a, b)
        assert order(product) == order(a) + order(b)
        assert leading_coeff(product) == leading_coeff(a) * leading_coeff(b)

    @given(series(), series())
    def test_order_of_sum(self, a, b):
        assert order(add(a, b)) >= min(order(a), order(b))

    @given(series(), series(), st.integers(1, 50), st.integers(1, 50))
    def test_compare_scaled_matches_literal_route(self, a, b, ka, kb):
        assert compare_scaled(a, ka, b, kb) is compare(
            scalar_mul(ka, a), scalar_mul(kb, b)
        )


@given(series(), series(), series())
def test_every_result_is_normalized(a, b, c):
    for value in (add(a, b), mul(a, b), sub(a, c), neg(a), scalar_mul(7, a)):
        exponents = [e for e, _ in value.terms]
        assert exponents == sorted(set(exponents))
        assert all(coeff != 0 for _, coeff in value.terms)
        assert all(isinstance(coeff, Fraction) for _, coeff in value.terms)


def _raw_pairs(coeff=None, max_terms=8):
    """Pair lists with repeated exponents, zero coefficients of every
    accepted type, and (in the second branch) full cancellation."""
    if coeff is None:
        coeff = st.one_of(st.just(0), st.just("0/5"), st.integers(-3, 3), rationals(-3, 3, 4))
    pairs = st.lists(st.tuples(st.integers(-3, 3), coeff), max_size=max_terms)
    return st.one_of(pairs, pairs.map(lambda p: p + [(e, -as_rational(c)) for e, c in p]))


def _random_pairs(rnd: Random, max_terms=5) -> list:
    return [
        (rnd.randint(-3, 3), Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)))
        for _ in range(rnd.randint(0, max_terms))
    ]


def _primes(lo: int, hi: int) -> list:
    return [n for n in range(lo, hi) if all(n % k for k in range(2, math.isqrt(n) + 1))]


LARGE_PRIMES = _primes(998_000, 1_000_000)
# small denominators, and pairwise-coprime ones up to about 10^6
DENOMINATORS = [1, 2, 3, 4, 6, 12, *LARGE_PRIMES]


def _wide_coefficients():
    """Rationals as Fractions, ints or unreduced grammar text such as ``2/4`` or ``-0/7``."""
    num = st.integers(-10**6, 10**6)
    den = st.sampled_from(DENOMINATORS)
    scale = st.integers(1, 5)
    return st.one_of(
        st.builds(Fraction, num, den),
        num,
        st.builds(lambda n, d, k: f"{n * k}/{d * k}", num, den, scale),
        st.builds(lambda d: f"-0/{d}", den),
    )


def _json_terms():
    """``series_to_json``-shaped term lists: coefficients as ints or unreduced text."""
    def cell(c):
        return f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else c

    return _raw_pairs(_wide_coefficients()).map(lambda p: [[e, cell(c)] for e, c in p])


@st.composite
def _clashing_terms(draw):
    """At most five text terms over at most three exponents, with repeated
    exponents, mixed and unreduced denominators and an exact cancellation."""
    exponents = st.sampled_from(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
    dens = st.sampled_from([1, 2, 3, 4, 6])
    terms = draw(st.lists(
        st.builds(lambda e, n, d: (e, f"{n}/{d}"), exponents, st.integers(-6, 6), dens),
        min_size=1, max_size=4,
    ))
    if draw(st.booleans()):  # cancel one term exactly, over another denominator
        exponent, text = draw(st.sampled_from(terms))
        n, d = map(int, text.split("/"))
        k = draw(st.integers(2, 3))
        terms.append((exponent, f"{-n * k}/{d * k}"))
    return terms


def _assert_same(value: LaurentSeries, expected: LaurentSeries) -> None:
    assert value.terms == expected.terms
    assert LaurentSeries(value.terms) == value  # the validating constructor


class TestAgainstReference:
    """The one accumulator and the one walk against the earlier kernel."""

    @given(_raw_pairs())
    def test_normalize(self, pairs):
        _assert_same(normalize(pairs), reference.normalize(pairs))

    @given(_raw_pairs(), _raw_pairs())
    def test_add_mul_compare(self, p, q):
        a, b = reference.normalize(p), reference.normalize(q)
        _assert_same(add(a, b), reference.add(a, b))
        _assert_same(mul(a, b), reference.mul(a, b))
        assert compare(a, b) is reference.compare(a, b)
        for k in range(len(a.terms) + 1):
            prefix = LaurentSeries(a.terms[:k])
            assert compare(prefix, a) is reference.compare(prefix, a)
            assert compare(a, prefix) is reference.compare(a, prefix)

    def test_seeded_sweep(self):
        rnd = Random(20260507)
        seen = {"cancelled": 0, "equal": 0, "prefix": 0, "negative_surplus": 0}
        for _ in range(3000):
            p, q = _random_pairs(rnd), _random_pairs(rnd)
            if rnd.random() < 0.2:
                q = [(e, -c) for e, c in p]
            a, b = normalize(p), normalize(q)
            _assert_same(a, reference.normalize(p))
            _assert_same(b, reference.normalize(q))
            total = add(a, b)
            _assert_same(total, reference.add(a, b))
            _assert_same(mul(a, b), reference.mul(a, b))
            seen["cancelled"] += bool(a.terms) and not total.terms
            # the same value built from the pairs in reverse order
            twin = normalize(reversed(p))
            seen["equal"] += bool(a.terms) and compare(a, twin) is Ordering.EQUAL
            pairs = [(a, b), (b, a), (a, twin)]
            for k in range(len(a.terms)):
                prefix = LaurentSeries(a.terms[:k])
                pairs += [(prefix, a), (a, prefix)]
                seen["prefix"] += 1
                seen["negative_surplus"] += a.terms[k][1] < 0
            for x, y in pairs:
                assert compare(x, y) is reference.compare(x, y)
        assert min(seen.values()) > 100, seen

    @given(_raw_pairs(_wide_coefficients()))
    def test_format_series(self, pairs):
        a = reference.normalize(pairs)
        text = format_series(a)
        assert text == reference.format_series(a)
        _assert_same(parse(text), a)

    @given(_wide_coefficients(), _raw_pairs(_wide_coefficients()))
    def test_scalar_mul(self, q, pairs):
        a = reference.normalize(pairs)
        _assert_same(scalar_mul(q, a), reference.scalar_mul(q, a))

    @given(_clashing_terms())
    def test_every_order_of_the_terms_gives_the_same_rows(self, terms):
        # the accumulator sums each exponent's terms in input order
        value = normalize(terms)
        _assert_same(value, reference.normalize(terms))
        for arrangement in itertools.permutations(terms):
            assert normalize(arrangement)._rows == value._rows
            assert series_from_json({"terms": [list(t) for t in arrangement]})._rows == value._rows

    @given(_json_terms())
    def test_series_from_json(self, terms):
        obj = {"terms": terms}
        _assert_same(series_from_json(obj), reference.series_from_json(obj))

    def test_large_product_with_prime_denominators(self):
        # 4,096 products over 127 exponents, every denominator a distinct prime
        rnd = Random(20261018)
        primes = rnd.sample(LARGE_PRIMES, 128)

        def operand(dens):
            return reference.normalize(
                (e, Fraction(rnd.randint(-10**6, 10**6) or 1, den)) for e, den in zip(range(-32, 32), dens)
            )

        a, b = operand(primes[:64]), operand(primes[64:])
        assert len(a.terms) == len(b.terms) == 64
        _assert_same(mul(a, b), reference.mul(a, b))


# The grammar's tokens, and characters that str.isspace() or str.isdigit()
# accept but the grammar does not.
PARSE_TOKENS = [
    *"0123456789", "-", "+", "/", "eps", "eps^", "^", " ", "\t", "\n", "\r", "\v", "\f",
    "x", "\u3000", "\u00a0", "\u0663", "\u00b2", "\x1c",
]


@st.composite
def _series_texts(draw):
    """A string of grammar tokens, or a formatted series with one token spliced in."""
    tokens = st.sampled_from(PARSE_TOKENS)
    if draw(st.booleans()):
        return "".join(draw(st.lists(tokens, max_size=16)))
    text = format_series(draw(series()))
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + draw(tokens) + text[cut:]


def _parse_outcome(parser, text):
    """The parsed terms, or the error's message and position."""
    try:
        return parser(text).terms
    except SeriesParseError as exc:
        return str(exc), exc.position


class TestParseAgainstReference:
    """The one-pattern parse against the earlier character scanner."""

    @settings(max_examples=2000)
    @given(_series_texts())
    def test_same_series_or_same_error(self, text):
        assert _parse_outcome(parse, text) == _parse_outcome(reference.parse, text)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("1 + eps^2", "expected digits", 4),
            ("1/ eps^2", "expected denominator digits", 2),
            ("3 + 1/00", "denominator must be nonzero", 6),
            ("1 eps2", "expected '^' after 'eps'", 5),
            ("1 eps^-x", "expected exponent digits", 7),
            ("1 eps^2 x", "expected '+' or '-', found 'x'", 8),
            # after a "-" connective or a leading "-" sign
            ("1 - -x", "expected digits", 5),
            ("-/2", "expected digits", 1),
            ("- 1", "expected digits", 1),
            ("1 - 2 -", "expected digits", 7),
            ("1 - 2 eps^3 -+1", "expected digits", 13),
            ("-1 - 2/ eps", "expected denominator digits", 7),
            ("1 - -2/0", "denominator must be nonzero", 7),
            ("-1 eps", "expected '^' after 'eps'", 6),
            ("2 - 3 eps^-", "expected exponent digits", 11),
        ],
    )
    def test_each_error_and_its_position(self, text, message, position):
        expected = (f"{message} (at position {position})", position)
        assert _parse_outcome(parse, text) == expected
        assert _parse_outcome(reference.parse, text) == expected

    @pytest.mark.parametrize(
        "text, position",
        [("1" + " " * 200_000 + "x", 200_001), (" " * 200_000 + "x", 200_000),
         ("1" + " " * 200_000 + "eps", 200_004)],
        ids=["connective", "digits", "caret"],
    )
    def test_long_blank_run_is_linear(self, text, position):
        start = time.perf_counter()
        with pytest.raises(SeriesParseError) as info:
            parse(text)
        assert time.perf_counter() - start < 2.0
        assert info.value.position == position


def _assert_rows(value: LaurentSeries) -> None:
    """The row invariant, and ``terms``/``leading_coeff`` built from the rows."""
    rows = value._rows
    assert type(rows) is tuple
    for row in rows:
        assert type(row) is tuple and len(row) == 3
        assert all(type(part) is int for part in row)
        _, num, den = row
        assert den > 0 and num != 0 and math.gcd(num, den) == 1
    exponents = [e for e, _, _ in rows]
    assert exponents == sorted(set(exponents))
    terms = value.terms
    assert terms == tuple((e, Fraction(n, d)) for e, n, d in rows)
    assert all(type(coeff) is Fraction for _, coeff in terms)
    assert value.leading_coeff() == (terms[0][1] if terms else 0)
    assert type(value.leading_coeff()) is Fraction


def _unreduced_text(draw, value: LaurentSeries) -> str:
    """``value`` as series text with each coefficient scaled by a common factor."""
    parts = []
    for exponent, coeff in value.terms:
        k = draw(st.integers(1, 6))
        parts.append(f"{coeff.numerator * k}/{coeff.denominator * k} eps^{exponent}")
    return " + ".join(parts).replace("+ -", "- ") or "0/3"


@st.composite
def _routes(draw):
    """One value of ``series()`` and the same value built along every constructor."""
    a = draw(series())
    q = draw(st.integers(1, 5))
    unit = draw(st.sampled_from([1, Fraction(1), "1", f"{q}/{q}"]))
    return a, [
        parse(format_series(a)),
        parse(_unreduced_text(draw, a)),
        normalize(a.terms),
        normalize((e, f"{c.numerator * q}/{c.denominator * q}") for e, c in a.terms),
        normalize([*a.terms, (0, 1), (0, -1)]),
        LaurentSeries(a.terms),
        series_from_json(series_to_json(a)),
        add(a, ZERO),
        add(ZERO, a),
        sub(a, ZERO),
        neg(neg(a)),
        mul(a, ONE),
        scalar_mul(unit, a),
        scalar_mul(Fraction(1, q), scalar_mul(q, a)),
        sum((monomial(f"{c.numerator * q}/{c.denominator * q}", e) for e, c in a.terms), ZERO),
    ]


class TestRows:
    """Integer rows inside, ``Fraction`` pairs only where ``terms`` is read."""

    @given(_raw_pairs(_wide_coefficients()), _raw_pairs(_wide_coefficients()), _wide_coefficients())
    def test_every_result_meets_the_row_invariant(self, p, q, k):
        a, b = normalize(p), normalize(q)
        for value in (
            a, b, parse(format_series(a)), add(a, b), sub(a, b), neg(a), mul(a, b),
            scalar_mul(k, a), LaurentSeries(a.terms), series_from_json({"terms": [
                [e, f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else c]
                for e, c in p
            ]}),
        ):
            _assert_rows(value)

    @given(_wide_coefficients(), st.integers(-5, 5))
    def test_monomial_meets_the_row_invariant(self, coefficient, exponent):
        value = monomial(coefficient, exponent)
        _assert_rows(value)
        assert value.terms == (((exponent, as_rational(coefficient)),) if value else ())

    @given(_series_texts())
    def test_parse_results_meet_the_row_invariant(self, text):
        try:
            value = parse(text)
        except SeriesParseError:
            return
        _assert_rows(value)

    def test_equal_values_from_every_route(self):
        half = [
            parse("2/4 eps^1"),
            normalize([(1, "1/2")]),
            LaurentSeries(((1, Fraction(1, 2)),)),
            monomial("3/6", 1),
            scalar_mul(Fraction(1, 2), monomial(1, 1)),
            add(monomial(1, 1), monomial("-1/2", 1)),
            series_from_json({"terms": [[1, "7/14"]]}),
        ]
        for value in half:
            _assert_rows(value)
            assert value._rows == ((1, 1, 2),)
            assert value == half[0] and hash(value) == hash(half[0])
        assert len(set(half)) == 1

    @given(_routes())
    def test_equal_values_are_equal_and_hash_alike(self, routes):
        a, built = routes
        for value in built:
            _assert_rows(value)
            assert value == a and not value != a
            assert hash(value) == hash(a)
            assert value.terms == a.terms
        assert len({a, *built}) == 1

    @pytest.mark.parametrize("name", ["terms", "_rows", "other"])
    def test_values_are_immutable(self, name):
        value = parse("1 eps^0 - 1/2 eps^3")
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == parse("1 - 1/2 eps^3")

    @given(series())
    def test_repr_and_str_are_unchanged(self, a):
        assert str(a) == reference.format_series(a)
        assert repr(a) == f"LaurentSeries({reference.format_series(a)!r})"

    def test_repr_examples(self):
        assert repr(ZERO) == "LaurentSeries('0')"
        assert repr(parse("5 eps^-1 - 2/4 eps^3")) == "LaurentSeries('5 eps^-1 - 1/2 eps^3')"
        assert str(monomial(-3, 2)) == "-3 eps^2"

    @pytest.mark.parametrize(
        "terms, error, message",
        [
            (((0,),), ValueError, "term (0,) is not an (exponent, coefficient) pair"),
            ((("0", Fraction(1)),), TypeError, "exponent must be an integer, got '0'"),
            (((0, 1),), TypeError, "coefficient 1 is not a Fraction"),
            (((0, Fraction(0)),), ValueError, "normalized series cannot store a zero coefficient"),
            (((1, Fraction(1)), (1, Fraction(2))), ValueError,
             "exponents must be strictly ascending and unique"),
        ],
    )
    def test_constructor_messages_are_unchanged(self, terms, error, message):
        with pytest.raises(error) as info:
            LaurentSeries(terms)
        assert str(info.value) == message

    def test_constructor_reads_lists_and_keywords(self):
        assert LaurentSeries(terms=[[2, Fraction(4, 6)]]) == monomial("2/3", 2)
        assert LaurentSeries() == LaurentSeries([]) == ZERO

    @given(series())
    def test_copies_and_pickles_are_equal(self, a):
        assert copy.copy(a) == a and copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a
