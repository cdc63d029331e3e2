from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narch.laurent import ONE, LaurentSeries, Ordering, ZERO, add, compare, monomial, parse
from narch.sig_order import (
    AffineChain,
    SigPrimeCertificate,
    SigPrimeDecision,
    SigThreshold,
    _affine_rows,
    _leading_at,
    _sig_less,
    certificate_from_json,
    certificate_to_json,
    claim1_holds,
    claim2_holds,
    decide_affine_sig_prime,
    laurent_nonarch_witness,
    sig_less_laurent,
    sig_less_real,
    verify_chain_prefix,
    verify_nonarch_prefix,
)

from .reference_sig_order import element_decide_affine_sig_prime, fraction_sig_less
from .sampling import (
    breakpoint_certificate,
    brute_force_violation,
    random_certificate,
    random_threshold,
)
from .strategies import rationals, series, thresholds


class TestThreshold:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            SigThreshold(0)
        with pytest.raises(ValueError):
            SigThreshold(Fraction(-1, 2))
        assert SigThreshold("1/2").r == Fraction(1, 2)


class TestSigLessReal:
    def test_boundary_holds(self):
        assert sig_less_real(0, 1, SigThreshold(1))

    def test_small_gap_fails(self):
        assert not sig_less_real(0, Fraction(1, 2), 1)

    def test_negative_values(self):
        assert sig_less_real(-3, -2, 1)


class TestSigLessLaurent:
    def test_higher_order_below_positive(self):
        assert sig_less_laurent(monomial(1, 1), monomial(1, 0), 1)

    def test_negative_leading_below_higher_order(self):
        assert sig_less_laurent(monomial(-1, -1), monomial(1, 0), 1)

    def test_equal_order_boundary(self):
        assert sig_less_laurent(monomial(2, 0), monomial(3, 0), 1)

    def test_no_condition_applies(self):
        assert not sig_less_laurent(monomial(1, 0), monomial(1, 1), 1)

    def test_zero_below_positive_unit(self):
        assert sig_less_laurent(ZERO, monomial(1, 0), 1)

    @given(series(), series(), thresholds())
    def test_refines_strict_order(self, a, b, r):
        if sig_less_laurent(a, b, r):
            assert compare(a, b) is Ordering.LESS

    @given(series(), series(), thresholds(), thresholds())
    def test_monotone_in_threshold(self, a, b, r, r_smaller):
        big, small = max(r, r_smaller), min(r, r_smaller)
        if sig_less_laurent(a, b, big):
            assert sig_less_laurent(a, b, small)

    @given(series(), thresholds())
    def test_irreflexive(self, a, r):
        assert not sig_less_laurent(a, a, r)

    @given(rationals(), rationals(), thresholds())
    def test_agrees_with_real_predicate_on_nonzero_embeddings(self, x, y, r):
        # 0 embeds to the zero series, whose infinite order puts it
        # significantly below every positive value at any threshold; the
        # two predicates coincide on nonzero rationals.
        if x != 0 and y != 0:
            assert sig_less_laurent(monomial(x, 0), monomial(y, 0), r) == sig_less_real(x, y, r)

    def test_zero_series_edge_cases(self):
        big_r = Fraction(9, 8)
        assert sig_less_laurent(ZERO, monomial(1, 0), big_r)
        assert not sig_less_real(0, 1, big_r)
        assert sig_less_laurent(monomial(Fraction(-1, 2), 0), ZERO, big_r)
        assert not sig_less_real(Fraction(-1, 2), 0, big_r)
        assert not sig_less_laurent(ZERO, monomial(-1, 0), big_r)
        assert not sig_less_laurent(monomial(Fraction(1, 2), 0), ZERO, big_r)
        assert not sig_less_laurent(ZERO, ZERO, big_r)


class TestChainPrefix:
    def test_witness_prefix_climbs(self):
        assert verify_chain_prefix([monomial(1, 1), monomial(2, 1), monomial(3, 1)], 1)

    def test_repeated_element_fails(self):
        assert not verify_chain_prefix([monomial(1, 1), monomial(1, 1)], 1)

    def test_zero_start(self):
        assert verify_chain_prefix([ZERO, monomial(1, 0), monomial(2, 0)], 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            verify_chain_prefix([], 1)


class TestWitness:
    def test_shape_r1(self):
        chain, y = laurent_nonarch_witness(1, 3)
        assert chain == [monomial(1, 1), monomial(2, 1), monomial(3, 1)]
        assert y == monomial(1, 0)

    def test_shape_half(self):
        chain, y = laurent_nonarch_witness(Fraction(1, 2), 2)
        assert chain == [monomial(Fraction(1, 2), 1), monomial(1, 1)]
        assert y == monomial(1, 0)

    def test_shape_three(self):
        chain, _ = laurent_nonarch_witness(3, 1)
        assert chain == [monomial(3, 1)]

    def test_witness_verifies_at_length_1000(self):
        chain, y = laurent_nonarch_witness(1, 1000)
        assert verify_nonarch_prefix(chain, y, 1)

    def test_chain_above_y_fails(self):
        assert not verify_nonarch_prefix([monomial(1, 0)], monomial(1, 1), 1)

    def test_same_order_trapped_prefix(self):
        assert verify_nonarch_prefix([monomial(1, 1), monomial(2, 1)], monomial(5, 1), 1)

    @pytest.mark.parametrize("n", [True, 2.5, Fraction(3)], ids=repr)
    def test_rejects_non_integer_length(self, n):
        with pytest.raises(TypeError):
            laurent_nonarch_witness(1, n)

    @given(thresholds(), st.integers(1, 60))
    def test_witness_verifies_for_any_threshold(self, r, n):
        chain, y = laurent_nonarch_witness(r, n)
        assert verify_nonarch_prefix(chain, y, r)
        assert all(sig_less_laurent(x, y, r) for x in chain)
        assert not any(sig_less_laurent(y, x, r) for x in chain)


class TestDecideAffine:
    def test_witness_chain_accepted(self):
        cert = SigPrimeCertificate(
            lower=monomial(1, 1),
            upper=monomial(1, 0),
            chain=AffineChain(monomial(1, 1), monomial(1, 1)),
        )
        decision = decide_affine_sig_prime(cert, 1)
        assert decision.accepted
        assert decision.violation_index is None

    def test_flat_climb_rejected_at_zero(self):
        cert = SigPrimeCertificate(
            lower=monomial(1, 0),
            upper=monomial(2, 0),
            chain=AffineChain(monomial(1, 0), monomial(1, 1)),
        )
        decision = decide_affine_sig_prime(cert, 1)
        assert not decision.accepted
        assert decision.violation_index == 0

    def test_zero_base_integer_climb_accepted(self):
        cert = SigPrimeCertificate(
            lower=ZERO,
            upper=monomial(1, -1),
            chain=AffineChain(ZERO, monomial(1, 0)),
        )
        assert decide_affine_sig_prime(cert, 1).accepted

    # (base, step, upper, first failure, condition) at r = 1, one case per
    # candidate index of the decision: dropping a candidate fails its case
    FIRST_FAILURES = {
        # slope 1/2 < r: the climb fails at once, before the candidate floor(tau) + 1 = 17
        "zero": ("1", "1/2", "10", 0, "climb"),
        # x_i = (i - 2) + eps: the root 2 is an integer, x_2 = eps drops to
        # order 1 and is not below the ceiling eps^2, which x_0, x_1 < 0 are
        "rho": ("-2 + 1 eps^1", "1", "1 eps^2", 2, "ceiling"),
        # x_i = i - 5/2 turns positive after its root 5/2, under the ceiling eps
        "rho_plus_one": ("-5/2", "1", "1 eps^1", 3, "ceiling"),
        # x_i = i climbs under the ceiling 5 until the crossing 5 - r = 4
        "tau_plus_one": ("0", "1", "5", 5, "ceiling"),
    }

    @pytest.mark.parametrize("case", sorted(FIRST_FAILURES))
    def test_first_failure_at_each_candidate(self, case):
        base, step, upper, index, condition = self.FIRST_FAILURES[case]
        cert = SigPrimeCertificate(
            lower=parse(base), upper=parse(upper), chain=AffineChain(parse(base), parse(step))
        )
        decision = decide_affine_sig_prime(cert, 1)
        assert (decision.violation_index, decision.failed_condition) == (index, condition)
        assert index == brute_force_violation(cert, 1, decision.stabilization_index + 100)

    def test_failed_condition_climb(self):
        # x_0 = 1 and x_1 = 1 + eps share order and leading coefficient
        cert = SigPrimeCertificate(
            lower=monomial(1, 0),
            upper=monomial(2, 0),
            chain=AffineChain(monomial(1, 0), monomial(1, 1)),
        )
        decision = decide_affine_sig_prime(cert, 1)
        assert (decision.violation_index, decision.failed_condition) == (0, "climb")

    def test_failed_condition_ceiling(self):
        cert = SigPrimeCertificate(
            lower=ZERO,
            upper=monomial(5, 0),
            chain=AffineChain(ZERO, monomial(1, 0)),
        )
        decision = decide_affine_sig_prime(cert, 1)
        assert (decision.violation_index, decision.failed_condition) == (5, "ceiling")

    def test_failed_condition_climb_takes_precedence(self):
        # a constant chain at the ceiling fails both conditions at i = 0
        cert = SigPrimeCertificate(
            lower=monomial(1, 0),
            upper=monomial(1, 0),
            chain=AffineChain(monomial(1, 0), ZERO),
        )
        chain = cert.chain
        assert not sig_less_laurent(chain.element(0), chain.element(1), 1)
        assert not sig_less_laurent(chain.element(0), cert.upper, 1)
        decision = decide_affine_sig_prime(cert, 1)
        assert (decision.violation_index, decision.failed_condition) == (0, "climb")

    def test_failed_condition_none_when_accepted(self):
        cert = SigPrimeCertificate(
            lower=ZERO,
            upper=monomial(1, -1),
            chain=AffineChain(ZERO, monomial(1, 0)),
        )
        decision = decide_affine_sig_prime(cert, 1)
        assert decision.accepted and bool(decision)
        assert decision.failed_condition is None
        assert decision == SigPrimeDecision(True, None, decision.stabilization_index)

    def test_zero_base_and_step(self):
        cert = SigPrimeCertificate(
            lower=ZERO, upper=monomial(1, 0), chain=AffineChain(ZERO, ZERO)
        )
        decision = decide_affine_sig_prime(cert, 1)
        assert (decision.violation_index, decision.failed_condition) == (0, "climb")

    def test_mismatched_base_rejected(self):
        cert = SigPrimeCertificate(
            lower=monomial(1, 1),
            upper=monomial(1, 0),
            chain=AffineChain(monomial(2, 1), monomial(1, 1)),
        )
        with pytest.raises(ValueError):
            decide_affine_sig_prime(cert, 1)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), thresholds())
    def test_agrees_with_brute_force(self, seed, r):
        rnd = Random(seed)
        cert = random_certificate(rnd, r)
        decision = decide_affine_sig_prime(cert, r)
        oracle = brute_force_violation(cert, r, decision.stabilization_index + 100)
        if decision.accepted:
            assert oracle is None
        else:
            assert oracle == decision.violation_index

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), thresholds())
    def test_agrees_with_brute_force_at_breakpoints(self, seed, r):
        cert = breakpoint_certificate(Random(seed), r)
        decision = decide_affine_sig_prime(cert, r)
        oracle = brute_force_violation(cert, r, decision.stabilization_index + 100)
        assert decision.violation_index == oracle
        assert decision.accepted == (oracle is None)

    def test_breakpoint_sweep_agrees_with_brute_force(self):
        # certificates whose leading coefficient vanishes at a small integer
        # index, with ceilings crossing near it: the indices the decision
        # must not skip
        rnd = Random(0xB2EA)
        conditions = {None: 0, "climb": 0, "ceiling": 0}
        for _ in range(10000):
            r = random_threshold(rnd)
            cert = breakpoint_certificate(rnd, r)
            decision = decide_affine_sig_prime(cert, r)
            oracle = brute_force_violation(cert, r, decision.stabilization_index + 100)
            assert decision.violation_index == oracle
            conditions[decision.failed_condition] += 1
            if oracle is not None:
                current = cert.chain.element(oracle)
                climbs = sig_less_laurent(current, cert.chain.element(oracle + 1), r)
                expected = "ceiling" if climbs else "climb"
                assert decision.failed_condition == expected
        assert min(conditions.values()) > 200

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), thresholds())
    def test_accepted_certificates_satisfy_claims(self, seed, r):
        rnd = Random(seed)
        cert = random_certificate(rnd, r)
        if decide_affine_sig_prime(cert, r).accepted:
            assert claim1_holds(cert, r)
            assert claim2_holds(cert, r)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), thresholds())
    def test_negative_upper_never_accepted(self, seed, r):
        rnd = Random(seed)
        cert = random_certificate(rnd, r)
        if compare(cert.upper, ZERO) is Ordering.LESS:
            assert not decide_affine_sig_prime(cert, r).accepted

    def test_claims_reject_invalid_certificate(self):
        cert = SigPrimeCertificate(
            lower=monomial(1, 0),
            upper=monomial(-1, 0),
            chain=AffineChain(monomial(1, 0), monomial(1, 0)),
        )
        with pytest.raises(ValueError):
            claim1_holds(cert, 1)
        with pytest.raises(ValueError):
            claim2_holds(cert, 1)


class TestEscapeProperty:
    """Chains that climb through the orders do overtake every fixed value."""

    @given(thresholds(), st.integers(0, 6))
    def test_order_climbing_chain_escapes(self, r, k):
        ladder = [monomial(1, -i) for i in range(k + 3)]
        for i in range(len(ladder) - 1):
            cert = SigPrimeCertificate(
                lower=ladder[i],
                upper=ladder[i + 1],
                chain=AffineChain(ladder[i], monomial(r, -i)),
            )
            assert decide_affine_sig_prime(cert, r).accepted
        y = add(monomial(1, -k), monomial(1, -k + 1))
        assert any(sig_less_laurent(y, ladder[i], r) for i in range(k + 2))

    @given(thresholds(), st.integers(0, 6), rationals())
    def test_any_value_of_bounded_order_is_overtaken(self, r, k, lc):
        if lc == 0:
            lc = Fraction(1)
        y = monomial(lc, -k)
        ladder = [monomial(1, -i) for i in range(k + 2)]
        assert any(sig_less_laurent(y, x, r) for x in ladder)


class TestCertificateJson:
    def test_round_trip(self):
        cert = SigPrimeCertificate(
            lower=parse("1 eps^1"),
            upper=parse("1 eps^0 + 1/2 eps^4"),
            chain=AffineChain(parse("1 eps^1"), parse("2/3 eps^1")),
        )
        assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_rejects_missing_chain(self):
        with pytest.raises(ValueError):
            certificate_from_json({"lower": {"terms": []}, "upper": {"terms": []}})


class TestFieldTypes:
    """Certificates and chains hold series; anything else fails when built, not when decided."""

    @pytest.mark.parametrize("base, step, what", [
        ("1 eps^1", ONE, "chain base"), (ONE, "1 eps^1", "chain step"), (ONE, 1, "chain step"),
    ], ids=repr)
    def test_chain_fields_are_series(self, base, step, what):
        with pytest.raises(TypeError, match=f"^{what} must be a LaurentSeries, got "):
            AffineChain(base, step)

    @pytest.mark.parametrize("lower, upper, chain, what", [
        ("0", ONE, AffineChain(ZERO, ONE), "certificate lower"),
        (ZERO, "1", AffineChain(ZERO, ONE), "certificate upper"),
        (ZERO, ONE, (ZERO, ONE), "certificate chain"),
    ], ids=["lower", "upper", "chain"])
    def test_certificate_fields_are_typed(self, lower, upper, chain, what):
        with pytest.raises(TypeError, match=f"^{what} must be an? (LaurentSeries|AffineChain), "):
            SigPrimeCertificate(lower, upper, chain)

    @pytest.mark.parametrize("index", [Fraction(1, 2), "3", 1.0, True], ids=repr)
    def test_chain_index_is_an_integer(self, index):
        # a half index would give base + step/2, which is not an element of the chain
        chain = AffineChain(ZERO, ONE)
        with pytest.raises(TypeError, match="^chain index must be an integer, got "):
            chain.element(index)

    def test_negative_chain_index_rejected(self):
        with pytest.raises(ValueError, match="^chain index must be non-negative$"):
            AffineChain(ZERO, ONE).element(-1)


def _sampled_certificates(rnd: Random, count: int):
    """(certificate, r) pairs, alternating the two samplers."""
    for k in range(count):
        r = random_threshold(rnd)
        sampler = breakpoint_certificate if k % 2 else random_certificate
        yield sampler(rnd, r), r


class TestIntegerLeadingTerms:
    """The decision reads integer leading terms; the references build elements."""

    @staticmethod
    def _element_parts(chain, i):
        element = chain.element(i)
        return element.order(), element.leading_coeff()

    @staticmethod
    def _integer_parts(rows, i):
        order, numerator, denominator = _leading_at(rows, i)
        assert denominator > 0
        return order, Fraction(numerator, denominator)

    def test_leading_parts_match_built_elements(self):
        rnd = Random(0x1EAD)
        drops = vanishes = 0
        for cert, r in _sampled_certificates(rnd, 4000):
            chain = cert.chain
            rows = _affine_rows(chain)
            stabilization = decide_affine_sig_prime(cert, r).stabilization_index
            for i in range(stabilization + 4):
                parts = self._integer_parts(rows, i)
                assert parts == self._element_parts(chain, i), (cert, i)
                if parts[1] == 0:
                    vanishes += 1
                elif parts[0] > min(chain.base.order(), chain.step.order()):
                    drops += 1
        assert drops > 100 and vanishes > 100

    def test_integer_root_drops_order_then_vanishes(self):
        # x_i = (6 - 3i) eps^0 + (2 - i) eps^2: order 0 except at i = 2, where x_2 = 0
        chain = AffineChain(parse("6 + 2 eps^2"), parse("-3 - 1 eps^2"))
        rows = _affine_rows(chain)
        for i in range(6):
            assert self._integer_parts(rows, i) == self._element_parts(chain, i)
        assert _leading_at(rows, 2) == (ZERO.order(), 0, 1)
        # x_i = (4 - 2i) eps^-1 + 1 eps^3: drops to order 3 at i = 2
        chain = AffineChain(parse("4 eps^-1 + 1 eps^3"), parse("-2 eps^-1"))
        rows = _affine_rows(chain)
        assert [self._integer_parts(rows, i)[0] for i in range(4)] == [-1, -1, 3, -1]
        for i in range(4):
            assert self._integer_parts(rows, i) == self._element_parts(chain, i)

    def test_decisions_match_the_element_based_loop(self):
        rnd = Random(0xD1FF)
        seen = {None: 0, "climb": 0, "ceiling": 0}
        for cert, r in _sampled_certificates(rnd, 20000):
            decision = decide_affine_sig_prime(cert, r)
            assert decision == element_decide_affine_sig_prime(cert, r), cert
            seen[decision.failed_condition] += 1
        assert min(seen.values()) > 1000

    @given(series(), series(), thresholds(), st.integers(1, 6), st.integers(1, 6))
    def test_sig_less_matches_the_fraction_formula(self, a, b, r, scale_a, scale_b):
        expected = fraction_sig_less(a, b, r)
        assert sig_less_laurent(a, b, r) == expected
        # the integer form needs positive denominators, not reduced fractions
        parts = []
        for x, scale in ((a, scale_a), (b, scale_b)):
            lead = x.leading_coeff()
            parts.append((x.order(), lead.numerator * scale, lead.denominator * scale))
        assert _sig_less(*parts, r.numerator * 3, r.denominator * 3) == expected
        assert sig_less_laurent(a, ZERO, r) == fraction_sig_less(a, ZERO, r)
        assert sig_less_laurent(ZERO, a, r) == fraction_sig_less(ZERO, a, r)

    @given(st.lists(series(max_terms=2), min_size=1, max_size=6), series(), thresholds())
    def test_prefix_checks_match_the_fraction_formula(self, chain, y, r):
        climbs = all(fraction_sig_less(x, z, r) for x, z in zip(chain, chain[1:]))
        assert verify_chain_prefix(chain, r) == climbs
        trapped = (
            climbs
            and all(fraction_sig_less(x, y, r) for x in chain)
            and not any(fraction_sig_less(y, x, r) for x in chain)
        )
        assert verify_nonarch_prefix(chain, y, r) == trapped

    def test_prefix_errors_come_before_any_pair(self):
        with pytest.raises(ValueError, match="non-empty"):
            verify_chain_prefix([], 0)
        with pytest.raises(ValueError, match="threshold must be positive"):
            verify_chain_prefix([ZERO, ZERO], 0)
        with pytest.raises(ValueError, match="threshold must be positive"):
            verify_nonarch_prefix([], ZERO, 0)
        with pytest.raises(ValueError, match="non-empty"):
            verify_nonarch_prefix([], ZERO, 1)


def _fraction_affine_rows(chain: AffineChain) -> list:
    """``_affine_rows`` computed from the ``Fraction`` pairs that ``terms`` builds."""
    base, step = dict(chain.base.terms), dict(chain.step.terms)
    rows = []
    for exponent in sorted(base.keys() | step.keys()):
        b, s = base.get(exponent, Fraction(0)), step.get(exponent, Fraction(0))
        rows.append((
            exponent,
            b.numerator * s.denominator,
            s.numerator * b.denominator,
            b.denominator * s.denominator,
        ))
    return rows


class TestDecisionReadsRows:
    """Decisions read the series' integer rows; no ``Fraction`` coefficient is built."""

    @given(series(), series())
    def test_affine_rows_match_the_fraction_pairs(self, base, step):
        chain = AffineChain(base, step)
        assert _affine_rows(chain) == _fraction_affine_rows(chain)

    def test_sampled_affine_rows_match_the_fraction_pairs(self):
        rnd = Random(0xA0F5)
        for cert, _ in _sampled_certificates(rnd, 2000):
            assert _affine_rows(cert.chain) == _fraction_affine_rows(cert.chain)

    def test_decisions_build_no_coefficient(self, monkeypatch):
        rnd = Random(0xB0B5)
        sampled = list(_sampled_certificates(rnd, 400))
        expected = [decide_affine_sig_prime(cert, r) for cert, r in sampled]

        def refuse(self, *args):
            raise AssertionError("a decision read a Fraction coefficient")

        monkeypatch.setattr(LaurentSeries, "terms", property(refuse))
        monkeypatch.setattr(LaurentSeries, "leading_coeff", refuse)
        assert [decide_affine_sig_prime(cert, r) for cert, r in sampled] == expected
        chain, y = laurent_nonarch_witness(Fraction(1, 3), 5)
        assert verify_nonarch_prefix(chain, y, Fraction(1, 3))
        assert sig_less_laurent(chain[0], y, 1)
