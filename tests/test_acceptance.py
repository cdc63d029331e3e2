"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and time
budget and prints a single PASS/FAIL verdict line (visible with ``-s``).
Expected values are either exact worked examples or are recomputed here by
independent oracles (linear scans, repeated-addition stepping, closed
forms) before being asserted against the library.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from narch.bandit import (
    RewardScheme,
    crossover_step,
    mean_compare,
    scripted_eval,
)
from narch.laurent import (
    Ordering,
    ZERO,
    add,
    compare,
    leading_coeff,
    mul,
    order,
    parse,
    sub,
)
from narch.measurement import (
    MeasurementAssignment,
    SigThreshold,
    chain_prefix_structure,
    diminishing_returns_index,
    is_accurate_measurement,
    min_feasible_top,
)
from narch.sig_order import (
    claim1_holds,
    claim2_holds,
    decide_affine_sig_prime,
    laurent_nonarch_witness,
    sig_less_laurent,
    verify_chain_prefix,
    verify_nonarch_prefix,
)

from .sampling import (
    brute_force_violation,
    random_certificate,
    random_series,
    random_threshold,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} FAIL: {description}")
        raise
    print(f"\ncriterion {number} PASS: {description}")


def test_criterion_1_worked_comparison_examples():
    with criterion(1, "worked comparison examples reproduce exactly, under 1 ms"):
        a = parse("5 eps^-1 - 2 eps^0 + 3 eps^1 + 4 eps^2")
        b = parse("5 eps^-1 - 2 eps^0 + 1 eps^1 + 4 eps^2 + 5 eps^6")
        c = parse("999999 eps^5")
        d = parse("1/100000 eps^4")
        start = time.perf_counter()
        first = compare(a, b)
        second = compare(c, d)
        elapsed = time.perf_counter() - start
        assert first is Ordering.GREATER
        assert second is Ordering.LESS
        assert elapsed < 0.001


def test_criterion_2_trapped_chain_witness():
    with criterion(2, "trapped-chain witness verifies for r in {1, 1/2, 3}, N=1000, under 1 s"):
        start = time.perf_counter()
        for r in (Fraction(1), Fraction(1, 2), Fraction(3)):
            chain, y = laurent_nonarch_witness(r, 1000)
            assert len(chain) == 1000
            assert verify_nonarch_prefix(chain, y, r)
            assert verify_chain_prefix(chain, r)
            assert all(sig_less_laurent(x, y, r) for x in chain)
            assert not any(sig_less_laurent(y, x, r) for x in chain)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_affine_certificates_and_claims():
    with criterion(3, "1000 accepted affine certificates satisfy both claims and the "
                      "decision agrees with brute force to stabilization + 100, under 30 s"):
        start = time.perf_counter()
        rnd = Random(0xA11CE)
        accepted = 0
        attempts = 0
        while accepted < 1000:
            attempts += 1
            assert attempts < 20000
            r = random_threshold(rnd)
            cert = random_certificate(rnd, r)
            decision = decide_affine_sig_prime(cert, r)
            oracle = brute_force_violation(cert, r, decision.stabilization_index + 100)
            if decision.accepted:
                assert oracle is None
                assert claim1_holds(cert, r)
                assert claim2_holds(cert, r)
                accepted += 1
            else:
                assert oracle == decision.violation_index
        assert time.perf_counter() - start < 30.0


def test_criterion_4_measurement_divergence():
    with criterion(4, "minimum feasible top equals (N+1)r against a propagation oracle "
                      "up to N=10^4, boundary accuracy for N<=100, under 5 s"):
        start = time.perf_counter()
        sampled = list(range(0, 1001)) + [1500, 2500, 5000, 7500, 9999, 10000]
        for r in (Fraction(1), Fraction(1, 3)):
            # independent oracle: incremental forward propagation across the
            # whole range, nesting each prefix inside the next
            oracle_top = r
            oracle = {0: oracle_top}
            for n in range(1, 10001):
                oracle_top += r
                oracle[n] = oracle_top
            for n in range(0, 10001):
                assert oracle[n] == (n + 1) * r
            for n in sampled:
                value = min_feasible_top(n, r)
                assert value == (n + 1) * r
                assert value == oracle[n]

        def check_boundary(n, r):
            structure = chain_prefix_structure(n + 1)
            exact = {f"x{i}": i * r for i in range(n + 1)}
            exact["y"] = (n + 1) * r
            assert is_accurate_measurement(
                structure, MeasurementAssignment(exact, SigThreshold(r))
            )
            for delta in (Fraction(1, 1000000), r):
                slack = dict(exact)
                slack["y"] = (n + 1) * r - delta
                assert not is_accurate_measurement(
                    structure, MeasurementAssignment(slack, SigThreshold(r))
                )

        for n in range(0, 101):
            check_boundary(n, Fraction(1))
        for n in range(0, 101, 10):
            check_boundary(n, Fraction(1, 3))
        assert time.perf_counter() - start < 5.0


def _blue_sum_by_enumeration(scheme: RewardScheme, n: int):
    """Independent blue-arm total: walk the powers of two up to n explicitly."""
    total = scheme.zero()
    power = 1
    exponent = 0
    while power <= n:
        total = total + scheme.jackpot(exponent)
        power *= 2
        exponent += 1
    return total


def test_criterion_5_delayed_gratification_flip():
    with criterion(5, "preference flips exactly at the crossover for static schemes and "
                      "never for exact or dynamic rewards, under 60 s"):
        start = time.perf_counter()

        # static M=1000: the scripted run flips exactly at the crossover step
        flip = None
        last_before_flip = None
        for row in scripted_eval(16000, RewardScheme.static_approx(1000)):
            if flip is None and row.blue_vs_red is Ordering.LESS:
                flip = row.step
            elif flip is None:
                last_before_flip = row.blue_vs_red
        expected = None
        for n in range(1, 16000):
            if 1000 * n.bit_length() < n:
                expected = n
                break
        assert expected == 14001
        assert flip == expected == crossover_step(1000)
        assert last_before_flip in (Ordering.EQUAL, Ordering.GREATER)

        # static M=1,000,000: the crossover matches an independent linear scan
        m = 1_000_000
        oracle = None
        for n in range(1, 26_000_000):
            if m * n.bit_length() < n:
                oracle = n
                break
        assert crossover_step(m) == oracle == 25_000_001
        scheme = RewardScheme.static_approx(m)
        for n, expected_order in (
            (oracle - 1, Ordering.EQUAL),
            (oracle, Ordering.LESS),
            (oracle + 1, Ordering.LESS),
        ):
            blue_sum = _blue_sum_by_enumeration(scheme, n)
            assert mean_compare(blue_sum, n, Fraction(n), n) is expected_order

        # exact rewards: blue stays preferred at every round up to 10^6
        for row in scripted_eval(1_000_000, RewardScheme.exact_laurent()):
            assert row.blue_vs_red is Ordering.GREATER

        # dynamic M=1,000,000: no flip up to 10^6
        for row in scripted_eval(1_000_000, RewardScheme.dynamic_approx(1_000_000)):
            assert row.blue_vs_red is not Ordering.LESS

        assert time.perf_counter() - start < 60.0


def test_criterion_6_ring_and_order_property_sweep():
    with criterion(6, "10^4 random triples satisfy ring laws, order laws, trichotomy, "
                      "transitivity, and significant-order refinement, under 30 s"):
        start = time.perf_counter()
        rnd = Random(0xC0FFEE)
        for _ in range(10_000):
            a = random_series(rnd)
            b = random_series(rnd)
            c = random_series(rnd)
            r = random_threshold(rnd)

            assert add(add(a, b), c) == add(a, add(b, c))
            assert add(a, b) == add(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, b) == mul(b, a)
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

            if not a.is_zero() and not b.is_zero():
                product = mul(a, b)
                assert order(product) == order(a) + order(b)
                assert leading_coeff(product) == leading_coeff(a) * leading_coeff(b)

            outcomes = [compare(a, b), compare(b, a)]
            assert (outcomes[0] is Ordering.EQUAL) == (outcomes[1] is Ordering.EQUAL)
            if outcomes[0] is not Ordering.EQUAL:
                assert {outcomes[0], outcomes[1]} == {Ordering.LESS, Ordering.GREATER}
            assert (compare(a, b) is Ordering.LESS) == (compare(sub(a, b), ZERO) is Ordering.LESS)

            low, mid, high = sorted([a, b, c])
            assert compare(low, mid) is not Ordering.GREATER
            assert compare(mid, high) is not Ordering.GREATER
            assert compare(low, high) is not Ordering.GREATER

            if sig_less_laurent(a, b, r):
                assert compare(a, b) is Ordering.LESS
        assert time.perf_counter() - start < 30.0


def test_criterion_7_cli_determinism(narch_cli, tmp_path):
    with criterion(7, "identical bandit commands produce byte-identical CSV traces"):
        for label, args in (
            ("egreedy", ["--scheme", "approx:1000", "--mode", "egreedy",
                         "--steps", "400", "--epsilon", "1/10", "--seed", "123456789"]),
            ("scripted", ["--scheme", "laurent", "--mode", "scripted", "--steps", "200"]),
        ):
            out_a = tmp_path / f"{label}_a.csv"
            out_b = tmp_path / f"{label}_b.csv"
            first = narch_cli("bandit", *args, "--out", str(out_a))
            second = narch_cli("bandit", *args, "--out", str(out_b))
            assert first.returncode == second.returncode == 0
            assert out_a.read_bytes() == out_b.read_bytes()
            assert json.loads(first.stdout) == json.loads(second.stdout)


def test_criterion_8_plateau_detector():
    with criterion(8, "plateau index 6 on the geometric sequence and none on the "
                      "linear one, under 1 ms"):
        geometric = [1 - Fraction(1, 2**i) for i in range(21)]
        linear = [Fraction(i) for i in range(11)]
        # oracle: first i with 2^-(i+1) < 1/100
        expected = next(i for i in range(20) if Fraction(1, 2 ** (i + 1)) < Fraction(1, 100))
        assert expected == 6
        start = time.perf_counter()
        found = diminishing_returns_index(geometric, Fraction(1, 100))
        missing = diminishing_returns_index(linear, Fraction(1, 2))
        elapsed = time.perf_counter() - start
        assert found == expected
        assert missing is None
        assert elapsed < 0.001
