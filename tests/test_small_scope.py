"""Every affine certificate and every series pair of a small scope, checked against oracles.

The oracle builds ``x_0 ... x_{N+1}`` with the kernel's ``add`` and
``scalar_mul`` and writes the significant order out on ``order()`` and
``leading_coeff()`` as ``Fraction``s; it imports nothing from
``sig_order``, so a fault that the library and a shared helper have in
common cannot hide. For each certificate the verdict, ``violation_index``
and ``failed_condition`` must equal the first index up to N where a
condition fails, and ``stabilization_index`` must be below N, so that the
oracle's finite scan covers every index where the conditions can change.
Both conditions must also keep their truth values from
``stabilization_index`` to N, as the decision's argument says.

Scope A (tier-1): base and step have coefficients in {-1, 0, 1, 2} at
exponents -1, 0 and 1, upper has coefficients in {-1, 0, 1} there, r is
1/2, 1 or 2 and N = 14. With ``HYPOTHESIS_PROFILE=ci`` the test runs
scope B instead, which takes upper's coefficients from {-1, 0, 1, 3}.

The test prints how many decisions took each path: accepted, or the
failed condition with the candidate its index equals (0, floor(rho),
floor(rho) + 1 or floor(tau) + 1, where rho is the root of the leading
coefficient b + i * s and tau the index where it crosses lam - r).

The kernel test takes every series over the same exponents with
coefficients in {-1, -1/2, 0, 1/2, 1, 2} (216 series), or with
``HYPOTHESIS_PROFILE=ci`` in {-2, -1, -1/2, 0, 1/3, 1/2, 1, 3} (512). On
every ordered pair it checks ``compare``, ``add``, ``sub`` and ``mul``
against ``reference_laurent``, and on every series the text of
``format_series`` and that ``parse`` reads it back. It prints how many
pairs compared LESS, EQUAL and GREATER and how many sums cancel at some
exponent.

The measurement test takes every relation on one to three labels, self-pairs
included (2 + 16 + 512 relations), under every assignment of values from
{0, 1/2, 1, 3/2, 2} and thresholds 1/2 and 1, whose exact gaps put values
on the bound. ``is_accurate_measurement`` must agree with the pairwise
definition written out on ``Fraction``s: the relation equals the set of
pairs with ``f(x1) + r <= f(x2)``. It prints how many checks were accurate
and how many relations have rows that do not nest.

The bandit test takes every static and dynamic M = p/q with p <= 24 and
q <= 4 (64 values) and compares ``first_flip`` at bounds 1 to 39 and 2,048
with a scan that adds up the jackpots paid at presses 1, 2, 4, ... from
their definition: the first step whose blue total is below its red total
of one unit per step, a tie not being a flip. ``crossover_step`` must give
the static scan's step, and the exact scheme no flip at all.
"""

import os
from collections import Counter
from fractions import Fraction
from itertools import product

from narch import (
    AffineChain,
    FiniteSigStructure,
    MeasurementAssignment,
    RewardScheme,
    SeriesParseError,
    SigPrimeCertificate,
    add,
    compare,
    crossover_step,
    decide_affine_sig_prime,
    first_flip,
    format_series,
    is_accurate_measurement,
    mul,
    normalize,
    parse,
    scalar_mul,
    sub,
)

from . import reference_laurent as reference

EXPONENTS = (-1, 0, 1)
CHAIN_COEFFICIENTS = (-1, 0, 1, 2)
THRESHOLDS = (Fraction(1, 2), Fraction(1), Fraction(2))
N = 14

# the paths of the candidate argument that each scope takes
PATHS = {"accepted", "climb at 0", "climb at floor(rho)+1",
         "ceiling at 0", "ceiling at floor(rho)", "ceiling at floor(rho)+1"}
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":  # the deeper CI run of conftest's profile
    UPPER_COEFFICIENTS = (-1, 0, 1, 3)  # scope B
    PATHS |= {"ceiling at floor(tau)+1"}
    SERIES_COEFFICIENTS = (-2, -1, -_HALF, 0, _THIRD, _HALF, 1, 3)  # 512 series
else:
    UPPER_COEFFICIENTS = (-1, 0, 1)  # scope A
    SERIES_COEFFICIENTS = (-1, -_HALF, 0, _HALF, 1, 2)  # 216 series


def _series(coefficients):
    return normalize(zip(EXPONENTS, coefficients))


def _lead(x):
    return x.order(), x.leading_coeff()


def _below(a, b, r):
    """a << b on (order, leading coefficient) pairs; the zero series has infinite order."""
    (order_a, lead_a), (order_b, lead_b) = a, b
    if order_a > order_b:
        return lead_b > 0
    if order_a < order_b:
        return lead_a < 0
    return lead_a <= lead_b - r


def _oracle(climbs, ceilings):
    """The first failure up to N, as (index, condition) or None, and the
    index from which both conditions keep their truth values up to N."""
    failure = next(
        ((i, "climb" if not climb else "ceiling")
         for i, (climb, ceiling) in enumerate(zip(climbs, ceilings))
         if not (climb and ceiling)),
        None,
    )
    frozen = N
    while frozen and (climbs[frozen - 1], ceilings[frozen - 1]) == (climbs[N], ceilings[N]):
        frozen -= 1
    return failure, frozen


def _path(base, step, upper, r, index):
    """The first candidate that the violation index equals, named."""
    if index == 0:
        return "0"
    base_terms, step_terms = dict(base.terms), dict(step.terms)
    e0 = min(base_terms.keys() | step_terms.keys())  # the first row's exponent
    b, s = base_terms.get(e0, 0), step_terms.get(e0, 0)
    if not s:
        return "other"  # every x_i leads with b at e0, and only 0 is a candidate
    rho = -b // s
    if index == rho:
        return "floor(rho)"
    if index == rho + 1:
        return "floor(rho)+1"
    if upper.order() == e0 and index == (upper.leading_coeff() - r - b) // s + 1:
        return "floor(tau)+1"
    return "other"


def test_every_small_certificate_matches_the_oracle():
    chain_series = [_series(c) for c in product(CHAIN_COEFFICIENTS, repeat=len(EXPONENTS))]
    by_top = {}  # the oracle reads only upper's order and leading coefficient
    for upper in map(_series, product(UPPER_COEFFICIENTS, repeat=len(EXPONENTS))):
        by_top.setdefault(_lead(upper), []).append(upper)
    paths, mismatches, decisions = Counter(), [], 0
    for base, step in product(chain_series, repeat=2):
        chain = AffineChain(base, step)
        leads = [_lead(add(base, scalar_mul(i, step))) for i in range(N + 2)]
        climbs = {
            r: [_below(leads[i], leads[i + 1], r) for i in range(N + 1)] for r in THRESHOLDS
        }
        for top, uppers in by_top.items():
            certs = [SigPrimeCertificate(base, upper, chain) for upper in uppers]
            for r in THRESHOLDS:
                ceilings = [_below(leads[i], top, r) for i in range(N + 1)]
                expected, frozen = _oracle(climbs[r], ceilings)
                for cert in certs:
                    decision = decide_affine_sig_prime(cert, r)
                    got = (decision.violation_index, decision.failed_condition)
                    decisions += 1
                    if decision.accepted != (expected is None) or (expected and got != expected):
                        mismatches.append((cert, r, decision, expected))
                    elif not frozen <= decision.stabilization_index < N:
                        mismatches.append((cert, r, decision, f"constant from {frozen}"))
                    elif expected is None:
                        paths["accepted"] += 1
                    else:
                        index, condition = expected
                        paths[f"{condition} at {_path(base, step, cert.upper, r, index)}"] += 1
    print(f"{decisions} decisions, {len(mismatches)} mismatches")
    for path, count in sorted(paths.items()):
        print(f"  {path}: {count}")
    assert decisions == len(chain_series) ** 2 * len(UPPER_COEFFICIENTS) ** 3 * len(THRESHOLDS)
    assert mismatches[:5] == []
    # the case argument of the candidates: every first failure is one of them
    assert not [path for path in paths if path.endswith(" at other")]
    # a scope that stopped reaching a path would stop checking it
    assert PATHS <= paths.keys()


def test_every_small_series_pair_matches_the_reference():
    rows = list(product(SERIES_COEFFICIENTS, repeat=len(EXPONENTS)))
    # inputs come from the reference, so a fault in the library's normalize
    # shows as a mismatch here and cannot corrupt the pairs
    values = [reference.normalize(zip(EXPONENTS, row)) for row in rows]
    negatives = [reference.normalize(zip(EXPONENTS, [-c for c in row])) for row in rows]
    mismatches = [row for row, x in zip(rows, values) if _series(row) != x]
    for x in values:
        text = format_series(x)
        try:
            back = parse(text)
        except SeriesParseError as error:
            back = error
        if text != reference.format_series(x) or back != x:
            mismatches.append((x, text, back))
    supports = [{e for e, _ in x.terms} for x in values]
    orderings, cancelling = Counter(), 0
    for x, x_support in zip(values, supports):
        for y, minus_y, y_support in zip(values, negatives, supports):
            ordering, total = compare(x, y), add(x, y)
            if (
                ordering is not reference.compare(x, y)
                or total != reference.add(x, y)
                or sub(x, y) != reference.add(x, minus_y)
                or mul(x, y) != reference.mul(x, y)
            ):
                mismatches.append((x, y))
            orderings[ordering.name] += 1
            cancelling += len(total.terms) < len(x_support | y_support)
    print(f"{len(values)} series, {len(values) ** 2} pairs, {len(mismatches)} mismatches")
    print(f"  {dict(sorted(orderings.items()))}, {cancelling} sums cancel at some exponent")
    assert mismatches[:5] == []
    # a scope without one of these would stop checking that branch
    assert orderings.keys() == {"LESS", "EQUAL", "GREATER"} and cancelling


LABELS = ("a", "b", "c")
VALUE_GRID = (0, _HALF, 1, 3 * _HALF, 2)
GAPS = (_HALF, Fraction(1))


def _nested(labels, relation):
    """Whether every two rows of the relation are ordered by inclusion."""
    rows = [{x2 for x1, x2 in relation if x1 == x} for x in labels]
    return all(row <= other or other <= row for row in rows for other in rows)


def test_every_small_relation_matches_the_pairwise_definition():
    checks, accurate, unnested, mismatches = 0, 0, 0, []
    for n in range(1, len(LABELS) + 1):
        labels = LABELS[:n]
        pairs = list(product(labels, repeat=2))
        cases = []  # (assignment, its separated pairs) per grid assignment and gap
        for values in product(VALUE_GRID, repeat=n):
            f = dict(zip(labels, map(Fraction, values)))
            for r in GAPS:
                separated = {(x1, x2) for x1, x2 in pairs if f[x1] + r <= f[x2]}
                cases.append((MeasurementAssignment(f, r), separated))
        for members in product((False, True), repeat=len(pairs)):
            relation = {pair for pair, member in zip(pairs, members) if member}
            structure = FiniteSigStructure(labels, relation)
            unnested += not _nested(labels, relation)
            for assignment, separated in cases:
                expected = relation == separated
                checks += 1
                accurate += expected
                if is_accurate_measurement(structure, assignment) != expected:
                    mismatches.append((structure, assignment, expected))
    print(f"{checks} checks, {accurate} accurate, {unnested} relations with rows that do not nest, "
          f"{len(mismatches)} mismatches")
    assert checks == sum(
        2 ** (n * n) * len(VALUE_GRID) ** n * len(GAPS) for n in range(1, len(LABELS) + 1)
    )
    assert mismatches[:5] == []
    # a scope without accurate checks or unnested rows would stop checking those paths
    assert accurate and unnested


M_GRID = sorted({Fraction(p, q) for p in range(1, 25) for q in range(1, 5)})
FLIP_BOUNDS = (*range(1, 40), 2048)


def _scanned_flip(m, dynamic, bound):
    """The first step <= bound whose blue total is below step red units, or None."""
    blue, jackpot, press = 0, m, 1
    for step in range(1, bound + 1):
        if step == press:  # the presses 1, 2, 4, ... pay m, or m * 2^j when dynamic
            blue += jackpot
            press *= 2
            jackpot *= 2 if dynamic else 1
        if blue < step:
            return step
    return None


def test_every_small_approximation_flips_where_a_step_scan_does():
    checks, flips, mismatches = 0, 0, []
    laurent = RewardScheme.exact_laurent()
    for m in M_GRID:
        static = _scanned_flip(m, False, max(FLIP_BOUNDS))
        if crossover_step(m, bound=max(FLIP_BOUNDS)) != static:
            mismatches.append(("crossover_step", m))
        for dynamic, scheme in ((False, RewardScheme.static_approx(m)),
                                (True, RewardScheme.dynamic_approx(m))):
            for bound in FLIP_BOUNDS:
                expected = _scanned_flip(m, dynamic, bound)
                checks += 1
                flips += expected is not None
                if first_flip(scheme, bound) != expected:
                    mismatches.append((scheme, bound, expected))
    mismatches += [bound for bound in FLIP_BOUNDS if first_flip(laurent, bound) is not None]
    print(f"{len(M_GRID)} values of M, {checks} checks, {flips} flips, {len(mismatches)} mismatches")
    assert len(M_GRID) == 64 and checks == 64 * 2 * len(FLIP_BOUNDS)
    assert mismatches[:5] == []
    # a scope without flips, or without runs that never flip, would check one side only
    assert 0 < flips < checks
