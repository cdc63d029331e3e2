"""Seeded mass samplers for the randomized bulk suites.

Hypothesis drives the idiomatic property tests; these plain ``random``
based samplers exist for the large fixed-count sweeps, where example
counts are part of the check itself.
"""

from fractions import Fraction
from random import Random

from narch.laurent import LaurentSeries, ZERO, add, monomial, normalize
from narch.sig_order import AffineChain, SigPrimeCertificate, sig_less_laurent


def random_rational(rnd: Random, lo=-9, hi=9, max_den=4) -> Fraction:
    return Fraction(rnd.randint(lo, hi), rnd.randint(1, max_den))


def random_threshold(rnd: Random) -> Fraction:
    return Fraction(rnd.randint(1, 8), rnd.randint(1, 4))


def random_series(rnd: Random, min_exp=-3, max_exp=4, max_terms=3) -> LaurentSeries:
    pairs = [
        (rnd.randint(min_exp, max_exp), random_rational(rnd))
        for _ in range(rnd.randint(0, max_terms))
    ]
    return normalize(pairs)


def _noise_above(rnd: Random, exponent: int) -> LaurentSeries:
    if rnd.random() < 0.5:
        return ZERO
    coeff = random_rational(rnd)
    if coeff == 0:
        return ZERO
    return monomial(coeff, exponent + rnd.randint(1, 3))


def _climbing_certificate(rnd: Random, r: Fraction, negative_start: bool) -> SigPrimeCertificate:
    """A certificate that is valid by construction.

    The chain climbs at a single leading exponent k with slope >= r while
    the ceiling lives at a strictly smaller exponent with positive leading
    coefficient, so every element stays significantly below it.
    """
    k = rnd.randint(-2, 3)
    m = k - rnd.randint(1, 3)
    magnitude = Fraction(rnd.randint(1, 9), rnd.randint(1, 3))
    start = -magnitude if negative_start else magnitude
    slope = r * rnd.randint(1, 3)
    base = add(monomial(start, k), _noise_above(rnd, k))
    step = monomial(slope, k)
    upper = add(monomial(Fraction(rnd.randint(1, 9), rnd.randint(1, 3)), m), _noise_above(rnd, m))
    return SigPrimeCertificate(lower=base, upper=upper, chain=AffineChain(base, step))


def _arbitrary_certificate(rnd: Random) -> SigPrimeCertificate:
    base = random_series(rnd)
    step = random_series(rnd)
    upper = random_series(rnd)
    return SigPrimeCertificate(lower=base, upper=upper, chain=AffineChain(base, step))


def random_certificate(rnd: Random, r: Fraction) -> SigPrimeCertificate:
    """Mixed sampler: mostly valid-by-construction chains, some arbitrary ones."""
    roll = rnd.random()
    if roll < 0.4:
        return _climbing_certificate(rnd, r, negative_start=False)
    if roll < 0.7:
        return _climbing_certificate(rnd, r, negative_start=True)
    return _arbitrary_certificate(rnd)


def brute_force_violation(cert: SigPrimeCertificate, r, limit: int):
    """First i <= limit violating either condition, stepping by repeated addition."""
    x = cert.chain.base
    for i in range(limit + 1):
        successor = add(x, cert.chain.step)
        if not sig_less_laurent(x, successor, r) or not sig_less_laurent(x, cert.upper, r):
            return i
        x = successor
    return None


def breakpoint_certificate(rnd: Random, r: Fraction) -> SigPrimeCertificate:
    """A certificate aimed at the breakpoints of the affine decision.

    With e0 the smallest exponent of base and step, c(i) = b + i * s is the
    coefficient of x_i there. The draws put an integer root k = -b/s at a
    small index, so that x_k drops order or is the zero series; a ceiling
    at order e0 whose crossing with c(i) lands on k - 1, k or k + 1; a zero
    ceiling; zero base and step; slopes below r; and negative slopes.
    """
    e0 = rnd.randint(-2, 2)
    roll = rnd.random()
    if roll < 0.05:
        slope = Fraction(0)
    elif roll < 0.25:
        slope = r * Fraction(rnd.randint(0, 3), 4)
    elif roll < 0.4:
        slope = -r * rnd.randint(1, 3)
    else:
        slope = r * Fraction(rnd.randint(4, 12), 4)
    k = rnd.randint(-2, 40)
    if rnd.random() < 0.7:
        intercept = -k * slope
    else:
        intercept = random_rational(rnd)
    if slope == 0 and intercept == 0 and rnd.random() < 0.5:
        intercept = random_rational(rnd)
    base = add(monomial(intercept, e0), _noise_above(rnd, e0))
    step = add(monomial(slope, e0), _noise_above(rnd, e0))
    kind = rnd.random()
    if kind < 0.15:
        upper = ZERO
    elif kind < 0.7:
        # crossing tau = (lam - r - b) / s near k, with rational offsets
        target = k + rnd.randint(-1, 1) + Fraction(rnd.randint(-1, 1), rnd.randint(1, 3))
        lam = intercept + target * slope + r
        if lam == 0:
            lam = r
        upper = add(monomial(lam, e0), _noise_above(rnd, e0))
    else:
        upper = add(
            monomial(random_rational(rnd), e0 + rnd.randint(-2, 2)), _noise_above(rnd, e0 + 2)
        )
    return SigPrimeCertificate(lower=base, upper=upper, chain=AffineChain(base, step))
