"""The element-based affine decision: a wide candidate set judged on built chain elements.

The library reads the leading terms of ``x_i`` as integers, never builds
an element, and tests at most four candidate indices. This reference
computes its breakpoints with ``Fraction`` floors over wide windows around
the root and the crossing, builds ``x_i`` and ``x_{i+1}`` with
:meth:`AffineChain.element`, and compares their orders and leading
coefficients as ``Fraction`` values. The differential tests in
``test_sig_order.py`` check the two against each other.
"""

import math
from fractions import Fraction

from narch.laurent import LaurentSeries
from narch.sig_order import AffineChain, SigPrimeCertificate, SigPrimeDecision, _threshold


def fraction_sig_less(a: LaurentSeries, b: LaurentSeries, gap) -> bool:
    """The significant order, read off orders and ``Fraction`` leading coefficients."""
    if a.order() > b.order():
        return b.leading_coeff() > 0
    if a.order() < b.order():
        return a.leading_coeff() < 0
    return a.leading_coeff() <= b.leading_coeff() - gap


def wide_breakpoints(
    chain: AffineChain, upper: LaurentSeries, gap: Fraction
) -> tuple[int, list[int]]:
    """The stabilization index and a superset of the library's candidates.

    Candidates are {0, 1, 2}, floor(rho) - 1 ... floor(rho) + 2 and
    floor(tau) - 1 ... floor(tau) + 3, clipped to [0, stabilization].
    """
    base, step = dict(chain.base.terms), chain.step.terms
    stabilization = 0
    for exponent, slope in step:
        root = -base.get(exponent, Fraction(0)) / slope
        stabilization = max(stabilization, math.floor(root) + 1)
    candidates = {0, 1, 2}
    if step and step[0][0] <= chain.base.order():
        lowest, slope = step[0]
        intercept = base.get(lowest, Fraction(0))
        root = math.floor(-intercept / slope)
        candidates.update(range(root - 1, root + 3))
        if upper.order() == lowest:
            crossing = math.floor((upper.leading_coeff() - gap - intercept) / slope)
            stabilization = max(stabilization, crossing + 1)
            candidates.update(range(crossing - 1, crossing + 4))
    return stabilization, sorted(i for i in candidates if 0 <= i <= stabilization)


def element_decide_affine_sig_prime(cert: SigPrimeCertificate, r) -> SigPrimeDecision:
    """The candidate loop of :func:`decide_affine_sig_prime` on built elements."""
    gap = _threshold(r)
    if cert.chain.base != cert.lower:
        raise ValueError("certificate chain must start at its lower element")
    stabilization, candidates = wide_breakpoints(cert.chain, cert.upper, gap)
    for i in candidates:
        current, successor = cert.chain.element(i), cert.chain.element(i + 1)
        if not fraction_sig_less(current, successor, gap):
            return SigPrimeDecision(False, i, stabilization, "climb")
        if not fraction_sig_less(current, cert.upper, gap):
            return SigPrimeDecision(False, i, stabilization, "ceiling")
    return SigPrimeDecision(True, None, stabilization)
