"""The element-based affine decision: each candidate judged on built chain elements.

The library reads the leading terms of ``x_i`` as integers and never builds
an element; this reference builds ``x_i`` and ``x_{i+1}`` with
:meth:`AffineChain.element` and compares their orders and leading
coefficients as ``Fraction`` values. The differential tests in
``test_sig_order.py`` check the two against each other.
"""

from narch.laurent import LaurentSeries
from narch.sig_order import SigPrimeCertificate, SigPrimeDecision, _breakpoints, _threshold


def fraction_sig_less(a: LaurentSeries, b: LaurentSeries, gap) -> bool:
    """The significant order, read off orders and ``Fraction`` leading coefficients."""
    if a.order() > b.order():
        return b.leading_coeff() > 0
    if a.order() < b.order():
        return a.leading_coeff() < 0
    return a.leading_coeff() <= b.leading_coeff() - gap


def element_decide_affine_sig_prime(cert: SigPrimeCertificate, r) -> SigPrimeDecision:
    """The candidate loop of :func:`decide_affine_sig_prime` on built elements."""
    gap = _threshold(r)
    if cert.chain.base != cert.lower:
        raise ValueError("certificate chain must start at its lower element")
    stabilization, candidates = _breakpoints(cert.chain, cert.upper, gap)
    for i in candidates:
        current, successor = cert.chain.element(i), cert.chain.element(i + 1)
        if not fraction_sig_less(current, successor, gap):
            return SigPrimeDecision(False, i, stabilization, "climb")
        if not fraction_sig_less(current, cert.upper, gap):
            return SigPrimeDecision(False, i, stabilization, "ceiling")
    return SigPrimeDecision(True, None, stabilization)
