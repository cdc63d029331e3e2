"""Significant-order predicates and certified infinite-chain analysis.

``sig_less_real`` and ``sig_less_laurent`` decide "x is significantly less
than y" for a fixed positive threshold r: on rationals this is a gap of at
least r, on Laurent values it is decided in integers by the leading rows
(order, numerator, denominator) that the kernel's one reader gives. The
reals satisfy an escape property under this relation (every strictly
climbing chain eventually significantly exceeds any fixed value); Laurent
values do not, and :func:`laurent_nonarch_witness` builds the explicit
counterexample chain together with the value it never overtakes.

A derived, coarser relation ``lower <<' upper`` holds when some infinite
chain starts at ``lower``, climbs significantly at every step, and stays
significantly below ``upper``. Arbitrary chains make that undecidable, so
certificates here carry an affine chain ``x_i = base + i * step``; every
coefficient of ``x_i`` is then affine in ``i``, which makes the universal
check over all ``i`` decidable (see :func:`decide_affine_sig_prime`), and
the leading term of any ``x_i`` is read from integers without building it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .laurent import (
    _ZERO_ROW,
    LaurentSeries,
    RationalLike,
    _Frozen,
    _integer,
    _leading_row,
    _slot_setters,
    add,
    as_rational,
    monomial,
    scalar_mul,
    series_from_json,
    series_to_json,
)


class SigThreshold(_Frozen):
    """A fixed positive gap; two values closer than this are not significantly apart."""

    __slots__ = ("r",)
    r: Fraction

    def __init__(self, r: RationalLike) -> None:
        # as_rational first: a SigThreshold is not a rational and raises TypeError
        _set_r(self, _threshold(as_rational(r)))


(_set_r,) = _slot_setters(SigThreshold)


ThresholdLike = Union[SigThreshold, Fraction, int, str]


def _threshold(r: ThresholdLike) -> Fraction:
    if isinstance(r, SigThreshold):
        return r.r
    value = as_rational(r)
    if value <= 0:
        raise ValueError("threshold must be positive")
    return value


def sig_less_real(x: RationalLike, y: RationalLike, r: ThresholdLike) -> bool:
    """True when x <= y - r: the gap from x up to y is at least r."""
    return as_rational(x) <= as_rational(y) - _threshold(r)


_NO_TERM = (0, 1)  # an absent exponent's coefficient


def _sig_less(a: tuple, b: tuple, gn: int, gd: int) -> bool:
    """:func:`sig_less_laurent` on leading rows, for the gap gn/gd > 0, in integers."""
    order_a, na, da = a
    order_b, nb, db = b
    if order_a > order_b:
        return nb > 0
    if order_a < order_b:
        return na < 0
    return na * db * gd <= (nb * gd - gn * db) * da  # na/da <= nb/db - gn/gd


def sig_less_laurent(a: LaurentSeries, b: LaurentSeries, r: ThresholdLike) -> bool:
    """The significant order on Laurent values.

    Holds when the order/leading-coefficient data satisfies one of:
    a has higher order (is smaller-scale) and b's leading coefficient is
    positive; a has lower order and a's leading coefficient is negative;
    or both have the same order and the leading coefficients are at least
    r apart. The zero series has infinite order and leading coefficient 0.
    """
    gap = _threshold(r)
    return _sig_less(_leading_row(a), _leading_row(b), gap.numerator, gap.denominator)


def verify_chain_prefix(seq: Sequence[LaurentSeries], r: ThresholdLike) -> bool:
    """True when every consecutive pair of the prefix climbs significantly."""
    if not seq:
        raise ValueError("chain prefix must be non-empty")
    gap = _threshold(r)
    gn, gd = gap.numerator, gap.denominator
    leads = [_leading_row(x) for x in seq]
    return all(_sig_less(a, b, gn, gd) for a, b in zip(leads, leads[1:]))


def laurent_nonarch_witness(
    r: ThresholdLike, n: int
) -> tuple[list[LaurentSeries], LaurentSeries]:
    """Prefix of the escape-property counterexample at threshold r.

    Returns the chain ``x_i = (i+1) * r * eps^1`` for i < n together with
    ``y = 1 eps^0``. Each step climbs by exactly r at order 1, every chain
    element is significantly below y, yet y is never significantly below
    any chain element: the chain is trapped under y forever.
    """
    gap = _threshold(r)
    if _integer(n, "prefix length") < 1:
        raise ValueError("prefix length must be positive")
    chain = [monomial((i + 1) * gap, 1) for i in range(n)]
    return chain, monomial(1, 0)


def verify_nonarch_prefix(
    chain: Sequence[LaurentSeries], y: LaurentSeries, r: ThresholdLike
) -> bool:
    """Check a trapped-chain prefix: climbing, below y, and y never overtaken."""
    gap = _threshold(r)
    if not verify_chain_prefix(chain, gap):
        return False
    gn, gd = gap.numerator, gap.denominator
    top = _leading_row(y)
    if not all(_sig_less(_leading_row(x), top, gn, gd) for x in chain):
        return False
    return not any(_sig_less(top, _leading_row(x), gn, gd) for x in chain)


def _series(value: object, what: str) -> LaurentSeries:
    if not isinstance(value, LaurentSeries):
        raise TypeError(f"{what} must be a LaurentSeries, got {value!r}")
    return value


class AffineChain(_Frozen):
    """The infinite sequence ``x_i = base + i * step`` for i = 0, 1, 2, ..."""

    __slots__ = ("base", "step")
    base: LaurentSeries
    step: LaurentSeries

    def __init__(self, base: LaurentSeries, step: LaurentSeries) -> None:
        _set_base(self, _series(base, "chain base"))
        _set_step(self, _series(step, "chain step"))

    def element(self, i: int) -> LaurentSeries:
        if _integer(i, "chain index") < 0:
            raise ValueError("chain index must be non-negative")
        return add(self.base, scalar_mul(i, self.step))


_set_base, _set_step = _slot_setters(AffineChain)


class SigPrimeCertificate(_Frozen):
    """Certificate that ``lower <<' upper`` via the affine chain.

    Valid when the chain starts at ``lower``, every element is
    significantly below its successor, and every element is significantly
    below ``upper``. Validity is decided, not assumed; build freely and run
    :func:`decide_affine_sig_prime`.
    """

    __slots__ = ("lower", "upper", "chain")
    lower: LaurentSeries
    upper: LaurentSeries
    chain: AffineChain

    def __init__(self, lower: LaurentSeries, upper: LaurentSeries, chain: AffineChain) -> None:
        _set_lower(self, _series(lower, "certificate lower"))
        _set_upper(self, _series(upper, "certificate upper"))
        if not isinstance(chain, AffineChain):
            raise TypeError(f"certificate chain must be an AffineChain, got {chain!r}")
        _set_chain(self, chain)


_set_lower, _set_upper, _set_chain = _slot_setters(SigPrimeCertificate)


class SigPrimeDecision(_Frozen):
    """Outcome of :func:`decide_affine_sig_prime`.

    ``violation_index`` is the smallest failing i when rejected, and
    ``failed_condition`` names the condition that fails there: ``"climb"``
    (x_i is not significantly below x_{i+1}) or ``"ceiling"`` (x_i is not
    significantly below ``upper``), ``"climb"`` when both fail; both are
    None when accepted. Past ``stabilization_index`` both certificate
    conditions keep a constant truth value, so deciding i up to that index
    decides all infinitely many i.
    """

    __slots__ = ("accepted", "violation_index", "stabilization_index", "failed_condition")
    accepted: bool
    violation_index: Optional[int]
    stabilization_index: int
    failed_condition: Optional[str]

    def __init__(
        self,
        accepted: bool,
        violation_index: Optional[int],
        stabilization_index: int,
        failed_condition: Optional[str] = None,
    ) -> None:
        _set_accepted(self, accepted)
        _set_violation_index(self, violation_index)
        _set_stabilization_index(self, stabilization_index)
        _set_failed_condition(self, failed_condition)

    def __bool__(self) -> bool:
        return self.accepted


(
    _set_accepted, _set_violation_index, _set_stabilization_index, _set_failed_condition
) = _slot_setters(SigPrimeDecision)


def _affine_rows(chain: AffineChain) -> list[tuple[int, int, int, int]]:
    """Rows ``(e, p, q, d)``, ascending in e over the exponents of base and step.

    The coefficient of ``x_i`` at e is (p + i * q) / d with d > 0, from
    base's b_num/b_den and step's s_num/s_den there: p = b_num * s_den,
    q = s_num * b_den, d = b_den * s_den, read off both series' rows; an
    absent exponent counts as 0/1.
    """
    base = {e: (n, d) for e, n, d in chain.base._rows}
    step = {e: (n, d) for e, n, d in chain.step._rows}
    rows = []
    for exponent in sorted(base.keys() | step.keys()):
        b_num, b_den = base.get(exponent, _NO_TERM)
        s_num, s_den = step.get(exponent, _NO_TERM)
        rows.append((exponent, b_num * s_den, s_num * b_den, b_den * s_den))
    return rows


def _leading_at(rows: list[tuple[int, int, int, int]], i: int) -> tuple:
    """The leading row of ``x_i``: its first row with a nonzero coefficient, unreduced."""
    for exponent, p, q, d in rows:
        numerator = p + i * q
        if numerator:
            return exponent, numerator, d
    return _ZERO_ROW


def _breakpoints(
    rows: list[tuple[int, int, int, int]], top: tuple, gn: int, gd: int
) -> tuple[int, list[int]]:
    """The stabilization index and the ascending candidate indices up to it.

    ``rows`` are the chain's :func:`_affine_rows`, ``top`` is ``upper``'s
    leading row and gn/gd > 0 the gap; every floor is an integer ``//``.

    Stabilization: a row with q != 0 has one root -p/q, past which its
    coefficient keeps a nonzero sign. Past the largest root the support,
    order and leading sign of ``x_i`` are frozen, the climb is the constant
    test "slope at that order >= gap", and the ceiling can flip once more,
    where an equal-order coefficient crosses lam - gap.

    Candidates: 0, floor(rho), floor(rho) + 1 and floor(tau) + 1. Let
    c(i) = b + i * s be the coefficient of ``x_i`` at the first row's
    exponent e0. If s = 0, every ``x_i`` leads with b at e0 and the climb
    fails at 0. Otherwise call i generic when c(i) and c(i+1) are nonzero:
    the climb is then the constant test s >= gap, so with s < gap every
    generic index fails it, and the ceiling against ``upper`` (order u,
    leading coefficient lam) is constant when e0 > u, c(i) < 0 when e0 < u
    (a zero ``upper`` included) and c(i) <= lam - gap when e0 == u. Only
    rho - 1 and rho, for an integer root rho = -b/s, are not generic. For
    a first failure F > 0:

    - F = rho is a candidate.
    - At rho - 1 the climb holds exactly when s > 0 (``x_{i+1}`` drops
      order), which the generic F - 1 forces, and the ceiling test is the
      generic one: F = rho - 1 only as in the last case.
    - At rho the climb holds when s > 0; after F - 1 = rho, F = floor(rho) + 1.
    - After a generic F - 1 only the ceiling can newly fail: c turns
      nonnegative (e0 < u, F = floor(rho) + 1) or crosses lam - gap
      upwards (e0 == u, F = floor(tau) + 1 for tau = (lam - gap - b) / s).

    Both are at most the stabilization index, so clipping drops only
    negative indices.
    """
    stabilization = 0
    for _, p, q, _ in rows:
        if q:
            stabilization = max(stabilization, -p // q + 1)
    candidates = {0}
    if rows and rows[0][2]:
        exponent, p, q, d = rows[0]
        root = -p // q
        candidates.update((root, root + 1))
        order, un, ud = top
        if order == exponent:
            crossing = ((un * gd - gn * ud) * d - p * ud * gd) // (q * ud * gd)
            stabilization = max(stabilization, crossing + 1)
            candidates.add(crossing + 1)
    return stabilization, sorted(i for i in candidates if 0 <= i <= stabilization)


def decide_affine_sig_prime(
    cert: SigPrimeCertificate, r: ThresholdLike
) -> SigPrimeDecision:
    """Decide whether the affine-chain certificate is valid for every i >= 0.

    Beyond the stabilization index both conditions (``x_i`` significantly
    below ``x_{i+1}`` and below ``upper``) are constant, and a constant
    condition that held at the index keeps holding, so the smallest
    failing i up to that index, if any, decides the whole infinite chain.
    That i is found without scanning: :func:`_breakpoints` reads at most
    four candidates off the chain's integer rows, 0, floor(rho),
    floor(rho) + 1 and floor(tau) + 1, and its case argument shows that the
    first failure is among them. Each candidate, in ascending order, is
    tested with the exact significant order on the leading terms of
    ``x_i``, ``x_{i+1}`` and ``upper``, which is all that
    :func:`sig_less_laurent` reads; the leading term of ``x_i`` is the
    first row where the integer numerator of b + i * s is nonzero, so no
    chain element is built. The first candidate that fails is the answer,
    since every smaller candidate was tested and passed; if none fails, no
    index fails. Rejections report the smallest violating i and the
    condition that failed there.

    Raises ValueError when the chain does not start at ``lower``.
    """
    gap = _threshold(r)
    if cert.chain.base != cert.lower:
        raise ValueError("certificate chain must start at its lower element")
    gn, gd = gap.numerator, gap.denominator
    rows = _affine_rows(cert.chain)
    top = _leading_row(cert.upper)
    stabilization, candidates = _breakpoints(rows, top, gn, gd)
    for i in candidates:
        current = _leading_at(rows, i)
        if not _sig_less(current, _leading_at(rows, i + 1), gn, gd):
            return SigPrimeDecision(False, i, stabilization, "climb")
        if not _sig_less(current, top, gn, gd):
            return SigPrimeDecision(False, i, stabilization, "ceiling")
    return SigPrimeDecision(True, None, stabilization)


def _require_accepted(cert: SigPrimeCertificate, r: ThresholdLike) -> None:
    decision = decide_affine_sig_prime(cert, r)
    if not decision.accepted:
        raise ValueError(
            f"certificate rejected at chain index {decision.violation_index}"
        )


def claim1_holds(cert: SigPrimeCertificate, r: ThresholdLike) -> bool:
    """Accepted certificates never have an upper element below zero."""
    _require_accepted(cert, r)
    return cert.upper.leading_coeff() >= 0  # a series has its leading coefficient's sign


def claim2_holds(cert: SigPrimeCertificate, r: ThresholdLike) -> bool:
    """With a nonnegative lower element, the upper element has strictly smaller order."""
    _require_accepted(cert, r)
    if cert.lower.leading_coeff() < 0:
        return True
    return cert.lower.order() > cert.upper.order()


def certificate_to_json(cert: SigPrimeCertificate) -> dict:
    return {
        "lower": series_to_json(cert.lower),
        "upper": series_to_json(cert.upper),
        "chain": {
            "base": series_to_json(cert.chain.base),
            "step": series_to_json(cert.chain.step),
        },
    }


def certificate_from_json(obj: object) -> SigPrimeCertificate:
    if not isinstance(obj, dict):
        raise ValueError("certificate JSON must be an object")
    try:
        chain_obj = obj["chain"]
        lower = series_from_json(obj["lower"])
        upper = series_from_json(obj["upper"])
    except KeyError as exc:
        raise ValueError(f"certificate JSON missing key {exc}") from exc
    if not isinstance(chain_obj, dict) or "base" not in chain_obj or "step" not in chain_obj:
        raise ValueError("certificate 'chain' must have 'base' and 'step'")
    chain = AffineChain(
        base=series_from_json(chain_obj["base"]),
        step=series_from_json(chain_obj["step"]),
    )
    return SigPrimeCertificate(lower=lower, upper=upper, chain=chain)
