"""Plain references for the measurement layer, checked against the library.

The pairwise accuracy check tests the biconditional on every ordered pair;
the library decides the same question from value ranks. The two closed
forms below compute in ``Fraction`` arithmetic; the library reads the same
values as integer pairs. The differential tests in ``test_measurement.py``
check each library function against its reference.
"""

from fractions import Fraction
from typing import Optional, Sequence

from narch.laurent import RationalLike, _integer, as_rational
from narch.measurement import FiniteSigStructure, MeasurementAssignment
from narch.sig_order import ThresholdLike, _threshold


def pairwise_is_accurate_measurement(
    structure: FiniteSigStructure, assignment: MeasurementAssignment
) -> bool:
    """Check the full biconditional over every ordered pair of elements.

    Pairs outside the relation matter too: their values must NOT be
    threshold-separated. Raises ValueError when an element has no value.
    """
    values = assignment.values
    missing = [x for x in structure.elements if x not in values]
    if missing:
        raise ValueError(f"no value assigned to element {missing[0]!r}")
    gap = assignment.threshold.r
    relation = structure.relation
    # v1 <= v2 - gap, with the shift hoisted out of the quadratic loop
    shifted = {x: values[x] - gap for x in structure.elements}
    for x1 in structure.elements:
        v1 = values[x1]
        for x2 in structure.elements:
            if ((x1, x2) in relation) != (v1 <= shifted[x2]):
                return False
    return True


def fraction_min_feasible_top(n: int, r: ThresholdLike) -> Fraction:
    """(n + 1) * r by Fraction arithmetic, after the same argument checks."""
    if _integer(n, "chain index") < 0:
        raise ValueError("chain index must be non-negative")
    return (n + 1) * _threshold(r)


def fraction_diminishing_returns_index(
    seq: Sequence[RationalLike], tol: RationalLike
) -> Optional[int]:
    """The first index whose rise is below tol, by Fraction comparisons.

    Refuses strings, bytes and sets, then checks the whole sequence for a
    decrease before looking for the plateau.
    """
    if isinstance(seq, (str, bytes)):
        raise ValueError("sequence must hold rationals, not be a string or bytes")
    if isinstance(seq, (set, frozenset)):
        raise ValueError("sequence must be ordered, not a set")
    tolerance = as_rational(tol)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    values = [as_rational(v) for v in seq]
    for i in range(len(values) - 1):
        if values[i + 1] < values[i]:
            raise ValueError(f"sequence decreases at index {i}")
    for i in range(len(values) - 1):
        if values[i + 1] - values[i] < tolerance:
            return i
    return None
