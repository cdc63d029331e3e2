"""The pairwise accuracy check: the biconditional tested on every ordered pair.

The library decides the same question from value ranks; the differential
tests in ``test_measurement.py`` check the two against each other.
"""

from narch.measurement import FiniteSigStructure, MeasurementAssignment


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
