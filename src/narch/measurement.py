"""Accuracy checks for real-valued measurements of significantly-ordered data.

A measurement assigns one exact rational per element; it is accurate for a
structure exactly when the relation holds iff the assigned values are at
least the threshold apart. For the trapped-chain family the minimum
feasible span of any accurate measurement grows linearly with the chain
length (:func:`min_feasible_top`), so no single assignment can serve every
prefix; bounded monotone measurements instead plateau, which
:func:`diminishing_returns_index` detects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .laurent import RationalLike, as_rational
from .sig_order import SigThreshold, ThresholdLike, _threshold


@dataclass(frozen=True)
class FiniteSigStructure:
    """Finite labelled elements with an explicit significantly-less relation."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(
            self, "relation", frozenset(tuple(pair) for pair in self.relation)
        )
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("element labels must be unique")
        declared = set(self.elements)
        for pair in self.relation:
            if len(pair) != 2:
                raise ValueError(f"relation entry {pair!r} is not a pair")
            if pair[0] not in declared or pair[1] not in declared:
                raise ValueError(f"relation pair {pair!r} references undeclared elements")


@dataclass(frozen=True)
class MeasurementAssignment:
    """Candidate measurement: one exact rational per element, plus the threshold."""

    values: Mapping[str, Fraction]
    threshold: SigThreshold

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", {str(k): as_rational(v) for k, v in self.values.items()}
        )
        if not isinstance(self.threshold, SigThreshold):
            object.__setattr__(self, "threshold", SigThreshold(self.threshold))


def is_accurate_measurement(
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


def chain_prefix_structure(chain_len: int) -> FiniteSigStructure:
    """Chain x0 << x1 << ... << x_{chain_len-1}, all below a top element y.

    The relation is the full induced one: every earlier chain element is
    significantly below every later one and below y.
    """
    if chain_len < 1:
        raise ValueError("chain length must be positive")
    labels = [f"x{i}" for i in range(chain_len)]
    relation = {(labels[i], labels[j]) for i in range(chain_len) for j in range(i + 1, chain_len)}
    relation |= {(label, "y") for label in labels}
    return FiniteSigStructure(elements=tuple(labels) + ("y",), relation=frozenset(relation))


def min_feasible_top(n: int, r: ThresholdLike) -> Fraction:
    """Minimum of f(y) - f(x0) over accurate measurements of x0 << ... << x_n << y.

    Each chain constraint forces f(x_{i+1}) >= f(x_i) + r and the top
    constraint forces f(y) >= f(x_n) + r, all tight at the minimum, so the
    n + 1 gaps sum to (n+1) * r: unbounded in n, which is why no single
    real-valued assignment measures the infinite chain.
    """
    if n < 0:
        raise ValueError("chain index must be non-negative")
    # operator.index rejects a float n, so the result stays exact
    return (operator.index(n) + 1) * _threshold(r)


def diminishing_returns_index(
    seq: Sequence[RationalLike], tol: RationalLike
) -> Optional[int]:
    """First index where consecutive growth drops below tol, or None.

    The sequence must be non-decreasing (a monotone measurement); a
    decreasing step anywhere raises ValueError.
    """
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


def structure_from_json(obj: object) -> FiniteSigStructure:
    if not isinstance(obj, dict) or "elements" not in obj or "relation" not in obj:
        raise ValueError("structure JSON must have 'elements' and 'relation'")
    elements = obj["elements"]
    relation = obj["relation"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ValueError("'elements' must be a list of labels")
    if not isinstance(relation, list):
        raise ValueError("'relation' must be a list of [x1, x2] pairs")
    pairs = set()
    for entry in relation:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"bad relation entry {entry!r}")
        pairs.add((str(entry[0]), str(entry[1])))
    return FiniteSigStructure(elements=tuple(elements), relation=frozenset(pairs))


def assignment_from_json(obj: object) -> MeasurementAssignment:
    if not isinstance(obj, dict) or "values" not in obj or "r" not in obj:
        raise ValueError("assignment JSON must have 'values' and 'r'")
    values = obj["values"]
    if not isinstance(values, dict):
        raise ValueError("'values' must map labels to rationals")
    return MeasurementAssignment(
        values={str(k): as_rational(v) for k, v in values.items()},
        threshold=SigThreshold(as_rational(obj["r"])),
    )


def structure_to_json(structure: FiniteSigStructure) -> dict:
    return {
        "elements": list(structure.elements),
        "relation": sorted([list(pair) for pair in structure.relation]),
    }


def assignment_to_json(assignment: MeasurementAssignment) -> dict:
    return {
        "values": {
            k: f"{v.numerator}/{v.denominator}" for k, v in sorted(assignment.values.items())
        },
        "r": f"{assignment.threshold.r.numerator}/{assignment.threshold.r.denominator}",
    }
