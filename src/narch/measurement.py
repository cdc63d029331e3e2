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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .laurent import RationalLike, _integer, as_rational
from .sig_order import SigThreshold, ThresholdLike, _threshold


@dataclass(frozen=True)
class FiniteSigStructure:
    """Finite labelled elements with an explicit significantly-less relation.

    Labels are strings. Each relation entry must be a tuple or list of two
    declared labels; anything else (a bare string such as ``"ab"``, a
    number) raises ValueError instead of being coerced. The validation pass
    also stores, per element, the indices of the elements it is related
    below, which :func:`is_accurate_measurement` reads.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        if isinstance(self.elements, str):
            raise ValueError("elements must be a sequence of labels, not one string")
        elements = tuple(self.elements)
        for label in elements:
            if not isinstance(label, str):
                raise ValueError(f"element label {label!r} is not a string")
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("element labels must be unique")
        # one pass: every entry is shape-checked and resolved as it is stored;
        # lookup among the string labels also rules out non-string labels
        pairs = []
        above: list[list[int]] = [[] for _ in elements]
        for entry in self.relation:
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ValueError(f"relation entry {entry!r} is not a pair")
            x1, x2 = entry
            try:
                above[index[x1]].append(index[x2])
            except KeyError:
                raise ValueError(
                    f"relation pair {entry!r} references undeclared elements"
                ) from None
            pairs.append((x1, x2))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "relation", frozenset(pairs))
        # not a field, so equality, hash, repr and JSON see only the labels;
        # a repeated entry repeats an index, which no minimum notices
        object.__setattr__(self, "_above", tuple(map(tuple, above)))


@dataclass(frozen=True)
class MeasurementAssignment:
    """Candidate measurement: one exact rational per element, plus the threshold.

    Labels must be strings: ``{1: 0, "1": 5}`` raises ValueError rather
    than collapsing to one entry.
    """

    values: Mapping[str, Fraction]
    threshold: SigThreshold

    def __post_init__(self) -> None:
        for label in self.values:
            if not isinstance(label, str):
                raise ValueError(f"value label {label!r} is not a string")
        object.__setattr__(
            self, "values", {k: as_rational(v) for k, v in self.values.items()}
        )
        if not isinstance(self.threshold, SigThreshold):
            object.__setattr__(self, "threshold", SigThreshold(self.threshold))


def is_accurate_measurement(
    structure: FiniteSigStructure, assignment: MeasurementAssignment
) -> bool:
    """Check the full biconditional over every ordered pair, by value ranks.

    The assignment is accurate iff the relation R equals the set S of
    separated ordered pairs, those with ``f(x1) + r <= f(x2)``; pairs
    outside R matter too. Raises ValueError when an element has no value.

    The element indices are sorted by value once, giving each element its
    rank ``pos[i]``. One ascending sweep then gives ``first[i]``, the rank
    of the first value at or above ``f(x_i) + r``: that bound rises with
    the rank of ``x_i``, so the sweep's pointer never moves back. Every
    value at or above the bound sits at or after ``first[i]`` and every
    smaller one before it, ties included, so ``(x_i, x_j)`` is in S iff
    ``pos[j] >= first[i]`` and ``|S| = sum(n - first[i])``. If every
    relation pair passes that test, R is a subset of S, and R = S iff
    ``|R| = |S|``; the structure's per-element index of the elements above
    each one turns the test into one integer minimum per element. A
    self-pair always fails, because r > 0 puts ``first[i]`` after
    ``pos[i]``. The cost is O(n log n) Fraction comparisons to rank, O(n)
    for the sweep, and O(|R|) integer work over an index built once per
    structure, not n^2 Fraction tests.
    """
    values = assignment.values
    try:
        vals = [values[x] for x in structure.elements]
    except KeyError as missing:
        raise ValueError(f"no value assigned to element {missing.args[0]!r}") from None
    gap = assignment.threshold.r
    n = len(vals)
    order = sorted(range(n), key=vals.__getitem__)
    ranked = [vals[i] for i in order]
    pos = [0] * n
    first = [0] * n
    j = 0
    for k, i in enumerate(order):
        pos[i] = k
        bound = ranked[k] + gap
        while j < n and ranked[j] < bound:
            j += 1
        first[i] = j
    if n * n - sum(first) != len(structure.relation):
        return False
    for row, lowest in zip(structure._above, first):
        if row and min(map(pos.__getitem__, row)) < lowest:
            return False
    return True


def chain_prefix_structure(chain_len: int) -> FiniteSigStructure:
    """Chain x0 << x1 << ... << x_{chain_len-1}, all below a top element y.

    The relation is the full induced one: every earlier chain element is
    significantly below every later one and below y.
    """
    if _integer(chain_len, "chain length") < 1:
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
    if _integer(n, "chain index") < 0:
        raise ValueError("chain index must be non-negative")
    return (n + 1) * _threshold(r)


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
    if not isinstance(elements, list):
        raise ValueError("'elements' must be a list of labels")
    if not isinstance(relation, list):
        raise ValueError("'relation' must be a list of [x1, x2] pairs")
    # the constructor checks every label and entry in its single pass
    return FiniteSigStructure(elements=tuple(elements), relation=relation)


def assignment_from_json(obj: object) -> MeasurementAssignment:
    if not isinstance(obj, dict) or "values" not in obj or "r" not in obj:
        raise ValueError("assignment JSON must have 'values' and 'r'")
    values = obj["values"]
    if not isinstance(values, dict):
        raise ValueError("'values' must map labels to rationals")
    return MeasurementAssignment(values=values, threshold=SigThreshold(obj["r"]))


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
