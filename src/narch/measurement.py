"""Accuracy checks for real-valued measurements of significantly-ordered data.

A measurement assigns one exact rational per element; it is accurate for a
structure exactly when the relation holds iff the assigned values are at
least the threshold apart. For the trapped-chain family the minimum
feasible span of any accurate measurement grows linearly with the chain
length (:func:`min_feasible_top`), so no single assignment can serve every
prefix; bounded monotone measurements instead plateau, which
:func:`diminishing_returns_index` detects.

The accuracy check rests on two exact facts. First, the rows of the
separated set S, ``S_i = {j : f(x_j) >= f(x_i) + r}``, are suffixes of the
value order, so they are nested; a relation whose rows are not nested
equals S under no assignment, and for nested rows the relation is read
once per structure into two integer lists (see
:func:`is_accurate_measurement`). Second, ``floor(2^64 * v)`` never
decreases as v grows, so a value and a value or bound in another 2^-64
cell are ordered by their cells alone; only those sharing a cell are
compared exactly, and no common denominator is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .laurent import RationalLike, _Frozen, _integer, _slot_setters, as_rational
from .sig_order import SigThreshold, ThresholdLike, _threshold


class FiniteSigStructure(_Frozen):
    """Finite labelled elements with an explicit significantly-less relation.

    Labels are strings, given in an ordered sequence (a set raises
    ValueError: its order depends on the hash seed). Each relation entry
    must be a tuple or list of two declared labels; anything else (a bare
    string such as ``"ab"``, a number, a list) raises ValueError instead of
    being coerced. The one validation pass resolves each entry to a pair of
    element indices, and a value stores only the labels, each element's row
    of the relation as a sorted tuple of column indices, and the nested-row
    index that :func:`is_accurate_measurement` reads: no pair objects.
    ``relation`` gives the same relation as a frozenset of label pairs,
    rebuilt from the rows on each read. The rows are canonical, so equality
    and hashing read them directly. Values are immutable.
    """

    __slots__ = ("elements", "_rows", "_nested")

    def __init__(self, elements: Sequence[str], relation: Iterable[Sequence[str]]) -> None:
        if isinstance(elements, str):
            raise ValueError("elements must be a sequence of labels, not one string")
        if isinstance(elements, (set, frozenset)):
            raise ValueError("elements must be an ordered sequence of labels, not a set")
        elements = tuple(elements)
        for label in elements:
            if not isinstance(label, str):
                raise ValueError(f"element label {label!r} is not a string")
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("element labels must be unique")
        # one pass: every entry is shape-checked and resolved to its indices;
        # lookup among the string labels also rules out non-string labels
        rows: list[set[int]] = [set() for _ in elements]
        for entry in relation:
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ValueError(f"relation entry {entry!r} is not a pair")
            x1, x2 = entry
            try:
                rows[index[x1]].add(index[x2])
            except (KeyError, TypeError):  # undeclared, or unhashable and so never declared
                raise ValueError(
                    f"relation pair {entry!r} references undeclared elements"
                ) from None
        _set_elements(self, elements)
        _set_rows(self, tuple([tuple(sorted(row)) for row in rows]))
        _set_nested(self, _nested_row_index(rows))

    def __reduce__(self):
        # rebuilt from the labels and pairs the validating constructor takes
        return FiniteSigStructure, (self.elements, self.relation)

    @property
    def relation(self) -> frozenset[tuple[str, str]]:
        """The (x1, x2) label pairs with x1 significantly less than x2."""
        elements = self.elements
        return frozenset([(x, elements[j]) for x, row in zip(elements, self._rows) for j in row])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteSigStructure):
            return self.elements == other.elements and self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.elements, self._rows))

    def __repr__(self) -> str:
        return f"FiniteSigStructure(elements={self.elements!r}, relation={self.relation!r})"


_set_elements, _set_rows, _set_nested = _slot_setters(FiniteSigStructure)


def _nested_row_index(rows: list[set[int]]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``n - |R_i|`` per element i and ``n - m_j`` per element j, or None.

    None means the rows are not nested (see :func:`is_accurate_measurement`).
    Walking the rows from the smallest up, each must contain the one before
    it and gives its size to the elements it adds: O(|R|) set work.
    """
    n = len(rows)
    lowest = [0] * n
    inner: set[int] = set()
    for row in sorted(rows, key=len):
        if not inner <= row:
            return None
        for j in row - inner:
            lowest[j] = n - len(row)
        inner = row
    return tuple(n - len(row) for row in rows), tuple(lowest)


class MeasurementAssignment(_Frozen):
    """Candidate measurement: one exact rational per element, plus the threshold.

    Labels must be strings: ``{1: 0, "1": 5}`` raises ValueError rather
    than collapsing to one entry. The values are held in a dict, so an
    assignment is not hashable.
    """

    __slots__ = ("values", "threshold")
    values: Mapping[str, Fraction]
    threshold: SigThreshold

    def __init__(self, values: Mapping[str, RationalLike], threshold: ThresholdLike) -> None:
        for label in values:
            if not isinstance(label, str):
                raise ValueError(f"value label {label!r} is not a string")
        _set_values(self, {k: as_rational(v) for k, v in values.items()})
        _set_threshold(
            self, threshold if isinstance(threshold, SigThreshold) else SigThreshold(threshold)
        )


_set_values, _set_threshold = _slot_setters(MeasurementAssignment)


def is_accurate_measurement(
    structure: FiniteSigStructure, assignment: MeasurementAssignment
) -> bool:
    """Check the full biconditional over every ordered pair, by value ranks.

    The assignment is accurate iff the relation R equals the set S of
    separated ordered pairs, those with ``f(x1) + r <= f(x2)``; pairs
    outside R matter too. Raises ValueError when an element has no value
    or a value's label is not an element.

    The element indices are sorted by value once, giving each element its
    rank ``pos[i]``. One ascending sweep then gives ``first[i]``, the rank
    of the first value at or above ``f(x_i) + r``: that bound rises with
    the rank of ``x_i``, so the sweep's pointer never moves back. Every
    value at or above the bound sits at or after ``first[i]`` and every
    smaller one before it, ties included, so the row ``S_i`` is the suffix
    of ranks from ``first[i]`` on and has ``n - first[i]`` elements.

    Write ``R_i`` for the row of x_i in R and ``m_j`` for the size of the
    smallest row holding x_j (n when none does). Then R = S iff every
    ``first[i] == n - |R_i|`` and every ``pos[j] >= n - m_j``:

    - If R = S, each ``R_i = S_i`` has ``n - first[i]`` elements, and x_j in
      its smallest row ``R_i = S_i`` sits at rank ``first[i] = n - m_j``
      or later.
    - Conversely, take x_j in ``R_i``: ``m_j <= |R_i|``, so
      ``pos[j] >= n - m_j >= n - |R_i| = first[i]`` and x_j is in ``S_i``.
      So ``R_i`` is a subset of ``S_i`` of the same size, hence equal.

    Since the rows of S are suffixes, they are nested, so a relation whose
    rows are not nested is never accurate; the structure records that, or
    else the two integer lists, once. A self-pair always fails: the two
    conditions would give ``pos[i] >= n - m_i >= n - |R_i| = first[i]``,
    but r > 0 puts ``first[i]`` after ``pos[i]``.

    Values are ranked by ``(floor(2^64 * v), v)``, which orders exactly as
    v does: the cells decide unless two values share one. The sweep
    compares each value's cell with the bound's cell
    ``((p*b + a*q) << 64) // (q*b)`` for ``v = p/q`` and ``r = a/b``, and
    cross-multiplies a value against ``(p*b + a*q) / (q*b)`` only when the
    two cells are equal, as they are at every exact gap of r. The cost is
    O(|R|) once per structure and O(n log n) integer work per check, not
    n^2 Fraction tests.
    """
    values = assignment.values
    try:
        vals = [values[x] for x in structure.elements]
    except KeyError as missing:
        raise ValueError(f"no value assigned to element {missing.args[0]!r}") from None
    if len(values) != len(vals):
        extra = sorted(values.keys() - set(structure.elements))[0]
        raise ValueError(f"value assigned to undeclared element {extra!r}")
    if structure._nested is None:
        return False
    wanted, lowest = structure._nested
    gap = assignment.threshold.r
    a, b = gap.numerator, gap.denominator
    n = len(vals)
    ratios = [(v.numerator, v.denominator) for v in vals]
    cells = [(p << 64) // q for p, q in ratios]
    order = sorted(range(n), key=list(zip(cells, vals)).__getitem__)
    ranked = [cells[i] for i in order]
    j = 0
    for k, i in enumerate(order):
        if k < lowest[i]:
            return False
        # the bound f(x_i) + r is top / bottom; only a value in its cell needs them
        p, q = ratios[i]
        top, bottom = p * b + a * q, q * b
        cell = (top << 64) // bottom
        while j < n and ranked[j] < cell:
            j += 1
        while j < n and ranked[j] == cell:
            s, t = ratios[order[j]]
            if s * bottom >= top * t:
                break
            j += 1
        if j != wanted[i]:
            return False
    return True


def chain_prefix_structure(chain_len: int) -> FiniteSigStructure:
    """Chain x0 << x1 << ... << x_{chain_len-1}, all below a top element y.

    The relation is the full induced one: every earlier chain element is
    significantly below every later one and below y.
    """
    if _integer(chain_len, "chain length") < 1:
        raise ValueError("chain length must be positive")
    elements = tuple(f"x{i}" for i in range(chain_len)) + ("y",)
    relation = (
        (elements[i], elements[j]) for i in range(chain_len) for j in range(i + 1, chain_len + 1)
    )
    return FiniteSigStructure(elements=elements, relation=relation)


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
    decreasing step anywhere raises ValueError, and so does a bare string
    or bytes, whose characters or byte values would be read as the values,
    or a set, whose order depends on the hash seed.
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
