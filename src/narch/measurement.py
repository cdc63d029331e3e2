"""Accuracy checks for real-valued measurements of significantly-ordered data.

A measurement assigns one exact rational per element, stored as a reduced
integer pair ``(numerator, denominator)``; it is accurate for a structure
exactly when the relation holds iff the assigned values are at
least the threshold apart. For the trapped-chain family the minimum
feasible span of any accurate measurement grows linearly with the chain
length (:func:`min_feasible_top`), so no single real-valued assignment can
serve every prefix; bounded monotone measurements instead plateau, which
:func:`diminishing_returns_index` detects. Both work on integer pairs.

The accuracy check rests on two exact facts. First, the rows of the
separated set S, ``S_i = {j : f(x_j) >= f(x_i) + r}``, are suffixes of the
value order, so they are nested; a relation whose rows are not nested
equals S under no assignment, and for nested rows the relation is read
once per structure into two integer lists (see
:func:`is_accurate_measurement`). Second, ``floor(2^64 * v)`` never
decreases as v grows, so a value and a value or bound in another 2^-64
cell are ordered by their cells alone; only those sharing a cell are
compared exactly, and no common denominator is ever formed. The check
reads the integer pairs and builds a ``Fraction`` only when two distinct
values share a cell; ``MeasurementAssignment.values`` builds them when read.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import Optional

from .laurent import (
    RationalLike,
    _Frozen,
    _integer,
    _rational_parts,
    _reduced,
)
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
    index that :func:`is_accurate_measurement` reads: no pair objects (a
    300-element chain with its top, 45,150 pairs, retains about 0.37 MiB).
    ``relation`` gives the same relation as a frozenset of label pairs,
    rebuilt from the rows on each read. The rows are canonical, so equality
    and hashing read them directly. Values are immutable.
    """

    __slots__ = ("elements", "_rows", "_nested")
    __match_args__ = ("elements", "relation")

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
        self._store(elements, tuple([tuple(sorted(row)) for row in rows]), _nested_row_index(rows))

    @property
    def relation(self) -> frozenset[tuple[str, str]]:
        """The (x1, x2) label pairs with x1 significantly less than x2."""
        elements = self.elements
        return frozenset([(x, elements[j]) for x, row in zip(elements, self._rows) for j in row])


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
    than collapsing to one entry. A value stores one reduced integer pair
    ``(numerator, denominator > 0)`` per label, held in a dict, so an
    assignment is not hashable. The pairs are canonical, so equality reads
    them directly. ``values`` gives the same values as a new dict of
    Fractions, built on each read: writing to it changes nothing here.
    """

    __slots__ = ("_pairs", "threshold")
    __match_args__ = ("values", "threshold")
    threshold: SigThreshold

    def __init__(self, values: Mapping[str, RationalLike], threshold: ThresholdLike) -> None:
        if not isinstance(values, Mapping):
            raise TypeError(f"values must be a mapping of labels to rationals, got {values!r}")
        for label in values:
            if not isinstance(label, str):
                raise ValueError(f"value label {label!r} is not a string")
        self._store(
            # a kernel row's (numerator, denominator): laurent keeps the lowest-terms rule
            {k: _reduced(0, *_rational_parts(v))[1:] for k, v in values.items()},
            threshold if isinstance(threshold, SigThreshold) else SigThreshold(threshold),
        )

    @property
    def values(self) -> dict[str, Fraction]:
        """The label to Fraction map, rebuilt from the pairs on each read."""
        return {k: Fraction(p, q) for k, (p, q) in self._pairs.items()}


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

    Values are ranked by their integer cells ``floor(2^64 * v)`` alone,
    computed from the reduced pairs ``v = p/q``: distinct cells order
    exactly as the values do, and equal values have equal pairs and cells.
    Only when two distinct values share a cell are they ranked by
    ``(cell, v)`` keys, with v built as a ``Fraction``. The sweep
    compares each value's cell with the bound's cell
    ``((p*b + a*q) << 64) // (q*b)`` for ``v = p/q`` and ``r = a/b``, and
    cross-multiplies a value against ``(p*b + a*q) / (q*b)`` only when the
    two cells are equal, as they are at every exact gap of r. The cost is
    O(|R|) once per structure and O(n log n) integer work per check, not
    n^2 Fraction tests, and memory stays O(n + |R|) whatever the values'
    denominators.
    """
    pairs = assignment._pairs
    try:
        ratios = [pairs[x] for x in structure.elements]
    except KeyError as missing:
        raise ValueError(f"no value assigned to element {missing.args[0]!r}") from None
    if len(pairs) != len(ratios):
        extra = sorted(pairs.keys() - set(structure.elements))[0]
        raise ValueError(f"value assigned to undeclared element {extra!r}")
    if structure._nested is None:
        return False
    wanted, lowest = structure._nested
    gap = assignment.threshold.r
    a, b = gap.numerator, gap.denominator
    n = len(ratios)
    cells = [(p << 64) // q for p, q in ratios]
    # the pairs are canonical, so equal values share a pair and a cell, and the
    # stable sort keeps them in index order as (cell, value) keys would
    distinct = len(set(cells))
    if distinct == n or distinct == len(set(ratios)):
        order = sorted(range(n), key=cells.__getitem__)
    else:
        exact = [Fraction(p, q) for p, q in ratios]
        order = sorted(range(n), key=list(zip(cells, exact)).__getitem__)
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
    gap = _threshold(r)
    return Fraction((n + 1) * gap.numerator, gap.denominator)


def diminishing_returns_index(
    seq: Sequence[RationalLike], tol: RationalLike
) -> Optional[int]:
    """First index where consecutive growth drops below tol, or None.

    The sequence must be non-decreasing (a monotone measurement); a
    decreasing step anywhere raises ValueError, and so does a bare string
    or bytes, whose characters or byte values would be read as the values,
    a set, whose order depends on the hash seed, or a mapping, whose keys
    would be read as the values. One pass cross-multiplies the integer pairs.
    """
    if isinstance(seq, (str, bytes)):
        raise ValueError("sequence must hold rationals, not be a string or bytes")
    if isinstance(seq, (set, frozenset)):
        raise ValueError("sequence must be ordered, not a set")
    if isinstance(seq, Mapping):
        raise ValueError("sequence must hold the values, not be a mapping")
    tn, td = _rational_parts(tol)
    if tn <= 0:
        raise ValueError("tolerance must be positive")
    pairs = [_rational_parts(v) for v in seq]
    index = None
    for i, ((p, q), (s, t)) in enumerate(zip(pairs, pairs[1:])):
        rise = s * q - p * t  # (s/t - p/q) * q*t, over positive denominators
        if rise < 0:
            raise ValueError(f"sequence decreases at index {i}")
        if index is None and rise * td < tn * q * t:
            index = i
    return index


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
            k: f"{p}/{q}" for k, (p, q) in sorted(assignment._pairs.items())
        },
        "r": f"{assignment.threshold.r.numerator}/{assignment.threshold.r.denominator}",
    }
