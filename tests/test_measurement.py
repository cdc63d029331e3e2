import copy
import pickle
import tracemalloc
from fractions import Fraction
from random import Random
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from narch.laurent import as_rational
from narch.measurement import (
    FiniteSigStructure,
    MeasurementAssignment,
    SigThreshold,
    assignment_from_json,
    chain_prefix_structure,
    diminishing_returns_index,
    is_accurate_measurement,
    min_feasible_top,
    structure_from_json,
    structure_to_json,
    assignment_to_json,
)

from .reference_measurement import (
    fraction_diminishing_returns_index,
    fraction_min_feasible_top,
    pairwise_is_accurate_measurement,
)
from .strategies import fraction_grid


def two_element_structure():
    return FiniteSigStructure(elements=("a", "b"), relation=frozenset({("a", "b")}))


class TestStructure:
    def test_rejects_undeclared_labels(self):
        with pytest.raises(ValueError):
            FiniteSigStructure(elements=("a",), relation=frozenset({("a", "b")}))

    @pytest.mark.parametrize("chain_len", [True, 2.5, Fraction(3)], ids=repr)
    def test_chain_rejects_non_integer_length(self, chain_len):
        with pytest.raises(TypeError):
            chain_prefix_structure(chain_len)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            FiniteSigStructure(elements=("a", "a"), relation=frozenset())

    def test_json_round_trip(self):
        for structure in (
            chain_prefix_structure(3),
            FiniteSigStructure(elements=("a", "b"), relation=frozenset()),
            FiniteSigStructure(elements=("a", "b"), relation=frozenset({("a", "a"), ("b", "a")})),
        ):
            assert structure_from_json(structure_to_json(structure)) == structure

    def test_json_rejects_non_string_labels_in_pairs(self):
        with pytest.raises(ValueError):
            structure_from_json({"elements": ["1", "2"], "relation": [[1, 2]]})

    def test_json_rejects_non_string_elements(self):
        with pytest.raises(ValueError):
            structure_from_json({"elements": ["1", 2], "relation": []})

    def test_json_rejects_malformed_entries(self):
        for entry in (["a"], ["a", "b", "a"], "ab", {"a": "b"}):
            with pytest.raises(ValueError):
                structure_from_json({"elements": ["a", "b"], "relation": [entry]})

    def test_rejects_string_as_pair(self):
        with pytest.raises(ValueError):
            FiniteSigStructure(elements=("a", "b"), relation=frozenset({"ab"}))

    def test_rejects_string_as_elements(self):
        with pytest.raises(ValueError):
            FiniteSigStructure(elements="ab", relation=frozenset())

    @pytest.mark.parametrize("kind", [set, frozenset])
    def test_rejects_a_set_of_elements(self, kind):
        # a set's iteration order, and so structure_to_json, would follow the hash seed
        with pytest.raises(ValueError, match="not a set"):
            FiniteSigStructure(elements=kind({"a", "b", "c", "d"}), relation=frozenset())

    @pytest.mark.parametrize("label", [["a"], {"a": 1}], ids=["list", "dict"])
    @pytest.mark.parametrize("at", [0, 1])
    def test_rejects_unhashable_labels(self, label, at):
        entry = [label, "a"] if at == 0 else ["a", label]
        with pytest.raises(ValueError, match="references undeclared elements"):
            FiniteSigStructure(elements=("a",), relation=[entry])
        with pytest.raises(ValueError, match="references undeclared elements"):
            structure_from_json({"elements": ["a"], "relation": [entry]})


PAIRS = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "c")]


def _routes():
    """The structure over ``PAIRS`` built from every shape of relation the constructor takes."""
    elements = ("a", "b", "c")
    return [
        FiniteSigStructure(elements=elements, relation=frozenset(PAIRS)),
        FiniteSigStructure(elements=list(elements), relation=[list(p) for p in PAIRS]),
        FiniteSigStructure(elements, [list(p) if k % 2 else p for k, p in enumerate(PAIRS)]),
        FiniteSigStructure(elements, PAIRS[::-1] + [list(p) for p in PAIRS] + PAIRS),
        FiniteSigStructure(elements, (p for p in PAIRS)),
        structure_from_json({"elements": list(elements), "relation": [list(p) for p in PAIRS]}),
    ]


class TestStorage:
    """Rows of element indices inside; label pairs only where ``relation`` is read."""

    def test_equal_values_from_every_route(self):
        routes = _routes()
        for structure in routes:
            assert structure._rows == ((1, 2), (2,), (2,))
            assert structure.relation == frozenset(PAIRS)
            assert structure == routes[0] and not structure != routes[0]
            assert hash(structure) == hash(routes[0])
        assert len(set(routes)) == 1

    def test_unequal_values(self):
        base = FiniteSigStructure(("a", "b"), [("a", "b")])
        for other in (
            FiniteSigStructure(("a", "b"), [("b", "a")]),
            FiniteSigStructure(("a", "b"), []),
            FiniteSigStructure(("b", "a"), [("a", "b")]),
            FiniteSigStructure(("a", "b", "c"), [("a", "b")]),
        ):
            assert base != other
        assert base != (("a", "b"), frozenset({("a", "b")}))

    def test_relation_is_rebuilt_on_each_read(self):
        structure = _routes()[0]
        first = structure.relation
        assert first == structure.relation and first is not structure.relation

    def test_repr_examples(self):
        assert repr(FiniteSigStructure(("a", "b"), [["a", "b"], ("a", "b")])) == (
            "FiniteSigStructure(elements=('a', 'b'), relation=frozenset({('a', 'b')}))"
        )
        assert repr(FiniteSigStructure(["x"], ())) == (
            "FiniteSigStructure(elements=('x',), relation=frozenset())"
        )

    def test_copies_and_pickles_are_equal(self):
        for structure in (*_routes(), chain_prefix_structure(5), FiniteSigStructure((), [])):
            for twin in (
                copy.copy(structure),
                copy.deepcopy(structure),
                pickle.loads(pickle.dumps(structure)),
            ):
                assert twin == structure and hash(twin) == hash(structure)
                assert twin._nested == structure._nested

    @pytest.mark.parametrize("name", ["elements", "relation", "_rows", "_nested", "other"])
    def test_values_are_immutable(self, name):
        structure = chain_prefix_structure(2)
        with pytest.raises(AttributeError):
            setattr(structure, name, ())
        with pytest.raises(AttributeError):
            delattr(structure, name)
        assert structure == chain_prefix_structure(2)

    @pytest.mark.parametrize(
        "elements, relation, message",
        [
            ("ab", [], "elements must be a sequence of labels, not one string"),
            ({"a"}, [], "elements must be an ordered sequence of labels, not a set"),
            (("a", 2), [], "element label 2 is not a string"),
            (("a", "b", "a"), [("x",)], "element labels must be unique"),
            (("a", "b"), [("a", "b"), "ab"], "relation entry 'ab' is not a pair"),
            (("a", "b"), [["a"]], "relation entry ['a'] is not a pair"),
            (("a", "b"), [("a", "b", "a")], "relation entry ('a', 'b', 'a') is not a pair"),
            (("a", "b"), [("a", "c"), "ab"],
             "relation pair ('a', 'c') references undeclared elements"),
            (("a",), [[["a"], "a"]], "relation pair [['a'], 'a'] references undeclared elements"),
            (("1", "2"), [[1, 2]], "relation pair [1, 2] references undeclared elements"),
        ],
    )
    def test_constructor_messages_are_unchanged(self, elements, relation, message):
        with pytest.raises(ValueError) as info:
            FiniteSigStructure(elements, relation)
        assert str(info.value) == message

    def test_decisions_read_no_relation(self, monkeypatch):
        # the seeded structures of TestRanksAgainstPairwise, as sets of tuples and as JSON lists
        rnd = Random(20200224)
        cases = []
        for k in range(1000):
            n = rnd.randint(1, 7)
            labels = [f"v{i}" for i in rnd.sample(range(20), n)]
            r = Fraction(rnd.randint(1, 4), 2)
            values = {x: Fraction(rnd.randint(0, 10), 2) for x in labels}
            all_pairs = [(x1, x2) for x1 in labels for x2 in labels]
            relation = _separated(values, r)
            if k % 2:
                relation ^= {rnd.choice(all_pairs)}
            elif rnd.random() < 0.2:
                relation = {pair for pair in all_pairs if rnd.random() < 0.3}
            assignment = MeasurementAssignment(values=values, threshold=SigThreshold(r))
            cases.append((labels, relation, assignment))
        expected = [
            pairwise_is_accurate_measurement(FiniteSigStructure(labels, relation), assignment)
            for labels, relation, assignment in cases
        ]
        assert 200 < sum(expected) < 800

        def refuse(self):
            raise AssertionError("a check read the relation's pairs")

        monkeypatch.setattr(FiniteSigStructure, "relation", property(refuse))
        for (labels, relation, assignment), accurate in zip(cases, expected):
            for structure in (
                FiniteSigStructure(labels, frozenset(relation)),
                structure_from_json({"elements": labels, "relation": [list(p) for p in relation]}),
            ):
                assert is_accurate_measurement(structure, assignment) is accurate
        structure = chain_prefix_structure(40)
        values = {x: i for i, x in enumerate(structure.elements)}
        assignment = MeasurementAssignment(values=values, threshold=SigThreshold(1))
        assert is_accurate_measurement(structure, assignment) is True


class TestAssignment:
    def test_rejects_non_string_labels(self):
        with pytest.raises(ValueError):
            MeasurementAssignment(values={1: 0, "1": 5}, threshold=SigThreshold(1))

    @pytest.mark.parametrize("values", ["ab", ["a", "b"], [("a", 0)], None], ids=repr)
    def test_values_must_be_a_mapping(self, values):
        with pytest.raises(TypeError, match="^values must be a mapping of labels to rationals"):
            MeasurementAssignment(values=values, threshold=SigThreshold(1))

    def test_values_may_be_any_mapping(self):
        proxy = MeasurementAssignment(values=MappingProxyType({"a": 0}), threshold=1)
        assert proxy == MeasurementAssignment(values={"a": 0}, threshold=1)

    def test_writing_to_values_changes_nothing(self):
        assignment = MeasurementAssignment(values={"a": 0, "b": 1}, threshold=SigThreshold(1))
        text = repr(assignment)
        values = assignment.values
        values["b"] = 0
        values["c"] = Fraction(5)
        del values["a"]
        assert assignment.values == {"a": Fraction(0), "b": Fraction(1)}
        assert assignment.values is not assignment.values
        assert repr(assignment) == text
        assert assignment == MeasurementAssignment(values={"a": 0, "b": 1}, threshold=1)
        assert is_accurate_measurement(two_element_structure(), assignment) is True
        assert assignment_to_json(assignment) == {"values": {"a": "0/1", "b": "1/1"}, "r": "1/1"}

    def test_values_cannot_be_assigned_or_deleted(self):
        assignment = MeasurementAssignment(values={"a": 0, "b": 1}, threshold=SigThreshold(1))
        with pytest.raises(AttributeError):
            setattr(assignment, "values", {"a": Fraction(5)})
        with pytest.raises(AttributeError):
            delattr(assignment, "values")
        assert assignment.values == {"a": Fraction(0), "b": Fraction(1)}

    def test_values_are_stored_in_lowest_terms(self):
        unreduced = MeasurementAssignment(values={"a": "-4/6", "b": "0/7"}, threshold="2/2")
        assert unreduced == MeasurementAssignment(
            values={"a": Fraction(-2, 3), "b": 0}, threshold=SigThreshold(1)
        )
        assert assignment_to_json(unreduced) == {"values": {"a": "-2/3", "b": "0/1"}, "r": "1/1"}


class TestAccuracy:
    def test_boundary_is_accurate(self):
        assignment = MeasurementAssignment(values={"a": 0, "b": 1}, threshold=SigThreshold(1))
        assert is_accurate_measurement(two_element_structure(), assignment)

    def test_insufficient_gap_is_inaccurate(self):
        assignment = MeasurementAssignment(
            values={"a": 0, "b": Fraction(1, 2)}, threshold=SigThreshold(1)
        )
        assert not is_accurate_measurement(two_element_structure(), assignment)

    def test_witness_prefix_with_linear_values(self):
        structure = chain_prefix_structure(3)
        assignment = MeasurementAssignment(
            values={"x0": 0, "x1": 1, "x2": 2, "y": 3}, threshold=SigThreshold(1)
        )
        assert is_accurate_measurement(structure, assignment)

    def test_self_pair_in_relation_is_never_accurate(self):
        structure = FiniteSigStructure(elements=("a",), relation=frozenset({("a", "a")}))
        assignment = MeasurementAssignment(values={"a": 0}, threshold=SigThreshold(1))
        assert not is_accurate_measurement(structure, assignment)

    def test_missing_value_raises(self):
        assignment = MeasurementAssignment(values={"a": 0}, threshold=SigThreshold(1))
        with pytest.raises(ValueError):
            is_accurate_measurement(two_element_structure(), assignment)

    def test_value_for_undeclared_element_raises(self):
        # of the extra labels, the least is named, whatever the hash seed
        values = {"a": 0, "zzz": 5, "b": 1, "c": 7}
        assignment = MeasurementAssignment(values=values, threshold=SigThreshold(1))
        with pytest.raises(ValueError, match="^value assigned to undeclared element 'c'$"):
            is_accurate_measurement(two_element_structure(), assignment)

    def test_assignment_json_round_trip(self):
        assignment = MeasurementAssignment(
            values={"a": Fraction(1, 3), "b": 2}, threshold=SigThreshold(Fraction(1, 2))
        )
        recovered = assignment_from_json(assignment_to_json(assignment))
        assert recovered == assignment


def _separated(values, r):
    return {(x1, x2) for x1 in values for x2 in values if values[x1] + r <= values[x2]}


def _check_both(elements, relation, values, r):
    structure = FiniteSigStructure(elements=tuple(elements), relation=frozenset(relation))
    assignment = MeasurementAssignment(values=values, threshold=SigThreshold(r))
    expected = pairwise_is_accurate_measurement(structure, assignment)
    assert is_accurate_measurement(structure, assignment) == expected
    return expected


class TestRanksAgainstPairwise:
    """The rank check against the pairwise reference in ``reference_measurement``."""

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=6),
        st.integers(1, 3),
        st.data(),
    )
    def test_hypothesis_structures(self, grid, r_steps, data):
        # values and r on a grid of halves, so ties and exact gaps of r occur
        labels = [f"v{i}" for i in range(len(grid))]
        values = {x: Fraction(k, 2) for x, k in zip(labels, grid)}
        r = Fraction(r_steps, 2)
        all_pairs = [(x1, x2) for x1 in labels for x2 in labels]
        relation = _separated(values, r)
        if data.draw(st.booleans()):
            relation ^= {data.draw(st.sampled_from(all_pairs))}
        elif data.draw(st.booleans()):
            relation = set(data.draw(st.lists(st.sampled_from(all_pairs), unique=True)))
        _check_both(labels, relation, values, r)

    def test_seeded_sweep(self):
        rnd = Random(20200224)
        outcomes = {True: 0, False: 0}
        seen = {"self_pair": 0, "empty": 0, "tie": 0, "exact_gap": 0}
        for k in range(5000):
            n = rnd.randint(1, 7)
            labels = [f"v{i}" for i in rnd.sample(range(20), n)]
            r = Fraction(rnd.randint(1, 4), 2)
            values = {x: Fraction(rnd.randint(0, 10), 2) for x in labels}
            all_pairs = [(x1, x2) for x1 in labels for x2 in labels]
            relation = _separated(values, r)
            if k % 2:
                relation ^= {rnd.choice(all_pairs)}
            elif rnd.random() < 0.2:
                relation = {pair for pair in all_pairs if rnd.random() < 0.3}
            outcomes[_check_both(labels, relation, values, r)] += 1
            seen["self_pair"] += any(x1 == x2 for x1, x2 in relation)
            seen["empty"] += not relation
            seen["tie"] += len(set(values.values())) < n
            seen["exact_gap"] += any(values[x1] + r == values[x2] for x1, x2 in all_pairs)
        assert outcomes[True] > 1000 and outcomes[False] > 1000, outcomes
        assert all(count > 100 for count in seen.values()), seen

    def test_chains_with_one_gap_closed(self):
        rnd = Random(8128)
        for _ in range(12):
            chain_len = rnd.randint(49, 119)
            structure = chain_prefix_structure(chain_len)
            r = Fraction(rnd.randint(1, 9), rnd.randint(1, 5))
            labels = [f"x{i}" for i in range(chain_len)] + ["y"]
            tight = {x: i * r for i, x in enumerate(labels)}
            # every element above position m moves down, closing that one gap
            m = rnd.randrange(chain_len)
            closed = dict(tight)
            shift = rnd.choice([r, r / 2, r / 10**6])
            for x in labels[m + 1:]:
                closed[x] -= shift
            for values, expected in ((tight, True), (closed, False)):
                assignment = MeasurementAssignment(values=values, threshold=SigThreshold(r))
                assert pairwise_is_accurate_measurement(structure, assignment) is expected
                assert is_accurate_measurement(structure, assignment) is expected

    def test_json_structures_with_repeats_self_pairs_and_isolated_elements(self):
        rnd = Random(31415)
        outcomes = {True: 0, False: 0}
        seen = {"repeat": 0, "self_pair": 0, "no_row": 0, "unrelated": 0, "shuffled": 0}
        for k in range(3000):
            n = rnd.randint(1, 7)
            labels = [f"v{i}" for i in range(n)]
            r = Fraction(rnd.randint(1, 4), 2)
            values = {x: Fraction(rnd.randint(0, 10), 2) for x in labels}
            all_pairs = [(x1, x2) for x1 in labels for x2 in labels]
            relation = _separated(values, r)
            if k % 3 == 1:
                relation ^= {rnd.choice(all_pairs)}
            elif k % 3 == 2:
                relation |= {(x, x) for x in rnd.sample(labels, rnd.randint(1, n))}
            # every pair as a list or a tuple, some twice, in both forms
            entries = [list(pair) if rnd.random() < 0.5 else pair for pair in relation]
            repeats = [rnd.choice((list, tuple))(pair) for pair in relation if rnd.random() < 0.3]
            entries += repeats
            rnd.shuffle(entries)
            elements = rnd.sample(labels, n)
            structure = structure_from_json({"elements": elements, "relation": entries})
            assignment = MeasurementAssignment(values=values, threshold=SigThreshold(r))
            expected = pairwise_is_accurate_measurement(structure, assignment)
            assert is_accurate_measurement(structure, assignment) == expected
            outcomes[expected] += 1
            assert structure.relation == frozenset(relation)
            seen["repeat"] += bool(repeats)
            seen["self_pair"] += any(x1 == x2 for x1, x2 in relation)
            seen["no_row"] += any(all(x1 != x for x1, _ in relation) for x in labels)
            seen["unrelated"] += any(all(x not in pair for pair in relation) for x in labels)
            seen["shuffled"] += elements != labels
        assert outcomes[True] > 500 and outcomes[False] > 500, outcomes
        assert all(count > 100 for count in seen.values()), seen

    def test_index_leaves_equality_hash_and_repr_alone(self):
        assignment = MeasurementAssignment(
            values={"a": 0, "b": 1, "c": 2}, threshold=SigThreshold(1)
        )
        for pairs in ([("a", "b")], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "c")]):
            direct = FiniteSigStructure(elements=("a", "b", "c"), relation=frozenset(pairs))
            # the same fields from reordered, repeated list entries: another index
            from_json = structure_from_json(
                {"elements": ["a", "b", "c"], "relation": [list(p) for p in pairs[::-1]] + pairs}
            )
            for structure in (direct, from_json):
                is_accurate_measurement(structure, assignment)
                assert repr(structure) == (
                    f"FiniteSigStructure(elements={structure.elements!r}, "
                    f"relation={structure.relation!r})"
                )
            assert direct == from_json
            assert hash(direct) == hash(from_json)
            assert {direct: 1}[from_json] == 1
            assert structure_to_json(direct) == structure_to_json(from_json)
        # one pair, so both frozensets print alike whatever the string hashes
        assert repr(
            structure_from_json({"elements": ["a", "b"], "relation": [["a", "b"], ("a", "b")]})
        ) == repr(FiniteSigStructure(elements=("a", "b"), relation=frozenset({("a", "b")})))


TINY = Fraction(1, 2**70)


def _cell(v):
    return (v.numerator << 64) // v.denominator


def _rows_nested(labels, relation):
    rows = sorted(({x2 for x1, x2 in relation if x1 == x} for x in labels), key=len)
    return all(inner <= outer for inner, outer in zip(rows, rows[1:]))


class TestCellsAndNestedRows:
    """Values and bounds that share a 2^-64 cell, and relations with rows not nested."""

    @pytest.mark.parametrize("r", [Fraction(2, 3), Fraction(1), Fraction(5, 2**66)])
    @pytest.mark.parametrize(
        "v", [Fraction(0), Fraction(1, 3), Fraction(-5, 7), Fraction(-2), Fraction(7, 2**64)]
    )
    def test_values_and_bounds_inside_one_cell(self, v, r):
        # v + r is one low value's bound exactly; 2^-70 moves a value within its
        # cell; labels run against the value order, so cells alone misrank them
        assert _cell(v + TINY) == _cell(v) and _cell(v + r + TINY) == _cell(v + r)
        values = {}
        for e in (1, 0, -1):
            values[f"low{e}"] = v + e * TINY
            values[f"high{e}"] = v + r + e * TINY
        labels = list(values)
        relation = _separated(values, r)
        assert _check_both(labels, relation, values, r) is True
        for pair in [(x1, x2) for x1 in labels for x2 in labels]:
            assert _check_both(labels, relation ^ {pair}, values, r) is False

    def test_no_fraction_is_built_unless_two_values_share_a_cell(self, monkeypatch):
        # a chain with its top as the benchmark draws them: labels shuffled, values
        # over assorted denominators, about half the gaps exactly r; distinct cells
        rnd = Random(4177)
        r = Fraction(2, 3)
        structure = structure_to_json(chain_prefix_structure(120))
        labels = [f"x{i}" for i in range(120)] + ["y"]
        level, values = Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)), {}
        for x in labels:
            values[x] = level
            level += r if rnd.random() < 0.5 else r + Fraction(1, rnd.randint(2, 50))
        rnd.shuffle(structure["elements"])
        perturbed = dict(values, x61=values["x60"] + r / 2)
        assert len({_cell(v) for v in values.values()}) == len(labels)
        built = []

        def spy(name, real):
            def counted(*args):
                built.append(name)
                return real(*args)

            return counted

        monkeypatch.setattr("narch.measurement.Fraction", spy("Fraction", Fraction))
        loaded = structure_from_json(structure)
        for chosen, accurate in ((values, True), (perturbed, False)):
            text = {x: f"{v.numerator}/{v.denominator}" for x, v in chosen.items()}
            assignment = assignment_from_json({"values": text, "r": "2/3"})
            assert is_accurate_measurement(loaded, assignment) is accurate
        assert built == []
        # the spy sees the Fractions that reading values builds, and those of
        # the (cell, value) ranking of distinct values inside one cell
        assert assignment.values == perturbed
        assert built == ["Fraction"] * len(labels)
        built.clear()
        one_cell = {"a": TINY, "b": 0, "c": -TINY, "d": 1}
        assignment = MeasurementAssignment(values=one_cell, threshold=SigThreshold(1))
        cell_structure = FiniteSigStructure(tuple(one_cell), _separated(one_cell, 1))
        assert is_accurate_measurement(cell_structure, assignment) is True
        assert built == ["Fraction"] * len(one_cell)

    def test_tied_values_rank_by_cells_and_build_no_fraction(self, monkeypatch):
        # equal values share a pair and a cell; only distinct values in one cell
        # need (cell, value) keys, here beside a tie inside that cell
        built = []

        def counted(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr("narch.measurement.Fraction", counted)
        tied = {"a": Fraction(1, 3), "b": 0, "c": Fraction(2, 6), "d": 0, "e": 1, "f": "4/3"}
        one_cell = {"a": TINY, "b": 0, "c": 0, "d": 1, "e": TINY}
        for values, fractions in ((tied, 0), (one_cell, len(one_cell))):
            values = {x: as_rational(v) for x, v in values.items()}
            labels = list(values)
            relation = _separated(values, 1)
            structure = FiniteSigStructure(tuple(labels), relation)
            assignment = MeasurementAssignment(values=values, threshold=SigThreshold(1))
            built.clear()
            assert is_accurate_measurement(structure, assignment) is True
            assert len(built) == fractions
            for pair in [(x1, x2) for x1 in labels for x2 in labels]:
                assert _check_both(labels, relation ^ {pair}, values, 1) is False

    def test_rows_not_nested_with_as_many_pairs_as_separated(self):
        rnd = Random(271828)
        seen = 0
        for _ in range(2000):
            n = rnd.randint(3, 7)
            labels = [f"v{i}" for i in range(n)]
            r = Fraction(rnd.randint(1, 4), 2)
            values = {
                x: Fraction(rnd.randint(-6, 6), 2) + rnd.choice((-TINY, 0, TINY)) for x in labels
            }
            all_pairs = [(x1, x2) for x1 in labels for x2 in labels]
            relation = set(rnd.sample(all_pairs, len(_separated(values, r))))
            if _rows_nested(labels, relation):
                continue
            seen += 1
            assert _check_both(labels, relation, values, r) is False
        assert seen > 500, seen

    def test_rows_not_nested_still_report_a_missing_value(self):
        structure = FiniteSigStructure(
            elements=("a", "b", "c"), relation=frozenset({("a", "b"), ("b", "a")})
        )
        partial = MeasurementAssignment(values={"a": 0, "b": 1}, threshold=SigThreshold(1))
        with pytest.raises(ValueError, match="no value assigned to element 'c'"):
            is_accurate_measurement(structure, partial)
        full = MeasurementAssignment(values={"a": 0, "b": 1, "c": 2}, threshold=SigThreshold(1))
        assert is_accurate_measurement(structure, full) is False

    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-1, 1)), min_size=1, max_size=6),
        st.integers(1, 3),
        st.integers(-1, 1),
        st.data(),
    )
    def test_hypothesis_half_grid_with_tiny_offsets(self, grid, r_steps, r_offset, data):
        labels = [f"v{i}" for i in range(len(grid))]
        values = {x: Fraction(k, 2) + e * TINY for x, (k, e) in zip(labels, grid)}
        r = Fraction(r_steps, 2) + r_offset * TINY
        all_pairs = [(x1, x2) for x1 in labels for x2 in labels]
        relation = _separated(values, r)
        if data.draw(st.booleans()):
            relation ^= {data.draw(st.sampled_from(all_pairs))}
        elif data.draw(st.booleans()):
            relation = set(data.draw(st.lists(st.sampled_from(all_pairs), unique=True)))
        _check_both(labels, relation, values, r)


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


class TestBoundedCost:
    def test_distinct_prime_denominators_in_bounded_memory(self):
        # 5,000 values in (1/4, 1/3) over distinct primes: no pair is r = 1
        # apart, so R = S = {}; a common denominator would be ~78,000 bits
        primes = _primes_below(50_000)[4:5004]
        assert len(primes) == 5000
        labels = [f"p{p}" for p in primes]
        values = MeasurementAssignment(
            values={x: Fraction(p // 3, p) for x, p in zip(labels, primes)},
            threshold=SigThreshold(1),
        )
        empty = FiniteSigStructure(elements=tuple(labels), relation=frozenset())
        one_pair = FiniteSigStructure(
            elements=tuple(labels), relation=frozenset({(labels[0], labels[-1])})
        )
        tracemalloc.start()
        try:
            assert is_accurate_measurement(empty, values) is True
            assert is_accurate_measurement(one_pair, values) is False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak

    def test_chain_from_json_lists_in_bounded_memory(self):
        # a 300-element chain and its top, 45,150 pairs: index rows are kept, not pairs
        obj = structure_to_json(chain_prefix_structure(300))
        assert len(obj["elements"]) == 301 and len(obj["relation"]) == 45_150
        tracemalloc.start()
        try:
            structure = structure_from_json(obj)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert structure._nested is not None
        assert retained < 1.5 * 2**20, retained
        assert peak < 4 * 2**20, peak


class TestMinFeasibleTop:
    def test_single_constraint(self):
        assert min_feasible_top(0, 1) == 1

    def test_propagated_example(self):
        assert min_feasible_top(4, Fraction(1, 2)) == Fraction(5, 2)

    def test_linear_growth(self):
        assert min_feasible_top(9999, 1) == 10000

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            min_feasible_top(-1, 1)

    @pytest.mark.parametrize("n", [True, -0.5, 2.5, Fraction(2)])
    def test_rejects_non_integer_index_before_its_sign(self, n):
        with pytest.raises(TypeError):
            min_feasible_top(n, 1)

    @given(st.integers(0, 300), st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7))
    def test_closed_form(self, n, r):
        assert min_feasible_top(n, r) == (n + 1) * r

    @given(
        st.integers(0, 12),
        st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4),
        st.data(),
    )
    def test_jittered_accurate_assignments_respect_bound(self, n, r, data):
        slack = st.sampled_from(fraction_grid(0, 2, 6))
        slacks = [r + data.draw(slack) for _ in range(n + 2)]
        base = data.draw(st.sampled_from(fraction_grid(-5, 5, 6)))
        values = {}
        level = base
        for i in range(n + 1):
            values[f"x{i}"] = level
            level += slacks[i]
        values["y"] = values[f"x{n}"] + slacks[n + 1]
        assignment = MeasurementAssignment(values=values, threshold=SigThreshold(r))
        assert is_accurate_measurement(chain_prefix_structure(n + 1), assignment)
        assert values["y"] - values["x0"] >= min_feasible_top(n, r)


class TestDiminishingReturns:
    def test_geometric_sequence(self):
        seq = [1 - Fraction(1, 2**i) for i in range(21)]
        assert diminishing_returns_index(seq, Fraction(1, 100)) == 6

    def test_linear_sequence_never_plateaus(self):
        assert diminishing_returns_index(list(range(11)), Fraction(1, 2)) is None

    def test_constant_sequence(self):
        assert diminishing_returns_index([3, 3, 3], Fraction(1, 7)) == 0

    def test_short_sequences(self):
        assert diminishing_returns_index([], 1) is None
        assert diminishing_returns_index([5], 1) is None

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            diminishing_returns_index([0, 1, Fraction(1, 2)], 1)
        with pytest.raises(ValueError):
            diminishing_returns_index([2, 2, 1], 1)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            diminishing_returns_index([1, 2], 0)

    @pytest.mark.parametrize("seq", ["1357", b"1357"], ids=["str", "bytes"])
    def test_rejects_a_bare_string(self, seq):
        # read item by item, both would give the plateau index 0
        with pytest.raises(ValueError, match="string or bytes"):
            diminishing_returns_index(seq, 3)
        assert diminishing_returns_index(["1", "3", "5", "7"], 3) == 0

    @pytest.mark.parametrize("kind", [set, frozenset])
    def test_rejects_a_set(self, kind):
        # a set's iteration order follows the hash seed
        with pytest.raises(ValueError, match="not a set"):
            diminishing_returns_index(kind({"1", "5", "2", "9", "3"}), "2")

    @pytest.mark.parametrize("kind", [dict, MappingProxyType])
    def test_rejects_a_mapping(self, kind):
        # iterated, a mapping gives its keys 0, 1, 5, which never rise by less than 1;
        # the values 5, 6, 0 decrease at index 1
        with pytest.raises(ValueError, match="not be a mapping"):
            diminishing_returns_index(kind({0: 5, 1: 6, 5: 0}), 1)

    @given(
        st.lists(
            st.sampled_from(fraction_grid(0, 4, 8)),
            min_size=20,
            max_size=24,
        ),
        st.fractions(min_value=Fraction(1, 4), max_value=1, max_denominator=4),
    )
    def test_pigeonhole_on_bounded_sequences(self, values, tol):
        seq = sorted(values)
        # range <= 4 and tol >= 1/4, so any 17 consecutive gaps cannot all reach tol
        assert diminishing_returns_index(seq, tol) is not None


def _outcome(function, *args):
    """The result with its type, or the exception's type and message."""
    try:
        result = function(*args)
    except (TypeError, ValueError) as error:
        return type(error), str(error)
    return type(result), result


@st.composite
def written(draw, value: Fraction):
    """value as a Fraction, an int where it is whole, or text over k times its terms."""
    form = draw(st.sampled_from(["fraction", "int", "text"]))
    if form == "fraction":
        return value
    if form == "int" and value.denominator == 1:
        return int(value)
    k = draw(st.integers(1, 4))
    return f"{value.numerator * k}/{value.denominator * k}"


def rational_likes(min_value=-6, max_value=6):
    return st.fractions(min_value=min_value, max_value=max_value, max_denominator=9).flatmap(
        written
    )


@st.composite
def sequences(draw):
    """Values from a start by drawn rises: zero, positive or, sometimes, negative."""
    lowest = draw(st.sampled_from([0, 0, -1]))
    rises = draw(st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(lowest, 3, max_denominator=9)),
        max_size=24,
    ))
    level, values = draw(st.fractions(-6, 6, max_denominator=9)), []
    for rise in [Fraction(0), *rises]:
        level += rise
        values.append(draw(written(level)))
    return values[1:] if draw(st.booleans()) else values


class TestAgainstFractionReference:
    """The integer-pair closed forms against their Fraction arithmetic references."""

    @given(
        st.one_of(st.integers(-3, 10_000), st.sampled_from([True, 2.0, Fraction(3)])),
        st.one_of(
            rational_likes(-2, 4),
            rational_likes(Fraction(1, 9), 4).map(SigThreshold),
            st.sampled_from([0.5, "1/0", "+1", None]),
        ),
    )
    def test_min_feasible_top(self, n, r):
        assert _outcome(min_feasible_top, n, r) == _outcome(fraction_min_feasible_top, n, r)

    @given(sequences(), st.one_of(rational_likes(-1, 2), st.sampled_from([0, "0/3", 0.5])))
    def test_diminishing_returns_index(self, seq, tol):
        assert _outcome(diminishing_returns_index, seq, tol) == _outcome(
            fraction_diminishing_returns_index, seq, tol
        )

    @pytest.mark.parametrize("seq, tol, expected", [
        # plateaus at 1, then decreases at 3: the decrease is raised
        (["0", "4/2", "5/2", "6/2", "-6/8"], 1, (ValueError, "sequence decreases at index 3")),
        ([0, Fraction(1, 3), Fraction(1, 3), "2/6", 1], "1/3", (int, 1)),
        # equal neighbours: a zero tolerance is refused before the values are read
        (["3", "6/2", 3], 0, (ValueError, "tolerance must be positive")),
        (["3", "6/2", "x"], 1, (ValueError, "not a rational: 'x'")),
        ([1, 2.5], 1, (TypeError, "expected an exact rational, got float")),
    ], ids=["plateau-then-decrease", "equal-neighbours", "zero-tolerance", "bad-text", "float"])
    def test_examples(self, seq, tol, expected):
        assert _outcome(fraction_diminishing_returns_index, seq, tol) == expected
        assert _outcome(diminishing_returns_index, seq, tol) == expected
