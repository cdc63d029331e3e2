"""The nine immutable value classes behave as the frozen dataclasses they replaced.

Each case builds one value positionally and once more by keyword. The
pinned reprs are the text the dataclass versions printed; equality, hashing,
copying and pickling are compared with the same values built afresh.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from narch.bandit import Arm, EnvState, EpsilonGreedyResult, PullRow, RewardScheme, RunConfig
from narch.laurent import LaurentSeries, _Frozen, parse
from narch.measurement import FiniteSigStructure, MeasurementAssignment
from narch.sig_order import (
    AffineChain,
    SigPrimeCertificate,
    SigPrimeDecision,
    SigThreshold,
    decide_affine_sig_prime,
)

_CONFIG = RunConfig(RewardScheme.static_approx("7/2"), "egreedy", 3, "1/2", 7)
_ROW = PullRow(1, Arm.RED, Fraction(1), Fraction(1), None, Arm.RED)
_CHAIN = AffineChain(parse("1 eps^1"), parse("1/2 eps^0"))

# (class, positional arguments, keyword arguments, pinned repr)
CASES = [
    (RewardScheme, ("static", "7/2"), {"kind": "static", "approx": Fraction(7, 2)},
     "RewardScheme(kind='static', approx=Fraction(7, 2))"),
    (RewardScheme, ("laurent",), {"kind": "laurent", "approx": None},
     "RewardScheme(kind='laurent', approx=None)"),
    (EnvState, (1, 2), {"blue_presses": 1, "step_count": 2},
     "EnvState(blue_presses=1, step_count=2)"),
    (EnvState, (), {"blue_presses": 0, "step_count": 0},
     "EnvState(blue_presses=0, step_count=0)"),
    (RunConfig, (RewardScheme.exact_laurent(), "scripted", 5),
     {"scheme": RewardScheme("laurent"), "mode": "scripted", "steps": 5, "epsilon": 0, "seed": 0},
     "RunConfig(scheme=RewardScheme(kind='laurent', approx=None), mode='scripted', steps=5, "
     "epsilon=Fraction(0, 1), seed=0)"),
    (RunConfig, (RewardScheme.static_approx(3), "egreedy", 3, "1/2", 7),
     {"scheme": RewardScheme("static", 3), "mode": "egreedy", "steps": 3,
      "epsilon": Fraction(1, 2), "seed": 7},
     "RunConfig(scheme=RewardScheme(kind='static', approx=Fraction(3, 1)), mode='egreedy', "
     "steps=3, epsilon=Fraction(1, 2), seed=7)"),
    (EpsilonGreedyResult, (_CONFIG, 1, 0, Fraction(1), Fraction(0), Arm.RED, (_ROW,)),
     {"config": _CONFIG, "red_pulls": 1, "blue_pulls": 0, "red_sum": Fraction(1),
      "blue_sum": Fraction(0), "final_greedy": Arm.RED, "trace": (_ROW,)},
     "EpsilonGreedyResult(config=RunConfig(scheme=RewardScheme(kind='static', "
     "approx=Fraction(7, 2)), mode='egreedy', steps=3, epsilon=Fraction(1, 2), seed=7), "
     "red_pulls=1, blue_pulls=0, red_sum=Fraction(1, 1), blue_sum=Fraction(0, 1), "
     "final_greedy=<Arm.RED: 'red'>, trace=(PullRow(step=1, arm=<Arm.RED: 'red'>, "
     "reward=Fraction(1, 1), red_mean=Fraction(1, 1), blue_mean=None, "
     "preferred=<Arm.RED: 'red'>),))"),
    (SigThreshold, ("1/2",), {"r": Fraction(1, 2)}, "SigThreshold(r=Fraction(1, 2))"),
    (AffineChain, (parse("1 eps^1"), parse("1/2")),
     {"base": parse("1 eps^1"), "step": parse("1/2")},
     "AffineChain(base=LaurentSeries('1 eps^1'), step=LaurentSeries('1/2 eps^0'))"),
    (SigPrimeCertificate, (parse("1 eps^1"), parse("1 eps^-1"), _CHAIN),
     {"lower": parse("1 eps^1"), "upper": parse("1 eps^-1"),
      "chain": AffineChain(parse("1 eps^1"), parse("1/2"))},
     "SigPrimeCertificate(lower=LaurentSeries('1 eps^1'), upper=LaurentSeries('1 eps^-1'), "
     "chain=AffineChain(base=LaurentSeries('1 eps^1'), step=LaurentSeries('1/2 eps^0')))"),
    (SigPrimeDecision, (False, 3, 5, "climb"),
     {"accepted": False, "violation_index": 3, "stabilization_index": 5,
      "failed_condition": "climb"},
     "SigPrimeDecision(accepted=False, violation_index=3, stabilization_index=5, "
     "failed_condition='climb')"),
    (SigPrimeDecision, (True, None, 0),
     {"accepted": True, "violation_index": None, "stabilization_index": 0},
     "SigPrimeDecision(accepted=True, violation_index=None, stabilization_index=0, "
     "failed_condition=None)"),
    (MeasurementAssignment, ({"a": 0, "b": "1/2"}, "1"),
     {"values": {"a": Fraction(0), "b": Fraction(1, 2)}, "threshold": SigThreshold(1)},
     "MeasurementAssignment(values={'a': Fraction(0, 1), 'b': Fraction(1, 2)}, "
     "threshold=SigThreshold(r=Fraction(1, 1)))"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(CASES)]
VALUES = [pytest.param(cls(*args), id=case_id) for (cls, args, _, _), case_id in zip(CASES, IDS)]


def test_every_value_class_is_covered():
    assert len({cls for cls, *_ in CASES}) == 9


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(cls, args, kwargs, text):
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_positional_and_keyword_values_are_equal(cls, args, kwargs, text):
    positional, keyword = cls(*args), cls(**kwargs)
    assert positional == keyword and not positional != keyword
    if cls is MeasurementAssignment:
        with pytest.raises(TypeError, match="unhashable"):
            hash(positional)
    else:
        assert hash(positional) == hash(keyword)
        fields = tuple(getattr(positional, name) for name in cls.__match_args__)
        assert hash(positional) == hash(fields)


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_another_class_with_equal_fields_is_unequal(cls, args, kwargs, text):
    lookalike = type("Lookalike", (cls,), {"__slots__": ()})
    value, other = cls(**kwargs), lookalike(**kwargs)
    assert value != other and other != value
    assert repr(other) == text.replace(cls.__name__, "Lookalike", 1)
    assert value != tuple(kwargs.values())


@pytest.mark.parametrize("value", VALUES)
def test_copies_and_pickles_are_equal(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value
        assert repr(clone) == repr(value)


@pytest.mark.parametrize("value", VALUES)
def test_fields_cannot_be_assigned_or_deleted(value):
    # a public field may be a property built on each read, so it reads back
    # equal; the slots it is built from read back as the identical objects
    cls = type(value)
    stored = [getattr(value, name) for name in cls.__slots__]
    for name in (*cls.__match_args__, *cls.__slots__):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == before
    assert all(getattr(value, name) is s for name, s in zip(cls.__slots__, stored))
    with pytest.raises(AttributeError):
        value.extra = 1


# classes that store a private form name their public fields instead
PUBLIC_FIELDS = [
    (LaurentSeries, ("terms",)),
    (FiniteSigStructure, ("elements", "relation")),
    (MeasurementAssignment, ("values", "threshold")),
]


@pytest.mark.parametrize(
    "cls, fields", PUBLIC_FIELDS, ids=[cls.__name__ for cls, _ in PUBLIC_FIELDS]
)
def test_match_args_name_public_fields(cls, fields):
    assert cls.__match_args__ == fields
    lookalike = type("Lookalike", (cls,), {"__slots__": ()})
    assert lookalike.__match_args__ == fields


def test_positional_patterns_bind_public_fields():
    # a pattern that did not match would leave its names unbound
    match parse("1/2 eps^-1 + 3"):
        case LaurentSeries(terms):
            pass
    assert terms == ((-1, Fraction(1, 2)), (0, Fraction(3)))
    match FiniteSigStructure(["a", "b"], [("a", "b")]):
        case FiniteSigStructure(elements, relation):
            pass
    assert (elements, relation) == (("a", "b"), frozenset({("a", "b")}))
    match MeasurementAssignment({"a": "2/4"}, 1):
        case MeasurementAssignment(values, threshold):
            pass
    assert (values, threshold) == ({"a": Fraction(1, 2)}, SigThreshold(1))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


LIBRARY_CLASSES = {
    "LaurentSeries", "FiniteSigStructure", "MeasurementAssignment", "SigThreshold", "AffineChain",
    "SigPrimeCertificate", "SigPrimeDecision", "RewardScheme", "EnvState", "RunConfig",
    "EpsilonGreedyResult",
}


def test_every_value_class_stores_every_slot():
    # _store zips the slots' setters with its values, so a call with too few
    # values would leave the last slots unset instead of failing
    library = {sub for sub in _subclasses(_Frozen) if sub.__module__.startswith("narch.")}
    assert {cls.__name__ for cls in library} == LIBRARY_CLASSES
    values = [cls(*args) for cls, args, _, _ in CASES]
    values += [parse("1/2 eps^-1 + 3"), FiniteSigStructure(["a", "b"], [("a", "b")])]
    assert {type(value) for value in values} == library
    for value in values:
        for name in type(value)._storage:
            getattr(value, name)


# (positional arguments, exception type, message pattern)
BAD_DECISIONS = [
    (("yes", None, 0), TypeError, "^accepted must be a bool, got 'yes'$"),
    ((1, None, 0), TypeError, "^accepted must be a bool, got 1$"),
    ((False, "x", 0, "climb"), TypeError, "^violation index must be an integer, got 'x'$"),
    ((False, True, 0, "climb"), TypeError, "^violation index must be an integer, got True$"),
    ((False, 2.0, 3, "climb"), TypeError, "^violation index must be an integer, got 2.0$"),
    ((False, -1, 0, "climb"), ValueError, "^violation index must be non-negative$"),
    ((True, None, -3.5), TypeError, "^stabilization index must be an integer, got -3.5$"),
    ((True, None, None), TypeError, "^stabilization index must be an integer, got None$"),
    ((True, None, False), TypeError, "^stabilization index must be an integer, got False$"),
    ((True, None, -1), ValueError, "^stabilization index must be non-negative$"),
    ((False, 3, 5, 42), TypeError, "^failed condition must be a string, got 42$"),
    ((False, 3, 5, "floor"), ValueError, "^unknown failed condition 'floor'$"),
    ((False, 3, 5, "Climb"), ValueError, "^unknown failed condition 'Climb'$"),
    ((True, 0, 5), ValueError, "^an accepted decision has no violation index or failed"),
    ((True, None, 5, "ceiling"), ValueError, "^an accepted decision has no violation index or"),
    ((False, None, 0), ValueError, "^a rejected decision names its violation index and failed"),
    ((False, 3, 5), ValueError, "^a rejected decision names its violation index and failed"),
    ((False, None, 5, "climb"), ValueError, "^a rejected decision names its violation index and"),
]


@pytest.mark.parametrize("args, error, message", BAD_DECISIONS, ids=repr)
def test_decision_checks_its_fields(args, error, message):
    with pytest.raises(error, match=message):
        SigPrimeDecision(*args)


def test_decision_reports_the_first_bad_field():
    # the fields are checked in constructor order
    with pytest.raises(TypeError, match="^accepted must be a bool"):
        SigPrimeDecision("yes", "x", -3.5, 42)
    with pytest.raises(TypeError, match="^violation index must be an integer"):
        SigPrimeDecision(False, "x", -3.5, 42)
    with pytest.raises(TypeError, match="^stabilization index must be an integer"):
        SigPrimeDecision(False, 0, -3.5, 42)


@pytest.mark.parametrize("args", [
    (True, None, 0), (True, None, 10**30), (False, 0, 0, "climb"), (False, 7, 3, "ceiling"),
], ids=repr)
def test_decision_accepts_well_formed_fields(args):
    assert SigPrimeDecision(*args).accepted is args[0]


_RESULT = (_CONFIG, 1, 0, Fraction(1), Fraction(0), Arm.RED, (_ROW,))


@pytest.mark.parametrize("position, value, error, message", [
    (0, "x", TypeError, "^config must be a RunConfig, got 'x'$"),
    (0, RewardScheme.exact_laurent(), TypeError, "^config must be a RunConfig, got "),
    (1, 1.5, TypeError, "^red pull count must be an integer, got 1.5$"),
    (1, True, TypeError, "^red pull count must be an integer, got True$"),
    (2, None, TypeError, "^blue pull count must be an integer, got None$"),
    (2, "0", TypeError, "^blue pull count must be an integer, got '0'$"),
    (1, -1, ValueError, "^pull counts must be non-negative$"),
    (2, -1, ValueError, "^pull counts must be non-negative$"),
    (3, 1, TypeError, "^red sum must be a Fraction or a LaurentSeries, got 1$"),
    (3, 1.0, TypeError, "^red sum must be a Fraction or a LaurentSeries, got 1.0$"),
    (4, "x", TypeError, "^blue sum must be a Fraction or a LaurentSeries, got 'x'$"),
    (4, None, TypeError, "^blue sum must be a Fraction or a LaurentSeries, got None$"),
    (5, "red", TypeError, "^final greedy arm must be an Arm, got 'red'$"),
    (5, None, TypeError, "^final greedy arm must be an Arm, got None$"),
    (6, [_ROW], TypeError, "^trace must be a tuple of pull rows, got "),
    (6, None, TypeError, "^trace must be a tuple of pull rows, got None$"),
    (6, ("y",), TypeError, "^trace row must be a PullRow, got 'y'$"),
    (6, (_ROW, (1, Arm.RED)), TypeError, r"^trace row must be a PullRow, got \(1, <Arm.RED"),
], ids=repr)
def test_run_result_checks_its_fields(position, value, error, message):
    args = list(_RESULT)
    args[position] = value
    with pytest.raises(error, match=message):
        EpsilonGreedyResult(*args)


def test_run_result_reports_the_first_bad_field():
    with pytest.raises(TypeError, match="^config must be a RunConfig, got 'x'$"):
        EpsilonGreedyResult("x", 1.5, None, 2.5, "y", "z", [])


# (base, step, upper, r, the decision's fields); each rejection's index and
# stabilization index differ, so storing them in swapped slots shows
DIRECT_CASES = [
    ("1 eps^1", "1/2", "1 eps^-1", "1/2", (True, None, 1, None)),
    ("0", "1/2", "2", "1", (False, 1, 3, "climb")),
    ("1 eps^1", "1 - 1 eps^1", "1", "1/2", (False, 1, 2, "ceiling")),
]


@pytest.mark.parametrize(
    "base, step, upper, r, fields", DIRECT_CASES, ids=["accepted", "climb", "ceiling"]
)
def test_decisions_match_the_validating_constructor(base, step, upper, r, fields):
    # decide_affine_sig_prime builds its verdict past __init__, through the setters
    chain = AffineChain(parse(base), parse(step))
    decision = decide_affine_sig_prime(SigPrimeCertificate(chain.base, parse(upper), chain), r)
    built = SigPrimeDecision(*fields)
    assert type(decision) is SigPrimeDecision
    assert tuple(getattr(decision, name) for name in SigPrimeDecision._storage) == fields
    assert decision == built and hash(decision) == hash(built)
    assert repr(decision) == repr(built) and bool(decision) is bool(built) is fields[0]
    clone = pickle.loads(pickle.dumps(decision))
    assert clone == built and repr(clone) == repr(built)
