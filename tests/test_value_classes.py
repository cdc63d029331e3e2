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
from narch.laurent import parse
from narch.measurement import MeasurementAssignment
from narch.sig_order import AffineChain, SigPrimeCertificate, SigPrimeDecision, SigThreshold

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
    for name in type(value).__match_args__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1
