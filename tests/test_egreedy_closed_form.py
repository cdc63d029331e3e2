"""The integer-state epsilon-greedy run against the step-by-step reference."""

import contextlib
import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narch import cli
from narch.bandit import (
    Arm,
    EpsilonGreedyResult,
    RewardScheme,
    RunConfig,
    epsilon_greedy_run,
    reward_text,
)
from narch.rng import Xorshift64Star

from .reference_bandit import stepwise_epsilon_greedy_run, value_types

SCHEMES = [
    RewardScheme.exact_laurent(),
    RewardScheme.static_approx(50),
    RewardScheme.static_approx(Fraction(7, 2)),
    RewardScheme.static_approx(Fraction(1, 2)),
    RewardScheme.dynamic_approx(Fraction(7, 3)),
]
EPSILONS = [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1, 3), Fraction(1)]
SEEDS = [0, 7, 20260809, 2**64 - 1]
RESULT_FIELDS = (
    "config", "red_pulls", "blue_pulls", "red_sum", "blue_sum", "final_greedy", "trace"
)


def _config(scheme, epsilon, seed, steps) -> RunConfig:
    return RunConfig(scheme=scheme, mode="egreedy", steps=steps, epsilon=epsilon, seed=seed)


def _assert_same_run(got: EpsilonGreedyResult, want: EpsilonGreedyResult) -> None:
    assert got == want
    for name in RESULT_FIELDS:
        if name != "trace":
            got_value, want_value = getattr(got, name), getattr(want, name)
            assert value_types(got_value) == value_types(want_value), name
    assert type(got.trace) is type(want.trace)
    for got_row, want_row in zip(got.trace, want.trace):
        assert type(got_row) is type(want_row)
        for got_value, want_value in zip(got_row, want_row):
            assert value_types(got_value) == value_types(want_value), got_row.step


def test_every_result_field_is_checked():
    # the value classes keep their fields, in constructor order, as __slots__
    assert EpsilonGreedyResult.__slots__ == RESULT_FIELDS


@pytest.mark.parametrize("epsilon", EPSILONS, ids=[str(e) for e in EPSILONS])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.text() for s in SCHEMES])
def test_run_matches_stepwise_reference(scheme, epsilon):
    # steps 1 and 2 end before and at the first blue pull
    for steps in (1, 2, 1500):
        for seed in SEEDS:
            config = _config(scheme, epsilon, seed, steps)
            _assert_same_run(epsilon_greedy_run(config), stepwise_epsilon_greedy_run(config))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SCHEMES),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.integers(0, 2**64 - 1),
    st.integers(1, 200),
)
def test_random_runs_match_stepwise_reference(scheme, epsilon, seed, steps):
    config = _config(scheme, epsilon, seed, steps)
    _assert_same_run(epsilon_greedy_run(config), stepwise_epsilon_greedy_run(config))


@pytest.mark.parametrize("epsilon", EPSILONS, ids=[str(e) for e in EPSILONS])
def test_same_draws_as_reference(monkeypatch, epsilon):
    draws = []
    next_u64 = Xorshift64Star.next_u64

    def counted(rng):
        value = next_u64(rng)
        draws.append(value)
        return value

    monkeypatch.setattr(Xorshift64Star, "next_u64", counted)
    config = _config(RewardScheme.static_approx(50), epsilon, 7, 800)
    epsilon_greedy_run(config)
    got = list(draws)
    draws.clear()
    stepwise_epsilon_greedy_run(config)
    assert got == draws
    assert len(got) >= 798


def _flip_step(trace):
    previous = None
    for row in trace:
        if previous is Arm.BLUE and row.preferred is Arm.RED:
            return row.step
        previous = row.preferred
    return None


@pytest.mark.parametrize("epsilon", EPSILONS, ids=[str(e) for e in EPSILONS])
@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.text() for s in SCHEMES])
def test_cli_cells_match_reference_values(tmp_path, scheme, epsilon):
    config = _config(scheme, epsilon, 20260809, 1000)
    out = tmp_path / "trace.csv"
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main([
            "bandit", "--scheme", scheme.text(), "--mode", "egreedy",
            "--steps", str(config.steps), "--epsilon", str(epsilon),
            "--seed", str(config.seed), "--out", str(out),
        ])
    assert code == 0
    reference = stepwise_epsilon_greedy_run(config)

    def cell(value):
        return "" if value is None else reward_text(value)

    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "arm", "reward", "red_mean", "blue_mean", "preferred"]
    assert rows[1:] == [
        [str(row.step), row.arm.value, reward_text(row.reward), cell(row.red_mean),
         cell(row.blue_mean), row.preferred.value]
        for row in reference.trace
    ]
    summary = json.loads(captured.getvalue())
    assert summary["final_preference"] == reference.final_greedy.value
    assert summary["flip_step"] == _flip_step(reference.trace)
