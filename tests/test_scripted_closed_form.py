"""The closed-form scripted run against the step-by-step reference."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from narch import cli
from narch.bandit import (
    RewardScheme,
    crossover_step,
    exact_mean,
    reward_text,
    scripted_eval,
)
from narch.laurent import Ordering

from .reference_bandit import stepwise_scripted_eval, value_types

APPROX = [Fraction(1000), Fraction(7, 2), Fraction(7, 3), Fraction(1, 2)]
SCHEMES = [RewardScheme.exact_laurent()] + [
    make(m)
    for make in (RewardScheme.static_approx, RewardScheme.dynamic_approx)
    for m in APPROX
]


@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.text() for s in SCHEMES])
def test_every_round_matches_stepwise_reference(scheme):
    n = 5000
    closed = list(scripted_eval(n, scheme))
    reference = list(stepwise_scripted_eval(n, scheme))
    assert len(closed) == len(reference) == n
    for got, want in zip(closed, reference):
        assert got == want
        for got_field, want_field in zip(got, want):
            assert value_types(got_field) == value_types(want_field)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 1023, 1024, 1025])
def test_band_edges_match_reference(n):
    for scheme in SCHEMES:
        assert list(scripted_eval(n, scheme)) == list(stepwise_scripted_eval(n, scheme))


def _cli_summary(tmp_path, scheme: str, steps: int) -> dict:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main([
            "bandit", "--scheme", scheme, "--mode", "scripted",
            "--steps", str(steps), "--out", str(tmp_path / "trace.csv"),
        ])
    assert code == 0
    return json.loads(captured.getvalue())


# approx:1 ties at steps 1 and 2; dynamic:1 ties at the last step of every band
CLI_SCHEMES = SCHEMES + [
    RewardScheme.static_approx(1),
    RewardScheme.dynamic_approx(1),
    RewardScheme.static_approx(2),
]
CLI_STEPS = [1, 2, 3, 4, 7, 8, 9, 1023, 1024, 1025, 5000]


def _stepwise_cli_output(n: int, scheme: RewardScheme) -> tuple[str, dict]:
    """The CSV and summary that the reference run implies, row by row."""
    lines = ["step,arm,reward,red_mean,blue_mean,preferred"]
    flip_step, preferred = None, "red"
    for step, reward, red_sum, blue_sum, blue_vs_red in stepwise_scripted_eval(n, scheme):
        preferred = "blue" if blue_vs_red is Ordering.GREATER else "red"
        if flip_step is None and blue_vs_red is Ordering.LESS:
            flip_step = step
        lines.append(",".join([
            str(step), "blue", reward_text(reward), reward_text(exact_mean(red_sum, step)),
            reward_text(exact_mean(blue_sum, step)), preferred,
        ]))
    summary = {
        "scheme": scheme.text(), "mode": "scripted", "steps": n,
        "flip_step": flip_step, "final_preference": preferred,
    }
    return "\n".join(lines) + "\n", summary


@pytest.mark.parametrize("scheme", CLI_SCHEMES, ids=[s.text() for s in CLI_SCHEMES])
def test_cli_bytes_match_stepwise_reference(tmp_path, scheme):
    for n in CLI_STEPS:
        summary = _cli_summary(tmp_path, scheme.text(), n)
        csv_text, expected_summary = _stepwise_cli_output(n, scheme)
        assert (tmp_path / "trace.csv").read_bytes() == csv_text.encode(), n
        assert summary == expected_summary, n


@pytest.mark.parametrize("m", APPROX, ids=[str(m) for m in APPROX])
def test_cli_flip_step_is_crossover_step(tmp_path, m):
    flip = crossover_step(m)
    summary = _cli_summary(tmp_path, f"approx:{m}", flip + 5)
    assert summary["flip_step"] == flip
    assert summary["final_preference"] == "red"
