"""Step-by-step references for the scripted and epsilon-greedy bandit runs.

These simulate every press through the environment: rewards are added to
running sums and the sample means are compared by cross-multiplication.
The library computes the same runs from closed forms; the differential
tests check the two against each other field for field.
"""

from typing import Iterator

from narch.bandit import (
    Arm,
    EnvState,
    EpsilonGreedyResult,
    PullRow,
    RewardScheme,
    RunConfig,
    ScriptedRound,
    env_step,
    exact_mean,
    mean_compare,
)
from narch.laurent import LaurentSeries, Ordering
from narch.rng import Xorshift64Star


def value_types(value) -> list:
    """The type of a value and, for a series, of each exponent and coefficient."""
    if isinstance(value, LaurentSeries):
        return [type(value)] + [(type(e), type(c)) for e, c in value.terms]
    return [type(value)]


def stepwise_scripted_eval(n: int, scheme: RewardScheme) -> Iterator[ScriptedRound]:
    red_state = EnvState()
    blue_state = EnvState()
    red_sum = scheme.zero()
    blue_sum = scheme.zero()
    for step in range(1, n + 1):
        red_state, red_reward = env_step(red_state, Arm.RED, scheme)
        blue_state, blue_reward = env_step(blue_state, Arm.BLUE, scheme)
        red_sum = red_sum + red_reward
        if blue_reward:
            blue_sum = blue_sum + blue_reward
        yield ScriptedRound(
            step, blue_reward, red_sum, blue_sum,
            mean_compare(blue_sum, step, red_sum, step),
        )


def stepwise_epsilon_greedy_run(config: RunConfig) -> EpsilonGreedyResult:
    scheme = config.scheme
    rng = Xorshift64Star(config.seed)
    state = EnvState()
    sums = {Arm.RED: scheme.zero(), Arm.BLUE: scheme.zero()}
    counts = {Arm.RED: 0, Arm.BLUE: 0}

    def greedy_arm() -> Arm:
        if counts[Arm.RED] == 0 or counts[Arm.BLUE] == 0:
            return Arm.RED
        ordering = mean_compare(
            sums[Arm.BLUE], counts[Arm.BLUE], sums[Arm.RED], counts[Arm.RED]
        )
        return Arm.BLUE if ordering is Ordering.GREATER else Arm.RED

    rows = []
    for step in range(1, config.steps + 1):
        if step == 1:
            arm = Arm.RED
        elif step == 2:
            arm = Arm.BLUE
        elif rng.bernoulli(config.epsilon):
            arm = Arm.BLUE if rng.next_u64() & 1 else Arm.RED
        else:
            arm = greedy_arm()
        state, reward = env_step(state, arm, scheme)
        counts[arm] += 1
        sums[arm] = sums[arm] + reward
        rows.append(
            PullRow(
                step,
                arm,
                reward,
                exact_mean(sums[Arm.RED], counts[Arm.RED]) if counts[Arm.RED] else None,
                exact_mean(sums[Arm.BLUE], counts[Arm.BLUE]) if counts[Arm.BLUE] else None,
                greedy_arm(),
            )
        )
    return EpsilonGreedyResult(
        config=config,
        red_pulls=counts[Arm.RED],
        blue_pulls=counts[Arm.BLUE],
        red_sum=sums[Arm.RED],
        blue_sum=sums[Arm.BLUE],
        final_greedy=greedy_arm(),
        trace=tuple(rows),
    )
