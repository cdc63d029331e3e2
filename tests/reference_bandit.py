"""Step-by-step reference for the scripted bandit run.

This simulates every round through the environment: one red and one blue
press on independent environment copies, the rewards added to running
sums, and the two sample means compared by cross-multiplication. The
library computes the same rounds from closed forms; the differential
tests check the two against each other field for field.
"""

from typing import Iterator

from narch.bandit import (
    Arm,
    EnvState,
    RewardScheme,
    ScriptedRound,
    env_step,
    mean_compare,
)


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
