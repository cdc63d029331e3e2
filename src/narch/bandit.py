"""Two-armed delayed-gratification environment with exact generic rewards.

The red arm always pays one unit. The blue arm pays a jackpot on press
counts that are powers of two (the 1st, 2nd, 4th, 8th, ... press) and
nothing otherwise. The reward codomain is pluggable: the exact scheme pays
the jackpot as the infinite Laurent value ``1 eps^-1``, the static scheme
approximates it with a fixed rational M, and the dynamic scheme pays
``M * 2^j`` for the j-th jackpot.

Every statistic is exact. Sample means are never divided during decision
making; they are compared by cross-multiplication (:func:`mean_compare`),
which is defined for both rational and Laurent sums, or, against the red
mean of one unit, as a sum against its count. Under the exact
scheme the blue mean keeps an infinite component and never falls below the
red mean; under a static approximation it provably does, at a press count
computed by :func:`first_flip`. :func:`write_trace` writes the whole
trace CSV of a run, header row included, straight from these closed forms.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple, Optional, TextIO, Union

from .laurent import (
    LaurentSeries,
    Ordering,
    RationalLike,
    ZERO,
    _Frozen,
    _integer,
    _slot_setters,
    as_rational,
    compare_scaled,
    format_series,
    monomial,
    scalar_mul,
)
from .rng import Xorshift64Star, _threshold

RewardValue = Union[Fraction, LaurentSeries]

_LAURENT_UNIT = monomial(1, 0)
_LAURENT_JACKPOT = monomial(1, -1)
_RATIONAL_ZERO = Fraction(0)
_RATIONAL_UNIT = Fraction(1)
_CHUNK_ROWS = 4096  # scripted rows joined per write: memory stays flat in --steps
_TRACE_HEADER = "step,arm,reward,red_mean,blue_mean,preferred\n"


class Arm(Enum):
    RED = "red"
    BLUE = "blue"


KIND_LAURENT = "laurent"
KIND_STATIC = "static"
KIND_DYNAMIC = "dynamic"
_KINDS = (KIND_LAURENT, KIND_STATIC, KIND_DYNAMIC)


class RewardScheme(_Frozen):
    """Which codomain the environment pays in.

    ``laurent`` pays exact Laurent values; ``static`` and ``dynamic`` pay
    rationals with approximation constant ``approx`` (M > 0).
    """

    __slots__ = ("kind", "approx")
    kind: str
    approx: Optional[Fraction]

    def __init__(self, kind: str, approx: Optional[RationalLike] = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown scheme kind {kind!r}")
        if kind == KIND_LAURENT:
            if approx is not None:
                raise ValueError("the exact scheme takes no approximation constant")
        else:
            approx = as_rational(approx)
            if approx <= 0:
                raise ValueError("approximation constant must be positive")
        _set_kind(self, kind)
        _set_approx(self, approx)

    @classmethod
    def exact_laurent(cls) -> "RewardScheme":
        return cls(KIND_LAURENT)

    @classmethod
    def static_approx(cls, m: RationalLike) -> "RewardScheme":
        return cls(KIND_STATIC, m)

    @classmethod
    def dynamic_approx(cls, m: RationalLike) -> "RewardScheme":
        return cls(KIND_DYNAMIC, m)

    @classmethod
    def parse(cls, text: str) -> "RewardScheme":
        """Parse ``laurent``, ``approx:<M>`` or ``dynamic:<M>``."""
        if text == "laurent":
            return cls.exact_laurent()
        for prefix, kind in (("approx:", KIND_STATIC), ("dynamic:", KIND_DYNAMIC)):
            if text.startswith(prefix):
                return cls(kind, text[len(prefix):])
        raise ValueError(f"unknown scheme {text!r} (expected laurent, approx:<M> or dynamic:<M>)")

    def text(self) -> str:
        if self.kind == KIND_LAURENT:
            return "laurent"
        prefix = "approx" if self.kind == KIND_STATIC else "dynamic"
        return f"{prefix}:{self.approx}"

    def zero(self) -> RewardValue:
        return ZERO if self.kind == KIND_LAURENT else _RATIONAL_ZERO

    def unit(self) -> RewardValue:
        return _LAURENT_UNIT if self.kind == KIND_LAURENT else _RATIONAL_UNIT

    def jackpot(self, j: int) -> RewardValue:
        """Reward for the j-th jackpot (the press count 2^j)."""
        if self.kind == KIND_LAURENT:
            return _LAURENT_JACKPOT
        if self.kind == KIND_STATIC:
            return self.approx
        return self.approx * (1 << j)


_set_kind, _set_approx = _slot_setters(RewardScheme)


class EnvState(_Frozen):
    """Press counters; ``blue_presses`` never exceeds ``step_count``."""

    __slots__ = ("blue_presses", "step_count")
    blue_presses: int
    step_count: int

    def __init__(self, blue_presses: int = 0, step_count: int = 0) -> None:
        _integer(blue_presses, "blue press count")
        _integer(step_count, "step count")
        if blue_presses < 0 or blue_presses > step_count:
            raise ValueError("blue press count must lie in [0, step_count]")
        _set_blue_presses(self, blue_presses)
        _set_step_count(self, step_count)


_set_blue_presses, _set_step_count = _slot_setters(EnvState)


def env_step(
    state: EnvState, action: Arm, scheme: RewardScheme
) -> tuple[EnvState, RewardValue]:
    """One environment transition: red pays the unit, blue pays on powers of two."""
    if action is Arm.RED:
        return EnvState(state.blue_presses, state.step_count + 1), scheme.unit()
    presses = state.blue_presses + 1
    new_state = EnvState(presses, state.step_count + 1)
    if presses & (presses - 1) == 0:
        return new_state, scheme.jackpot(presses.bit_length() - 1)
    return new_state, scheme.zero()


def mean_compare(
    sum_a: RewardValue, n_a: int, sum_b: RewardValue, n_b: int
) -> Ordering:
    """Compare sum_a/n_a against sum_b/n_b exactly by cross-multiplication.

    The result equals comparing n_b * sum_a against n_a * sum_b; no
    division ever happens, so the answer is exact for rational and Laurent
    sums alike.
    """
    if min(_integer(n_a, "sample count"), _integer(n_b, "sample count")) < 1:
        raise ValueError("sample counts must be positive")
    laurent = isinstance(sum_a, LaurentSeries)
    if laurent != isinstance(sum_b, LaurentSeries):
        raise TypeError("cannot compare a Laurent sum against a bare rational")
    if not laurent:
        sum_a, sum_b = monomial(sum_a, 0), monomial(sum_b, 0)
    return compare_scaled(sum_a, n_b, sum_b, n_a)


def exact_mean(total: RewardValue, count: int) -> RewardValue:
    """The exact sample mean (coefficient-wise for Laurent sums)."""
    if _integer(count, "sample count") < 1:
        raise ValueError("sample count must be positive")
    if isinstance(total, LaurentSeries):
        return scalar_mul(Fraction(1, count), total)
    return as_rational(total) / count


class ScriptedRound(NamedTuple):
    step: int
    blue_reward: RewardValue
    red_sum: RewardValue
    blue_sum: RewardValue
    blue_vs_red: Ordering


def _bands(n: int, scheme: RewardScheme) -> Iterator[tuple[int, int, RewardValue, int, int, int]]:
    """(first, last, jackpot, num, den, blue_last) per power-of-two band of steps 1..n.

    Band j holds steps 2^j..min(2^(j+1) - 1, n). Its first press pays
    jackpot j, and from then on the blue total is num/den (in eps^-1 units
    for the exact scheme). ``blue_last`` is the band's last step at which
    the blue total beats ``step`` red units: every step for the exact
    scheme, whose eps^-1 term outranks every rational, and otherwise those
    with den * step < num, i.e. up to step (num - 1) // den.
    """
    laurent = scheme.kind == KIND_LAURENT
    total = _RATIONAL_ZERO
    for j in range(n.bit_length()):
        first = 1 << j
        last = min(2 * first - 1, n)
        jackpot = scheme.jackpot(j)
        total += 1 if laurent else jackpot
        num, den = total.numerator, total.denominator
        yield first, last, jackpot, num, den, last if laurent else min(last, (num - 1) // den)


def _blue_total(scheme: RewardScheme, num: int, den: int) -> RewardValue:
    """The blue total num/den of :func:`_bands` as a reward value (den is 1 for Laurent)."""
    return monomial(num, -1) if scheme.kind == KIND_LAURENT else Fraction(num, den)


def scripted_eval(n: int, scheme: RewardScheme) -> Iterator[ScriptedRound]:
    """Paired deterministic run: one red and one blue press per round.

    The two arms run on independent environment copies, so after round k
    each has been pressed exactly k times. Each row carries the blue reward
    of the round, both exact sums, and the comparison of the blue sample
    mean against the red one. Yields lazily; large round counts stay cheap.

    Rounds come from the closed forms of :func:`_bands` instead of a
    simulation: the blue sum changes only at powers of two, and the red
    sum is k units. Both means share the count k, so the blue mean is
    greater up to the band's ``blue_last`` and from there equal or less
    as num/den equals or falls below k.
    """
    if _integer(n, "round count") < 1:
        raise ValueError("round count must be positive")

    def rounds() -> Iterator[ScriptedRound]:
        red_total = (lambda step: monomial(step, 0)) if scheme.kind == KIND_LAURENT else Fraction
        zero = scheme.zero()
        for first, last, reward, num, den, blue_last in _bands(n, scheme):
            blue_sum = _blue_total(scheme, num, den)
            for step in range(first, last + 1):
                blue_vs_red = (
                    Ordering.GREATER if step <= blue_last
                    else Ordering.EQUAL if num == den * step
                    else Ordering.LESS
                )
                yield ScriptedRound(step, reward, red_total(step), blue_sum, blue_vs_red)
                reward = zero

    return rounds()


def first_flip(scheme: RewardScheme, bound: int = 2**32) -> Optional[int]:
    """First step <= bound of a paired scripted run whose blue mean is below the red one.

    Decided once per band of :func:`_bands`: a rational blue total num/den
    is below ``step`` red units exactly when step > num/den, so the first
    such step is num // den + 1 in the first band that reaches it. That
    step is never before the band's first step, because the total only
    grows and the band before ended at or below it. A tie is not a flip.
    A Laurent total holds an eps^-1 term and never falls below, and no
    step lies within a bound below 1: both give None.
    """
    if _integer(bound, "bound") < 1 or scheme.kind == KIND_LAURENT:
        return None
    for _, last, _, num, den, _ in _bands(bound, scheme):
        if num // den < last:
            return num // den + 1
    return None


def crossover_step(m: RationalLike, *, bound: int = 2**32) -> Optional[int]:
    """Smallest press count n <= bound with m * (floor(log2 n) + 1) < n, or None.

    This is where a static approximation M makes the blue sample mean drop
    below the red one: after n presses the blue arm has paid exactly
    floor(log2 n) + 1 jackpots of M against n red units. It is
    :func:`first_flip` of the static scheme.
    """
    return first_flip(RewardScheme.static_approx(m), bound)


MODE_SCRIPTED = "scripted"
MODE_EGREEDY = "egreedy"
_MODES = (MODE_SCRIPTED, MODE_EGREEDY)


class RunConfig(_Frozen):
    """Everything a run needs; equal configs (seed included) replay identically."""

    __slots__ = ("scheme", "mode", "steps", "epsilon", "seed")
    scheme: RewardScheme
    mode: str
    steps: int
    epsilon: Fraction
    seed: int

    def __init__(
        self,
        scheme: RewardScheme,
        mode: str,
        steps: int,
        epsilon: RationalLike = _RATIONAL_ZERO,
        seed: int = 0,
    ) -> None:
        epsilon = as_rational(epsilon)  # a non-rational is reported before any other fault
        if not isinstance(scheme, RewardScheme):
            raise TypeError(f"scheme must be a RewardScheme, got {scheme!r}")
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if _integer(steps, "steps") < 1:
            raise ValueError("steps must be positive")
        if not _RATIONAL_ZERO <= epsilon <= _RATIONAL_UNIT:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0 <= _integer(seed, "seed") < 2**64:
            raise ValueError("seed must fit in 64 bits")
        _set_scheme(self, scheme)
        _set_mode(self, mode)
        _set_steps(self, steps)
        _set_epsilon(self, epsilon)
        _set_seed(self, seed)


_set_scheme, _set_mode, _set_steps, _set_epsilon, _set_seed = _slot_setters(RunConfig)


class PullRow(NamedTuple):
    step: int
    arm: Arm
    reward: RewardValue
    red_mean: Optional[RewardValue]
    blue_mean: Optional[RewardValue]
    preferred: Arm


class EpsilonGreedyResult(_Frozen):
    """A whole epsilon-greedy run: its config, pull counts, sums, final arm and trace."""

    __slots__ = (
        "config", "red_pulls", "blue_pulls", "red_sum", "blue_sum", "final_greedy", "trace"
    )
    config: RunConfig
    red_pulls: int
    blue_pulls: int
    red_sum: RewardValue
    blue_sum: RewardValue
    final_greedy: Arm
    trace: tuple[PullRow, ...]

    def __init__(
        self,
        config: RunConfig,
        red_pulls: int,
        blue_pulls: int,
        red_sum: RewardValue,
        blue_sum: RewardValue,
        final_greedy: Arm,
        trace: tuple[PullRow, ...],
    ) -> None:
        _set_config(self, config)
        _set_red_pulls(self, red_pulls)
        _set_blue_pulls(self, blue_pulls)
        _set_red_sum(self, red_sum)
        _set_blue_sum(self, blue_sum)
        _set_final_greedy(self, final_greedy)
        _set_trace(self, trace)


(
    _set_config, _set_red_pulls, _set_blue_pulls, _set_red_sum, _set_blue_sum, _set_final_greedy,
    _set_trace,
) = _slot_setters(EpsilonGreedyResult)


def _pulls(config: RunConfig) -> Iterator[tuple[int, Arm, RewardValue, int, int, int, Arm]]:
    """Deterministic epsilon-greedy run over the two arms, one pull at a time.

    Pulls red then blue once, and from then on explores uniformly with
    probability epsilon, otherwise pulls the arm whose exact sample mean
    is greater; ties (and an unsampled blue arm) defer to red, the
    lower-indexed arm. All randomness comes from the seeded xorshift64*
    stream: one draw per step after the second, which explores iff
    ``rng.bernoulli(epsilon)`` would (it is compared with one threshold
    computed per run), and one more draw for the arm of an exploring step.
    Equal configs give identical pulls.

    Yields ``(step, arm, reward, blue_pulls, num, den, preferred)`` per
    pull, where num/den is the blue total in the integers of :func:`_bands`
    (0/1 before the first blue pull). The means are never built. The red
    mean is one unit, so blue is greedy iff its total exceeds blue_pulls
    units, and that total changes only on the power-of-two presses that
    pay a jackpot. So the blue pulls walk the bands: each jackpot press
    takes the next band's jackpot and total, and blue stays greedy up to
    its ``blue_last``. Yields lazily; memory does not depend on the step
    count.
    """
    scheme = config.scheme
    explore = _threshold(config.epsilon)
    next_u64 = Xorshift64Star(config.seed).next_u64
    red, blue = Arm.RED, Arm.BLUE
    unit, zero = scheme.unit(), scheme.zero()
    # blue is pulled at most steps - 1 times, so these bands cover every pull
    bands = _bands(config.steps, scheme)
    blue_pulls = blue_last = num = 0
    den = 1
    preferred = red
    for step in range(1, config.steps + 1):
        if step <= 2:
            arm = red if step == 1 else blue
        elif next_u64() < explore:
            arm = blue if next_u64() & 1 else red
        else:
            arm = preferred
        if arm is red:
            reward = unit
        else:
            blue_pulls += 1
            if blue_pulls & (blue_pulls - 1):
                reward = zero
            else:
                _, _, reward, num, den, blue_last = next(bands)
            # a red pull moves neither the blue mean nor the unit red mean
            preferred = blue if blue_pulls <= blue_last else red
        yield step, arm, reward, blue_pulls, num, den, preferred


def epsilon_greedy_run(config: RunConfig) -> EpsilonGreedyResult:
    """The whole run of :func:`_pulls`, with exact means per pull."""
    if config.mode != MODE_EGREEDY:
        raise ValueError("config.mode must be 'egreedy'")
    scheme = config.scheme
    red_mean = scheme.unit()
    blue_mean = None
    rows = []
    for step, arm, reward, blue_pulls, num, den, preferred in _pulls(config):
        if arm is Arm.BLUE:
            blue_mean = exact_mean(_blue_total(scheme, num, den), blue_pulls)
        rows.append(PullRow(step, arm, reward, red_mean, blue_mean, preferred))
    red_pulls = config.steps - blue_pulls
    return EpsilonGreedyResult(
        config=config,
        red_pulls=red_pulls,
        blue_pulls=blue_pulls,
        red_sum=red_pulls * red_mean,
        blue_sum=_blue_total(scheme, num, den),
        final_greedy=preferred,
        trace=tuple(rows),
    )


def reward_text(value: RewardValue) -> str:
    """Exact text for a reward value: series text or plain rational."""
    if isinstance(value, LaurentSeries):
        return format_series(value)
    return str(value)


def _ratio_text(numerator: int, denominator: int, suffix: str = "") -> str:
    """numerator/denominator in lowest terms with one gcd, then ``suffix``; one mean cell."""
    divisor = gcd(numerator, denominator)
    if divisor == denominator:
        return f"{numerator // divisor}{suffix}"
    return f"{numerator // divisor}/{denominator // divisor}{suffix}"


def _scripted_rows(
    config: RunConfig, out: TextIO, zero_cell: str, unit_cell: str, suffix: str
) -> tuple[Optional[int], str]:
    scheme = config.scheme
    blue, red = Arm.BLUE.value, Arm.RED.value
    middle = f",{blue},{zero_cell},{unit_cell},"  # the cells between step and blue mean
    for first, last, jackpot, num, den, blue_last in _bands(config.steps, scheme):
        out.write(
            f"{first},{blue},{reward_text(jackpot)},{unit_cell},"
            f"{_ratio_text(num, den * first, suffix)},{blue if first <= blue_last else red}\n"
        )
        # the band's other rows, one gcd each: a blue run, then a red run
        red_first = max(first, blue_last) + 1
        for lo, hi, arm in ((first + 1, blue_last, blue), (red_first, last, red)):
            tail = f"{suffix},{arm}\n"
            for start in range(lo, hi + 1, _CHUNK_ROWS):
                out.write("".join([
                    f"{step}{middle}{_ratio_text(num, den * step, tail)}"
                    for step in range(start, min(start + _CHUNK_ROWS, hi + 1))
                ]))
    return first_flip(scheme, config.steps), blue if last <= blue_last else red


def _egreedy_rows(
    config: RunConfig, out: TextIO, zero_cell: str, unit_cell: str, suffix: str
) -> tuple[Optional[int], str]:
    red, blue = Arm.RED, Arm.BLUE
    red_cell, blue_cell = red.value, blue.value
    zero = config.scheme.zero()
    blue_mean_cell = ""
    flip_step = None
    previous = preferred = red
    for step, arm, reward, blue_pulls, num, den, preferred in _pulls(config):
        if arm is red:
            reward_cell = unit_cell
        else:
            reward_cell = zero_cell if reward is zero else reward_text(reward)
            blue_mean_cell = _ratio_text(num, den * blue_pulls, suffix)
        if previous is blue and preferred is red and flip_step is None:
            flip_step = step
        previous = preferred
        out.write(
            f"{step},{red_cell if arm is red else blue_cell},{reward_cell},{unit_cell},"
            f"{blue_mean_cell},{red_cell if preferred is red else blue_cell}\n"
        )
    return flip_step, preferred.value


def write_trace(config: RunConfig, out: TextIO) -> tuple[Optional[int], str]:
    """Write a run's trace CSV, header row first, to the text handle ``out``.

    Lines are comma-joined cells ending in LF; no cell can hold a comma, a
    quote or a newline. Scripted rows come from the bands of
    :func:`_bands`, each blue or red run joined in chunks of at most 4,096
    rows; epsilon-greedy rows from :func:`_pulls`, one line per pull.
    Returns the flip step (or None) and the final preference.
    """
    scheme = config.scheme
    out.write(_TRACE_HEADER)
    write_rows = _scripted_rows if config.mode == MODE_SCRIPTED else _egreedy_rows
    # cells fixed for the whole run: a zero reward, the red mean of one unit
    # (k units over k pulls), and the unit of a blue mean, eps^-1 for Laurent
    suffix = " eps^-1" if scheme.kind == KIND_LAURENT else ""
    return write_rows(config, out, reward_text(scheme.zero()), reward_text(scheme.unit()), suffix)
