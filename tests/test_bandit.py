from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narch.bandit import (
    Arm,
    EnvState,
    RewardScheme,
    RunConfig,
    crossover_step,
    env_step,
    epsilon_greedy_run,
    exact_mean,
    first_flip,
    mean_compare,
    reward_text,
    scripted_eval,
)
from narch.laurent import ONE, Ordering, ZERO, compare, monomial, parse, scalar_mul
from narch.rng import Xorshift64Star, _threshold

from .reference_bandit import stepwise_scripted_eval
from .strategies import series


LAURENT = RewardScheme.exact_laurent()


def blue_presses(state: EnvState, scheme: RewardScheme, n: int):
    rewards = []
    for _ in range(n):
        state, reward = env_step(state, Arm.BLUE, scheme)
        rewards.append(reward)
    return state, rewards


class TestRewardScheme:
    def test_parse_round_trip(self):
        for text in ("laurent", "approx:1000", "dynamic:1000000", "approx:1/2"):
            assert RewardScheme.parse(text).text() == text

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            RewardScheme.parse("exact")
        with pytest.raises(ValueError):
            RewardScheme.parse("approx:0")
        with pytest.raises(ValueError):
            RewardScheme.parse("approx:-3")

    def test_laurent_takes_no_constant(self):
        with pytest.raises(ValueError):
            RewardScheme("laurent", Fraction(5))


class TestEnvStep:
    def test_first_blue_press_pays_jackpot(self):
        state, reward = env_step(EnvState(), Arm.BLUE, LAURENT)
        assert reward == monomial(1, -1)
        assert state == EnvState(blue_presses=1, step_count=1)

    def test_third_blue_press_pays_nothing(self):
        state, rewards = blue_presses(EnvState(), LAURENT, 3)
        assert rewards[2] == ZERO
        assert state.blue_presses == 3

    def test_red_pays_unit(self):
        _, reward = env_step(EnvState(), Arm.RED, RewardScheme.static_approx(1000))
        assert reward == Fraction(1)

    def test_dynamic_jackpot_grows(self):
        scheme = RewardScheme.dynamic_approx(1000)
        _, rewards = blue_presses(EnvState(), scheme, 8)
        assert rewards[0] == 1000      # press 1 = 2^0
        assert rewards[1] == 2000      # press 2 = 2^1
        assert rewards[3] == 4000      # press 4 = 2^2
        assert rewards[7] == 8000      # press 8 = 2^3
        assert rewards[2] == rewards[4] == 0

    def test_state_invariant(self):
        with pytest.raises(ValueError):
            EnvState(blue_presses=2, step_count=1)

    @pytest.mark.parametrize("state", [(0, 0), None, "EnvState()"], ids=repr)
    def test_state_must_be_an_env_state(self, state):
        # a tuple used to fail with AttributeError on its blue_presses
        with pytest.raises(TypeError, match="^state must be an EnvState, got "):
            env_step(state, Arm.RED, LAURENT)

    def test_state_is_checked_first(self):
        with pytest.raises(TypeError, match="^state must be an EnvState, got "):
            env_step((0, 0), "red", "laurent")

    @pytest.mark.parametrize("action", ["red", "blue", None, 0], ids=repr)
    def test_action_must_be_an_arm(self, action):
        # a string is not Arm.RED, and used to press blue and pay the jackpot
        with pytest.raises(TypeError, match="^action must be an Arm, got "):
            env_step(EnvState(), action, LAURENT)

    @pytest.mark.parametrize("scheme", ["laurent", None, Fraction(1000)], ids=repr)
    def test_scheme_must_be_a_reward_scheme(self, scheme):
        with pytest.raises(TypeError, match="^scheme must be a RewardScheme, got "):
            env_step(EnvState(), Arm.RED, scheme)

    @pytest.mark.parametrize("counts, what", [
        ((1.5, 2), "blue press count"), ((True, 2), "blue press count"),
        (("1", 2), "blue press count"), ((1, 2.0), "step count"), ((-1, False), "step count"),
    ], ids=repr)
    def test_counters_must_be_integers(self, counts, what):
        with pytest.raises(TypeError, match=f"^{what} must be an integer, got "):
            EnvState(*counts)


class TestPowersOfTwo:
    def test_schedule_invariant(self):
        # nonzero blue rewards after n presses == floor(log2 n) + 1
        scheme = RewardScheme.static_approx(7)
        state = EnvState()
        paid = 0
        for n in range(1, 4100):
            state, reward = env_step(state, Arm.BLUE, scheme)
            if reward != 0:
                paid += 1
            assert paid == n.bit_length()


class TestMeanCompare:
    def test_rational_examples(self):
        assert mean_compare(Fraction(3), 2, Fraction(1), 1) is Ordering.GREATER
        assert mean_compare(Fraction(2), 4, Fraction(1), 2) is Ordering.EQUAL

    def test_infinite_mean_beats_unit(self):
        assert mean_compare(monomial(1, -1), 1000, ONE, 1) is Ordering.GREATER

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            mean_compare(ONE, 0, ONE, 1)

    def test_rejects_mixed_codomains(self):
        with pytest.raises(TypeError):
            mean_compare(ONE, 1, Fraction(1), 1)

    @given(series(), st.integers(1, 60), series(), st.integers(1, 60))
    def test_matches_literal_cross_multiplication(self, sum_a, n_a, sum_b, n_b):
        literal = compare(scalar_mul(n_b, sum_a), scalar_mul(n_a, sum_b))
        assert mean_compare(sum_a, n_a, sum_b, n_b) is literal

    @given(
        st.fractions(max_denominator=20),
        st.integers(1, 60),
        st.fractions(max_denominator=20),
        st.integers(1, 60),
    )
    def test_agrees_with_rational_division(self, sum_a, n_a, sum_b, n_b):
        by_division = (sum_a / n_a) - (sum_b / n_b)
        expected = (
            Ordering.LESS if by_division < 0
            else Ordering.EQUAL if by_division == 0
            else Ordering.GREATER
        )
        assert mean_compare(sum_a, n_a, sum_b, n_b) is expected


class TestSampleCounts:
    @pytest.mark.parametrize("count", [1.0, True, Fraction(1)])
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(TypeError):
            mean_compare(Fraction(1), count, Fraction(1), 1)
        with pytest.raises(TypeError):
            mean_compare(Fraction(1), 1, Fraction(1), count)
        with pytest.raises(TypeError):
            exact_mean(Fraction(1), count)

    def test_counts_below_one_rejected(self):
        for call in (
            lambda: mean_compare(Fraction(1), 1, Fraction(1), -1),
            lambda: exact_mean(Fraction(1), 0),
        ):
            with pytest.raises(ValueError):
                call()

    def test_large_equal_means_compare_equal(self):
        total = Fraction(10**17 + 1)
        assert mean_compare(total, 1, total, 1) is Ordering.EQUAL


class TestScripted:
    def test_static_1000_first_rounds(self):
        rows = list(scripted_eval(4, RewardScheme.static_approx(1000)))
        assert rows[-1].blue_sum == 3000  # jackpots at presses 1, 2, 4
        assert rows[-1].red_sum == 4
        assert rows[-1].blue_vs_red is Ordering.GREATER

    def test_static_1000_flips_at_14001(self):
        flip = None
        for row in scripted_eval(14_100, RewardScheme.static_approx(1000)):
            if row.blue_vs_red is Ordering.LESS:
                flip = row.step
                break
        assert flip == 14_001

    def test_laurent_never_flips(self):
        rows = scripted_eval(5000, LAURENT)
        assert all(row.blue_vs_red is Ordering.GREATER for row in rows)

    def test_blue_sum_formula(self):
        scheme = RewardScheme.static_approx(Fraction(7, 2))
        for row in scripted_eval(600, scheme):
            assert row.blue_sum == Fraction(7, 2) * row.step.bit_length()

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError):
            scripted_eval(0, LAURENT)

    @pytest.mark.parametrize("n", [True, 2.5, Fraction(3)])
    def test_rejects_non_integer_rounds_at_the_call(self, n):
        # raised by the call itself, before any round is drawn
        with pytest.raises(TypeError):
            scripted_eval(n, LAURENT)


class TestCrossover:
    def test_small_values(self):
        assert crossover_step(1) == 3
        assert crossover_step(1000) == 14_001

    def test_paper_scale_value(self):
        assert crossover_step(1_000_000) == 25_000_001

    def test_none_when_bounded_out(self):
        assert crossover_step(10, bound=20) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            crossover_step(0)

    @given(st.fractions(min_value=Fraction(1, 3), max_value=60, max_denominator=6))
    def test_matches_linear_scan(self, m):
        expected = None
        for n in range(1, 3000):
            if m * n.bit_length() < n:
                expected = n
                break
        assert crossover_step(m, bound=2999) == expected


M_VALUES = st.fractions(min_value=Fraction(1, 3), max_value=60, max_denominator=6)


class TestFirstFlip:
    def test_crossover_is_static_first_flip(self):
        assert first_flip(RewardScheme.static_approx(1000)) == crossover_step(1000) == 14_001

    def test_ties_are_not_flips(self):
        # approx:1 ties at step 1; dynamic:1 ties at the last step of every band
        assert first_flip(RewardScheme.static_approx(1)) == 3
        assert first_flip(RewardScheme.dynamic_approx(1)) is None
        assert first_flip(RewardScheme.static_approx(Fraction(3, 2)), 4) is None
        assert first_flip(RewardScheme.static_approx(Fraction(3, 2)), 5) == 5

    def test_laurent_never_flips(self):
        assert first_flip(LAURENT) is None

    @pytest.mark.parametrize("bound", [0, -5])
    def test_bound_below_one_gives_none(self, bound):
        assert first_flip(RewardScheme.static_approx(1), bound) is None
        assert crossover_step(1, bound=bound) is None

    @pytest.mark.parametrize("bound", [2.5, True])
    def test_non_integer_bound_rejected(self, bound):
        with pytest.raises(TypeError):
            first_flip(RewardScheme.static_approx(1), bound)
        with pytest.raises(TypeError):
            first_flip(LAURENT, bound)
        with pytest.raises(TypeError):
            crossover_step(1, bound=bound)

    @settings(deadline=None)
    @given(
        st.one_of(
            st.builds(RewardScheme.static_approx, M_VALUES),
            st.builds(RewardScheme.dynamic_approx, M_VALUES),
            st.sampled_from([
                RewardScheme.static_approx(1), RewardScheme.dynamic_approx(1), LAURENT,
            ]),
        ),
        st.integers(1, 3000),
    )
    def test_matches_stepwise_scan(self, scheme, bound):
        rows = stepwise_scripted_eval(bound, scheme)
        expected = next((row.step for row in rows if row.blue_vs_red is Ordering.LESS), None)
        assert first_flip(scheme, bound) == expected


class TestEpsilonGreedy:
    def test_laurent_locks_onto_blue(self):
        config = RunConfig(scheme=LAURENT, mode="egreedy", steps=100, epsilon=Fraction(0), seed=5)
        result = epsilon_greedy_run(config)
        assert result.final_greedy is Arm.BLUE
        assert result.blue_pulls == 99

    def test_static_locks_onto_red_after_crossover(self):
        steps = crossover_step(1000) + 2
        config = RunConfig(
            scheme=RewardScheme.static_approx(1000),
            mode="egreedy",
            steps=steps,
            epsilon=Fraction(0),
            seed=5,
        )
        assert epsilon_greedy_run(config).final_greedy is Arm.RED

    def test_two_steps_pull_each_arm_once(self):
        config = RunConfig(scheme=LAURENT, mode="egreedy", steps=2, epsilon=Fraction(1), seed=99)
        result = epsilon_greedy_run(config)
        assert (result.red_pulls, result.blue_pulls) == (1, 1)
        assert [row.arm for row in result.trace] == [Arm.RED, Arm.BLUE]

    def test_identical_configs_replay_identically(self):
        config = RunConfig(
            scheme=RewardScheme.static_approx(50),
            mode="egreedy",
            steps=400,
            epsilon=Fraction(1, 5),
            seed=20260809,
        )
        assert epsilon_greedy_run(config) == epsilon_greedy_run(config)

    def test_scripted_config_rejected(self):
        config = RunConfig(scheme=LAURENT, mode="scripted", steps=5)
        with pytest.raises(ValueError):
            epsilon_greedy_run(config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(scheme=LAURENT, mode="egreedy", steps=0)
        with pytest.raises(ValueError):
            RunConfig(scheme=LAURENT, mode="egreedy", steps=1, epsilon=Fraction(3, 2))
        with pytest.raises(ValueError):
            RunConfig(scheme=LAURENT, mode="egreedy", steps=1, seed=-1)

    @pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(1, 3)], ids=str)
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_explore_recipe_on_a_fresh_stream(self, seed, epsilon):
        # one draw u, explore iff u * den < num * 2^64, then red on an even draw
        config = RunConfig(
            scheme=RewardScheme.static_approx(3), mode="egreedy", steps=300,
            epsilon=epsilon, seed=seed,
        )
        draws = Xorshift64Star(seed)
        explored = 0
        previous = None
        for pull in epsilon_greedy_run(config).trace:
            if pull.step >= 3:
                if draws.next_u64() * epsilon.denominator < epsilon.numerator * 2**64:
                    explored += 1
                    expected = Arm.RED if draws.next_u64() % 2 == 0 else Arm.BLUE
                else:
                    expected = previous.preferred
                assert pull.arm is expected, pull.step
            previous = pull
        assert (explored == 298) if epsilon == 1 else (0 < explored < 298)

    @pytest.mark.parametrize("epsilon, seed", [(Fraction(1, 2), 0), (0, 9), (1, 2**64 - 1)])
    def test_scripted_config_refuses_unread_options(self, epsilon, seed):
        with pytest.raises(ValueError, match="^a scripted run reads no epsilon or seed"):
            RunConfig(scheme=LAURENT, mode="scripted", steps=5, epsilon=epsilon, seed=seed)
        assert RunConfig(LAURENT, "scripted", 5, 0, 0) == RunConfig(LAURENT, "scripted", 5)

    def test_scripted_config_checks_keep_their_order(self):
        # the older checks still speak first
        with pytest.raises(ValueError, match="^epsilon must lie in"):
            RunConfig(scheme=LAURENT, mode="scripted", steps=5, epsilon=Fraction(3, 2))
        with pytest.raises(ValueError, match="^seed must fit in 64 bits"):
            RunConfig(scheme=LAURENT, mode="scripted", steps=5, seed=2**64)
        with pytest.raises(TypeError, match="^seed must be an integer"):
            RunConfig(scheme=LAURENT, mode="scripted", steps=5, seed=1.5)

    @pytest.mark.parametrize("scheme", ["laurent", None, RewardScheme], ids=repr)
    def test_scheme_must_be_a_reward_scheme(self, scheme):
        with pytest.raises(TypeError, match="^scheme must be a RewardScheme, got "):
            RunConfig(scheme=scheme, mode="scripted", steps=3)

    @pytest.mark.parametrize("steps", [True, False, 2.5, 3.0, "3", Fraction(3)], ids=repr)
    @pytest.mark.parametrize("mode", ["egreedy", "scripted"])
    def test_steps_must_be_an_integer(self, mode, steps):
        with pytest.raises(TypeError):
            RunConfig(scheme=LAURENT, mode=mode, steps=steps)


class TestRuntimeText:
    def test_reward_text(self):
        assert reward_text(Fraction(3, 2)) == "3/2"
        assert reward_text(monomial(1, -1)) == "1 eps^-1"

    @pytest.mark.parametrize("value", [1.5, 1, True, "3/2", None], ids=repr)
    def test_reward_text_rejects_other_values(self, value):
        with pytest.raises(TypeError, match="^reward must be a Fraction or a LaurentSeries, got "):
            reward_text(value)

    def test_exact_mean(self):
        assert exact_mean(Fraction(3), 2) == Fraction(3, 2)
        assert exact_mean(monomial(3, -1), 2) == monomial(Fraction(3, 2), -1)


class TestXorshift:
    def test_matches_reference_recipe(self):
        def reference_stream(seed, count):
            mask = (1 << 64) - 1
            s = seed
            out = []
            for _ in range(count):
                s ^= s >> 12
                s = (s ^ (s << 25)) & mask
                s ^= s >> 27
                out.append((s * 0x2545F4914F6CDD1D) & mask)
            return out

        rng = Xorshift64Star(1)
        assert [rng.next_u64() for _ in range(3)] == reference_stream(1, 3)

    def test_zero_seed_is_remapped(self):
        assert Xorshift64Star(0).next_u64() == Xorshift64Star(0x9E3779B97F4A7C15).next_u64()

    def test_bernoulli_extremes(self):
        rng = Xorshift64Star(7)
        assert not any(rng.bernoulli(0) for _ in range(50))
        assert all(rng.bernoulli(1) for _ in range(50))

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
        st.integers(0, 2**64 - 1),
    )
    def test_bernoulli_is_one_integer_comparison(self, p, seed):
        rng, twin = Xorshift64Star(seed), Xorshift64Star(seed)
        for _ in range(3):
            expected = twin.next_u64() * p.denominator < p.numerator * 2**64
            assert rng.bernoulli(p) is expected

    @pytest.mark.parametrize(
        "p",
        [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(1, 10),
         Fraction(1, 3), Fraction(7, 11), Fraction(2**64 - 1, 2**64)],
        ids=str,
    )
    def test_bernoulli_at_the_threshold(self, p):
        # the draws on either side of the threshold, where they fit in 64 bits
        t = _threshold(p)
        draws = [u for u in (t - 1, t, t + 1) if 0 <= u < 2**64]
        assert draws
        for u in draws:
            rng = Xorshift64Star(7)
            rng.next_u64 = lambda: u
            assert rng.bernoulli(p) is (u * p.denominator < p.numerator * 2**64), u
            assert rng.bernoulli(p) is (u < t), u

    @pytest.mark.parametrize("p", [Fraction(-1, 2), Fraction(3, 2), -1, 2, "5/4"])
    def test_bernoulli_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            Xorshift64Star(7).bernoulli(p)

    @pytest.mark.parametrize("p", [0.5, True, None])
    def test_bernoulli_rejects_inexact(self, p):
        with pytest.raises(TypeError):
            Xorshift64Star(7).bernoulli(p)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            Xorshift64Star(-1)
        with pytest.raises(ValueError):
            Xorshift64Star(1 << 64)
