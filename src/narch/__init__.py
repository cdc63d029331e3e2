"""Exact non-Archimedean reward toolkit.

A finite-support Laurent-series number kernel with exact rational
coefficients, significant-order predicates with certified infinite-chain
witnesses, feasibility analysis for real-valued measurements, and a
delayed-gratification bandit environment with pluggable reward codomains.
"""

from .laurent import (
    LaurentSeries,
    ONE,
    Ordering,
    PLUS_INFINITY,
    PlusInfinity,
    RationalLike,
    SeriesParseError,
    ZERO,
    add,
    as_rational,
    compare,
    embed_rational,
    format_series,
    leading_coeff,
    monomial,
    mul,
    neg,
    normalize,
    order,
    parse,
    scalar_mul,
    series_from_json,
    series_to_json,
    sub,
)
from .sig_order import (
    AffineChain,
    SigPrimeCertificate,
    SigPrimeDecision,
    SigThreshold,
    certificate_from_json,
    certificate_to_json,
    claim1_holds,
    claim2_holds,
    decide_affine_sig_prime,
    laurent_nonarch_witness,
    sig_less_laurent,
    sig_less_real,
    verify_chain_prefix,
    verify_nonarch_prefix,
)
from .measurement import (
    FiniteSigStructure,
    MeasurementAssignment,
    assignment_from_json,
    chain_prefix_structure,
    diminishing_returns_index,
    is_accurate_measurement,
    min_feasible_top,
    structure_from_json,
)
from .bandit import (
    Arm,
    EnvState,
    EpsilonGreedyResult,
    PullRow,
    RewardScheme,
    RunConfig,
    ScriptedRound,
    crossover_step,
    env_step,
    epsilon_greedy_run,
    exact_mean,
    first_flip,
    mean_compare,
    reward_text,
    scripted_eval,
)
from .rng import Xorshift64Star

__version__ = "0.1.0"
