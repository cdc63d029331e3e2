"""Exact non-Archimedean reward toolkit.

A finite-support Laurent-series number kernel with exact rational
coefficients, significant-order predicates with certified infinite-chain
witnesses, feasibility analysis for real-valued measurements, and a
delayed-gratification bandit environment with pluggable reward codomains.

``import narch`` loads no layer. The first use of an exported name imports
the module that defines it and binds all of that module's exports here
(PEP 562), so later uses are plain global lookups; ``dir(narch)`` and
``__all__`` list every export before any is loaded. The CLI loads the
kernel at start and each other layer only in the subcommands that use it,
and no subcommand loads ``dataclasses`` or ``inspect``.
"""

import importlib

_EXPORTS = {
    "laurent": (
        "LaurentSeries", "ONE", "Ordering", "PLUS_INFINITY", "PlusInfinity", "RationalLike",
        "SeriesParseError", "ZERO", "add", "as_rational", "compare", "embed_rational",
        "format_series", "leading_coeff", "monomial", "mul", "neg", "normalize", "order", "parse",
        "scalar_mul", "series_from_json", "series_to_json", "sub",
    ),
    "sig_order": (
        "AffineChain", "SigPrimeCertificate", "SigPrimeDecision", "SigThreshold",
        "certificate_from_json", "certificate_to_json", "claim1_holds", "claim2_holds",
        "decide_affine_sig_prime", "laurent_nonarch_witness", "sig_less_laurent", "sig_less_real",
        "verify_chain_prefix", "verify_nonarch_prefix",
    ),
    "measurement": (
        "FiniteSigStructure", "MeasurementAssignment", "assignment_from_json",
        "chain_prefix_structure", "diminishing_returns_index", "is_accurate_measurement",
        "min_feasible_top", "structure_from_json",
    ),
    "bandit": (
        "Arm", "EnvState", "EpsilonGreedyResult", "PullRow", "RewardScheme", "RunConfig",
        "ScriptedRound", "crossover_step", "env_step", "epsilon_greedy_run", "exact_mean",
        "first_flip", "mean_compare", "reward_text", "scripted_eval",
    ),
    "rng": ("Xorshift64Star",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    exports = {export: getattr(module, export) for export in _EXPORTS[module_name]}
    globals().update(exports)
    return exports[name]


def __dir__():
    return sorted({*globals(), *__all__})
