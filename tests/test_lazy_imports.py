"""``import narch`` is lazy, and each CLI subcommand imports only its own layers.

Module sets and first-use bindings are checked in fresh interpreters: this
process has long since imported every layer.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import narch

from .conftest import SRC

# The package's exports, by defining module, as listed before they became lazy.
EXPORTS = {
    "laurent": [
        "LaurentSeries", "ONE", "Ordering", "PLUS_INFINITY", "PlusInfinity", "RationalLike",
        "SeriesParseError", "ZERO", "add", "as_rational", "compare", "embed_rational",
        "format_series", "leading_coeff", "monomial", "mul", "neg", "normalize", "order", "parse",
        "scalar_mul", "series_from_json", "series_to_json", "sub",
    ],
    "sig_order": [
        "AffineChain", "SigPrimeCertificate", "SigPrimeDecision", "SigThreshold",
        "certificate_from_json", "certificate_to_json", "claim1_holds", "claim2_holds",
        "decide_affine_sig_prime", "laurent_nonarch_witness", "sig_less_laurent", "sig_less_real",
        "verify_chain_prefix", "verify_nonarch_prefix",
    ],
    "measurement": [
        "FiniteSigStructure", "MeasurementAssignment", "assignment_from_json",
        "chain_prefix_structure", "diminishing_returns_index", "is_accurate_measurement",
        "min_feasible_top", "structure_from_json",
    ],
    "bandit": [
        "Arm", "EnvState", "EpsilonGreedyResult", "PullRow", "RewardScheme", "RunConfig",
        "ScriptedRound", "crossover_step", "env_step", "epsilon_greedy_run", "exact_mean",
        "first_flip", "mean_compare", "reward_text", "scripted_eval",
    ],
    "rng": ["Xorshift64Star"],
}
ALL_EXPORTS = [name for names in EXPORTS.values() for name in names]


def _fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> object:
    """The JSON that ``code`` prints, run in a new interpreter with narch importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_NARCH_MODULES = "sorted(m for m in sys.modules if m == 'narch' or m.startswith('narch.'))"
_HEAVY_MODULES = "sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)"


def _run_main(report: str) -> str:
    """Code that runs the CLI on its arguments, then prints its exit code and ``report``."""
    return f"""
import contextlib, io, json, sys
import narch.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = narch.cli.main(sys.argv[1:])
print(json.dumps([code, {report}]))
"""

BASE = ["narch", "narch.cli", "narch.laurent"]


def test_bare_import_loads_only_the_package():
    code = f"import json, sys, narch; print(json.dumps({_NARCH_MODULES}))"
    assert _fresh(code) == ["narch"]


@pytest.fixture
def measure_files(tmp_path):
    check = tmp_path / "check.json"
    check.write_text(json.dumps({
        "structure": {"elements": ["x", "y"], "relation": [["x", "y"]]},
        "assignment": {"values": {"x": "0", "y": "1"}, "r": "1"},
    }))
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n2\n3\n")
    return {"check": str(check), "seq": str(seq), "out": str(tmp_path / "out.csv")}


SUBCOMMANDS = pytest.mark.parametrize("argv, extra", [
    (["compare", "--lhs", "1 eps^1", "--rhs", "0"], []),
    (["bandit", "--scheme", "laurent", "--mode", "scripted", "--steps", "10", "--out", "{out}"],
     ["narch.bandit", "narch.rng"]),
    (["bandit", "--scheme", "approx:3", "--mode", "egreedy", "--steps", "10",
      "--epsilon", "1/2", "--seed", "1", "--out", "{out}"], ["narch.bandit", "narch.rng"]),
    (["witness", "--r", "1", "--n", "3"], ["narch.sig_order"]),
    (["measure", "check", "--input", "{check}"], ["narch.measurement", "narch.sig_order"]),
    (["measure", "feasible-top", "--n-max", "3", "--r", "1/2"],
     ["narch.measurement", "narch.sig_order"]),
    (["measure", "plateau", "--seq", "{seq}", "--tol", "1/2"],
     ["narch.measurement", "narch.sig_order"]),
], ids=["compare", "bandit-scripted", "bandit-egreedy", "witness", "measure-check",
        "measure-feasible-top", "measure-plateau"])


@SUBCOMMANDS
def test_each_subcommand_loads_only_its_layers(measure_files, argv, extra):
    argv = [arg.format(**measure_files) for arg in argv]
    assert _fresh(_run_main(_NARCH_MODULES), *argv) == [0, sorted(BASE + extra)]


@SUBCOMMANDS
def test_no_subcommand_imports_dataclasses_or_inspect(measure_files, argv, extra):
    # the value classes are plain slotted classes; -S keeps site's imports out
    argv = [arg.format(**measure_files) for arg in argv]
    assert _fresh(_run_main(_HEAVY_MODULES), *argv, flags=("-S",)) == [0, []]


def test_layers_do_not_import_dataclasses_or_inspect():
    code = f"""
import json, sys
import narch.bandit, narch.measurement, narch.sig_order
print(json.dumps({_HEAVY_MODULES}))
"""
    assert _fresh(code, flags=("-S",)) == []


def test_the_exports_are_unchanged():
    assert len(ALL_EXPORTS) == 62
    assert sorted(narch.__all__) == sorted(ALL_EXPORTS)
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"narch.{module_name}")
        for name in names:
            assert getattr(narch, name) is getattr(module, name), name


def test_dir_and_star_import_list_every_export():
    assert set(ALL_EXPORTS) <= set(dir(narch))
    namespace = {}
    exec("from narch import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(ALL_EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'narch' has no attribute 'no_such'"):
        narch.no_such  # noqa: B018


def test_first_use_binds_every_export_of_that_module():
    code = """
import json, sys, narch
before = sorted(n for n in narch.__all__ if n in vars(narch))
narch.crossover_step
bound = sorted(n for n in narch.__all__ if n in vars(narch))
same = all(vars(narch)[n] is getattr(narch.bandit, n) for n in bound)
print(json.dumps([before, bound, same]))
"""
    before, bound, same = _fresh(code)
    assert before == []
    assert bound == sorted(EXPORTS["bandit"])
    assert same


def test_bound_names_skip_the_module_getattr():
    # a hot loop over narch.X pays a global lookup, not a module __getattr__ call
    code = """
import json, narch
calls = []
resolve = narch.__getattr__
def counting(name):
    calls.append(name)
    return resolve(name)
narch.__getattr__ = counting
for _ in range(3):
    narch.parse, narch.decide_affine_sig_prime, narch.min_feasible_top
print(json.dumps(calls))
"""
    assert _fresh(code) == ["parse", "decide_affine_sig_prime", "min_feasible_top"]


def test_compare_does_not_import_json():
    # -S keeps site's own imports out, so only narch can have loaded json
    code = """
import contextlib, io, sys
import narch.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = narch.cli.main(["compare", "--lhs", "0", "--rhs", "0"])
print(code, "json" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "False"]
