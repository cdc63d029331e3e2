"""No narch frame holds a float at run time, checked under ``sys.settrace``.

``test_float_free.py`` reads the source; this test runs it. While the
trap is set, every frame whose code lives in the ``narch`` package is
traced line by line: at each line and at its return the frame's locals
are checked, and so is the value it returns. Frames of the tests and of
the standard library are not traced; the value classes' own methods
(``__init__``, ``__eq__``, ``__repr__`` and the rest) live in ``narch``
and are traced like any other frame. The runs are the CLI commands end
to end, in process, a ``measure check`` of a long chain, ``measure
plateau`` and both measurement closed forms on long inputs, and the
affine decision on certificates from both samplers.
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from random import Random

import narch
import narch.cli
from narch.measurement import (
    chain_prefix_structure,
    diminishing_returns_index,
    min_feasible_top,
    structure_to_json,
)
from narch.sig_order import decide_affine_sig_prime

from .sampling import breakpoint_certificate, random_certificate, random_threshold

NARCH_DIR = os.path.dirname(os.path.abspath(narch.__file__))
FLOATS = (float, complex)


class FloatTrap:
    """Context manager recording each float local or return value of frames under a directory."""

    def __init__(self, directory: str):
        self.prefix = os.path.join(directory, "")
        self.found: list[tuple] = []
        self.events = 0

    def _check(self, frame, event, arg):
        self.events += 1
        where = (os.path.basename(frame.f_code.co_filename), frame.f_code.co_name, frame.f_lineno)
        for name, value in frame.f_locals.items():
            if isinstance(value, FLOATS):
                self.found.append((*where, name, value))
        if event == "return" and isinstance(arg, FLOATS):
            self.found.append((*where, "<return>", arg))
        return self._check

    def _call(self, frame, event, arg):
        if os.path.abspath(frame.f_code.co_filename).startswith(self.prefix):
            return self._check(frame, event, arg)
        return None

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        return False


def _measure_input(path) -> str:
    # a chain with a top, measured at thirds, one apart: accurate
    elements = ["x0", "x1", "x2", "y"]
    relation = [[a, b] for i, a in enumerate(elements) for b in elements[i + 1:]]
    values = {"x0": "-1/3", "x1": "2/3", "x2": "5/3", "y": "8/3"}
    path.write_text(json.dumps({
        "structure": {"elements": elements, "relation": relation},
        "assignment": {"values": values, "r": "1"},
    }), encoding="utf-8")
    return str(path)


def _cli_runs(tmp_path):
    out = str(tmp_path / "trace.csv")
    scripted = ["bandit", "--mode", "scripted", "--steps", "300", "--out", out]
    egreedy = ["bandit", "--mode", "egreedy", "--steps", "200", "--epsilon", "1/10",
               "--seed", "7", "--out", out]
    return {
        "compare": ["compare", "--lhs", "5 eps^-1 + 2 eps^3", "--rhs", "-1/2 eps^-1"],
        "witness": ["witness", "--r", "1/2", "--n", "40"],
        "feasible-top": ["measure", "feasible-top", "--n-max", "30", "--r", "2/3"],
        "check": ["measure", "check", "--input", _measure_input(tmp_path / "measure.json")],
        "scripted-laurent": [*scripted, "--scheme", "laurent"],
        "scripted-approx": [*scripted, "--scheme", "approx:7/3"],
        "scripted-dynamic": [*scripted, "--scheme", "dynamic:7/3"],
        "egreedy-laurent": [*egreedy, "--scheme", "laurent"],
        "egreedy-approx": [*egreedy, "--scheme", "approx:50"],
    }


def test_cli_commands_hold_no_float(tmp_path):
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with FloatTrap(NARCH_DIR) as trap:
            for name, argv in _cli_runs(tmp_path).items():
                codes[name] = narch.cli.main(argv)
    assert codes == dict.fromkeys(codes, 0)
    assert trap.found == [] and trap.events > 10_000


def test_measure_check_of_a_long_chain_holds_no_float(tmp_path):
    # x0 << ... << x399 << y (80,200 pairs) at thirds, 2/3 apart, then y lowered
    # by 1/7; about 1.4 s on a 2-vCPU x86-64 machine under Python 3.11
    n = 400
    structure = structure_to_json(chain_prefix_structure(n))
    labels = structure["elements"]
    accurate = {x: f"{2 * i - 1}/3" for i, x in enumerate(labels)}
    lowered = dict(accurate, y=f"{7 * (2 * n - 1) - 3}/21")
    outputs = []
    for values in (accurate, lowered):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "structure": structure, "assignment": {"values": values, "r": "2/3"},
        }), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), FloatTrap(NARCH_DIR) as trap:
            code = narch.cli.main(["measure", "check", "--input", str(path)])
        outputs.append((code, stdout.getvalue()))
        assert trap.found == [] and trap.events > 200_000
    assert outputs == [(0, '{"accurate": true}\n'), (0, '{"accurate": false}\n')]


def test_measure_closed_forms_hold_no_float(tmp_path):
    # 2,000 values from -3 up, rising by (2000 - i)/997: below 1/2 first at index 1502
    level, seq = Fraction(-3), []
    for i in range(2000):
        seq.append(f"{3 * level.numerator}/{3 * level.denominator}" if i % 2 else level)
        level += Fraction(2000 - i, 997)
    path = tmp_path / "seq.txt"
    path.write_text("\n".join(str(v) for v in seq) + "\n", encoding="utf-8")
    r = Fraction(7, 9)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), FloatTrap(NARCH_DIR) as trap:
        code = narch.cli.main(["measure", "plateau", "--seq", str(path), "--tol", "1/2"])
        index = diminishing_returns_index(seq, "1/2")
        tops = [min_feasible_top(n, r) for n in range(10_001)]
    assert trap.found == [] and trap.events > 100_000
    assert (code, stdout.getvalue(), index) == (0, '{"index": 1502}\n', 1502)
    assert tops == [(n + 1) * r for n in range(10_001)]


def test_affine_decisions_hold_no_float():
    rnd = Random(0xF10A7)
    cases = []
    for k in range(2000):
        r = random_threshold(rnd)
        sampler = breakpoint_certificate if k % 2 else random_certificate
        cases.append((sampler(rnd, r), r))
    with FloatTrap(NARCH_DIR) as trap:
        decisions = [decide_affine_sig_prime(cert, r) for cert, r in cases]
    assert trap.found == [] and trap.events > 10_000
    assert {decision.failed_condition for decision in decisions} == {None, "climb", "ceiling"}


def _planted(n):
    half = 1 / 2
    return n * half


def test_the_trap_catches_a_planted_float():
    here = os.path.dirname(os.path.abspath(__file__))
    with FloatTrap(here) as trap:
        _planted(3)
    names = {(function, name) for _, function, _, name, _ in trap.found}
    assert names == {("_planted", "half"), ("_planted", "<return>")}
    with FloatTrap(NARCH_DIR) as trap:
        _planted(3)
    assert trap.found == [] and trap.events == 0
