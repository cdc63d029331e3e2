import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narch.bandit
import narch.cli
from narch.bandit import RewardScheme, RunConfig, _bands, write_trace
from narch.laurent import ZERO, parse, scalar_mul
from narch.measurement import (
    MeasurementAssignment,
    SigThreshold,
    assignment_to_json,
    chain_prefix_structure,
    structure_to_json,
)

from .conftest import REPO_ROOT, SRC


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestCompare:
    def test_worked_example(self, narch_cli):
        result = narch_cli("compare", "--lhs", "999999 eps^5", "--rhs", "1/100000 eps^4")
        assert result.returncode == 0
        assert result.stdout == "less\n"

    def test_equal(self, narch_cli):
        result = narch_cli("compare", "--lhs", "0", "--rhs", "0")
        assert result.returncode == 0
        assert result.stdout == "equal\n"

    def test_non_ascii_digit_exits_2(self, narch_cli):
        result = narch_cli("compare", "--lhs", "\u0661", "--rhs", "0")
        assert result.returncode == 2
        assert result.stderr.startswith("narch:")

    def test_malformed_input_exits_2(self, narch_cli):
        result = narch_cli("compare", "--lhs", "(malformed", "--rhs", "0")
        assert result.returncode == 2
        assert "position" in result.stderr


class TestWitness:
    def test_emits_verified_witness(self, narch_cli):
        result = narch_cli("witness", "--r", "1", "--n", "3")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["chain"] == ["1 eps^1", "2 eps^1", "3 eps^1"]
        assert payload["y"] == "1 eps^0"
        assert payload["verified"] is True

    def test_fractional_threshold(self, narch_cli):
        result = narch_cli("witness", "--r", "1/2", "--n", "1")
        payload = json.loads(result.stdout)
        assert payload["chain"] == ["1/2 eps^1"]
        assert payload["verified"] is True

    def test_nonpositive_threshold_exits_2(self, narch_cli):
        assert narch_cli("witness", "--r", "-1", "--n", "3").returncode == 2
        assert narch_cli("witness", "--r", "0", "--n", "3").returncode == 2

    def test_non_ascii_threshold_exits_2(self, narch_cli):
        result = narch_cli("witness", "--r", "\u0661", "--n", "2")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "not a rational" in result.stderr


# Fraction() reads all of these; the grammar's rational := ["-"] digits ["/" digits] does not
NOT_RATIONAL = ["1e-1", "0.5", "1_0", "+3", " 3", "3 ", "1/0"]


def _run_in_process(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = narch.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text", NOT_RATIONAL, ids=repr)
class TestNotRational:
    def _assert_rejected(self, argv, text):
        code, stdout, stderr = _run_in_process(argv)
        assert (code, stdout) == (2, "")
        assert stderr == f"narch: invalid input: not a rational: {text!r}\n"

    def test_witness_threshold(self, text):
        self._assert_rejected(["witness", "--r", text, "--n", "1"], text)

    def test_bandit_epsilon(self, tmp_path, text):
        out = tmp_path / "trace.csv"
        self._assert_rejected([
            "bandit", "--scheme", "laurent", "--mode", "egreedy", "--steps", "5",
            "--epsilon", text, "--out", str(out),
        ], text)
        assert not out.exists()

    def test_bandit_scheme_constant(self, tmp_path, text):
        out = tmp_path / "trace.csv"
        self._assert_rejected([
            "bandit", "--scheme", f"approx:{text}", "--mode", "scripted", "--steps", "5",
            "--out", str(out),
        ], text)
        assert not out.exists()

    def test_measure_check_value(self, tmp_path, text):
        payload = {
            "structure": {"elements": ["x0", "y"], "relation": [["x0", "y"]]},
            "assignment": {"values": {"x0": "0", "y": text}, "r": "1"},
        }
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_rejected(["measure", "check", "--input", str(path)], text)


# int() reads all of these; an integer flag is the grammar's ["-"] digits, ASCII only
NOT_INTEGER = ["1_0", " \u0662 ", "\u0663"]


def _integer_flag_argv(flag, out):
    """A command that takes ``flag``, with every other required option valid."""
    return {
        "--n": ["witness", "--r", "1"],
        "--n-min": ["measure", "feasible-top", "--n-max", "3", "--r", "1", "--out", out],
        "--n-max": ["measure", "feasible-top", "--r", "1", "--out", out],
        "--steps": ["bandit", "--scheme", "laurent", "--mode", "scripted", "--out", out],
        "--seed": ["bandit", "--scheme", "laurent", "--mode", "egreedy", "--steps", "5",
                   "--out", out],
    }[flag]


@pytest.mark.parametrize("text", NOT_INTEGER, ids=repr)
@pytest.mark.parametrize("flag", ["--n", "--n-min", "--n-max", "--steps", "--seed"])
def test_integer_flag_rejects_non_grammar_digits(tmp_path, capsys, flag, text):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        narch.cli.main([*_integer_flag_argv(flag, str(out)), flag, text])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, "")
    assert f"argument {flag}: not an integer: {text!r}" in captured.err
    assert not out.exists()


_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="this interpreter converts text of any length")
def test_integer_flag_past_the_digit_limit_exits_2(capsys):
    digits = "9" * (_INT_DIGIT_LIMIT + 1)
    with pytest.raises(SystemExit) as exit_info:
        narch.cli.main(["witness", "--r", "1", "--n", digits])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"argument --n: too many digits: {len(digits)}\n")


def _deep_json(path):
    path.write_text("[" * 200_000, encoding="utf-8")
    return str(path)


class TestDeepJson:
    def _assert_input_error(self, result):
        assert result.returncode == 2
        assert result.stderr.startswith("narch:")
        assert "Traceback" not in result.stderr

    def test_measure_check_exits_2(self, narch_cli, tmp_path):
        path = _deep_json(tmp_path / "deep.json")
        self._assert_input_error(narch_cli("measure", "check", "--input", path))

    def test_bandit_config_exits_2(self, narch_cli, tmp_path):
        out = tmp_path / "trace.csv"
        path = _deep_json(tmp_path / "deep.json")
        self._assert_input_error(narch_cli("bandit", "--config", path, "--out", str(out)))
        assert not out.exists()


class TestUndecodableFile:
    """A file that is not UTF-8 exits 2 with its path named, whichever command reads it."""

    @pytest.mark.parametrize("command", [
        ["measure", "check", "--input"],
        ["bandit", "--out", "{tmp}/trace.csv", "--config"],
        ["measure", "plateau", "--tol", "1/2", "--seq"],
    ], ids=["check", "bandit", "plateau"])
    def test_bad_byte_exits_2_naming_the_file(self, tmp_path, command):
        path = tmp_path / "input"
        path.write_bytes(b"\xff")
        argv = [arg.format(tmp=tmp_path) for arg in command]
        code, stdout, stderr = _run_in_process([*argv, str(path)])
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"narch: invalid input: cannot read {path}: ")
        assert "Traceback" not in stderr
        assert list(tmp_path.iterdir()) == [path]

    def test_plateau_splits_lines_on_lf_only(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("0\n1\x0c2\n3\n", encoding="utf-8")
        code, stdout, stderr = _run_in_process(
            ["measure", "plateau", "--seq", str(path), "--tol", "1/2"]
        )
        assert (code, stdout) == (2, "")
        assert stderr == "narch: invalid input: not a rational: '1\\x0c2'\n"

    @pytest.mark.parametrize("blank, shown", [
        ("\xa0", "'\\xa02'"), ("\u3000", "'\\u30002'"),
    ], ids=["nbsp", "ideographic-space"])
    def test_plateau_strips_only_ascii_blanks(self, tmp_path, blank, shown):
        # the series grammar's blanks, as for --lhs of compare; str.strip would drop these too
        path = tmp_path / "seq.txt"
        path.write_text(f"1\n{blank}2\n", encoding="utf-8")
        code, stdout, stderr = _run_in_process(
            ["measure", "plateau", "--seq", str(path), "--tol", "1/2"]
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"narch: invalid input: not a rational: {shown}\n"

    @pytest.mark.parametrize("tol, message", [
        ("1/0", "not a rational: '1/0'"),
        ("0", "tolerance must be positive"),
        ("1/2", "not a rational: 'x'"),
    ], ids=["bad-tol-text", "zero-tol", "good-tol"])
    def test_plateau_reports_a_bad_tol_before_a_bad_line(self, tmp_path, tol, message):
        path = tmp_path / "seq.txt"
        path.write_text("0\nx\n", encoding="utf-8")
        code, stdout, stderr = _run_in_process(
            ["measure", "plateau", "--seq", str(path), "--tol", tol]
        )
        assert (code, stdout, stderr) == (2, "", f"narch: invalid input: {message}\n")

    def test_plateau_strips_ascii_blanks(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text(" 0\t\r\n\x0b1\x0c\n\n \n2\n", encoding="utf-8")
        code, stdout, stderr = _run_in_process(
            ["measure", "plateau", "--seq", str(path), "--tol", "1/2"]
        )
        assert (code, stdout, stderr) == (0, '{"index": null}\n', "")


def _cli_with_stdout(stdout, *args):
    """A CLI subprocess writing its stdout to ``stdout``, with stderr piped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "narch", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


class TestDuplicateJsonKeys:
    """An object that repeats a key exits 2 naming it, instead of keeping the last value."""

    def _assert_rejected(self, tmp_path, argv, text, key):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code, stdout, stderr = _run_in_process([*argv, str(path)])
        assert (code, stdout) == (2, "")
        assert stderr == f'narch: invalid input: invalid JSON in {path}: duplicate key "{key}"\n'
        assert list(tmp_path.iterdir()) == [path]

    def test_measure_check_values(self, tmp_path):
        text = (
            '{"structure": {"elements": ["a", "b"], "relation": [["a", "b"]]},'
            ' "assignment": {"values": {"a": "0", "b": "5", "b": "0"}, "r": "1"}}'
        )
        self._assert_rejected(tmp_path, ["measure", "check", "--input"], text, "b")

    def test_measure_check_structure(self, tmp_path):
        text = (
            '{"structure": {"elements": ["a", "b"], "relation": [["a", "b"]], "relation": []},'
            ' "assignment": {"values": {"a": "0", "b": "5"}, "r": "1"}}'
        )
        self._assert_rejected(tmp_path, ["measure", "check", "--input"], text, "relation")

    def test_bandit_config(self, tmp_path):
        text = '{"scheme": "laurent", "mode": "scripted", "steps": 5, "steps": 3}'
        argv = ["bandit", "--out", str(tmp_path / "trace.csv"), "--config"]
        self._assert_rejected(tmp_path, argv, text, "steps")


class TestStdoutFailure:
    def _assert_io_error(self, proc):
        with proc.stderr:
            stderr = proc.stderr.read()
        assert proc.wait() == 3
        assert stderr.startswith("narch: cannot write stdout:")
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_3(self):
        with open("/dev/full", "w") as full:
            proc = _cli_with_stdout(full, "compare", "--lhs", "1", "--rhs", "0")
        self._assert_io_error(proc)

    def test_closed_pipe_exits_3(self):
        proc = _cli_with_stdout(
            subprocess.PIPE, "measure", "feasible-top", "--n-max", "200000", "--r", "1"
        )
        assert proc.stdout.readline() == "n,min_top\n"
        proc.stdout.close()
        self._assert_io_error(proc)


class TestMeasure:
    def test_check_accepts_witness_assignment(self, narch_cli, tmp_path):
        payload = {
            "structure": {
                "elements": ["x0", "x1", "x2", "y"],
                "relation": [
                    ["x0", "x1"], ["x0", "x2"], ["x1", "x2"],
                    ["x0", "y"], ["x1", "y"], ["x2", "y"],
                ],
            },
            "assignment": {
                "values": {"x0": "0", "x1": "1", "x2": "2", "y": "3"},
                "r": "1",
            },
        }
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = narch_cli("measure", "check", "--input", str(path))
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"accurate": True}

    def test_check_rejects_bad_json_with_2(self, narch_cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert narch_cli("measure", "check", "--input", str(path)).returncode == 2

    def test_check_rejects_non_string_labels_with_2(self, narch_cli, tmp_path):
        payload = {
            "structure": {"elements": ["1", "2"], "relation": [[1, 2]]},
            "assignment": {"values": {"1": "0", "2": "1"}, "r": "1"},
        }
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = narch_cli("measure", "check", "--input", str(path))
        assert result.returncode == 2
        assert "undeclared" in result.stderr

    def _check_rejected(self, narch_cli, tmp_path, payload):
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = narch_cli("measure", "check", "--input", str(path))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("narch: invalid input: ")
        assert "Traceback" not in result.stderr
        return result.stderr

    def test_check_rejects_value_for_undeclared_element_with_2(self, narch_cli, tmp_path):
        payload = {
            "structure": {"elements": ["x0", "y"], "relation": [["x0", "y"]]},
            "assignment": {"values": {"x0": "0", "y": "1", "zzz": "5"}, "r": "1"},
        }
        stderr = self._check_rejected(narch_cli, tmp_path, payload)
        assert "undeclared element 'zzz'" in stderr

    @pytest.mark.parametrize("label", [["a"], {"a": 1}], ids=["list", "dict"])
    def test_check_rejects_unhashable_label_with_2(self, narch_cli, tmp_path, label):
        payload = {
            "structure": {"elements": ["a"], "relation": [[label, "a"]]},
            "assignment": {"values": {"a": "0"}, "r": "1"},
        }
        stderr = self._check_rejected(narch_cli, tmp_path, payload)
        assert "references undeclared elements" in stderr
        assert "unhashable" not in stderr

    @pytest.mark.parametrize("lowered, accurate", [(False, True), (True, False)])
    def test_check_at_benchmark_scale(self, narch_cli, tmp_path, lowered, accurate):
        structure = chain_prefix_structure(299)
        assert len(structure.elements) == 300
        values = {f"x{i}": i for i in range(299)}
        values["y"] = 299 - (Fraction(1, 10**6) if lowered else 0)
        payload = {
            "structure": structure_to_json(structure),
            "assignment": assignment_to_json(MeasurementAssignment(values, SigThreshold(1))),
        }
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = narch_cli("measure", "check", "--input", str(path))
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"accurate": accurate}

    def test_check_non_ascii_values_exit_2(self, narch_cli, tmp_path):
        payload = {
            "structure": {"elements": ["x0", "y"], "relation": [["x0", "y"]]},
            "assignment": {"values": {"x0": "\u0660", "y": "\u0661"}, "r": "1"},
        }
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = narch_cli("measure", "check", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "not a rational" in result.stderr

    def test_check_missing_file_exits_2(self, narch_cli, tmp_path):
        missing = tmp_path / "nope.json"
        assert narch_cli("measure", "check", "--input", str(missing)).returncode == 2

    def test_feasible_top_rows(self, narch_cli):
        result = narch_cli("measure", "feasible-top", "--n-max", "4", "--r", "1")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "n,min_top"
        assert lines[1:] == ["0,1", "1,2", "2,3", "3,4", "4,5"]

    def test_feasible_top_to_file(self, narch_cli, tmp_path):
        out = tmp_path / "tops.csv"
        result = narch_cli(
            "measure", "feasible-top", "--n-min", "2", "--n-max", "3", "--r", "1/2",
            "--out", str(out),
        )
        assert result.returncode == 0
        assert out.read_text(encoding="utf-8") == "n,min_top\n2,3/2\n3,2\n"

    @pytest.mark.parametrize("r", ["0", "-1/2"])
    def test_feasible_top_bad_threshold_writes_nothing(self, narch_cli, tmp_path, r):
        out = tmp_path / "tops.csv"
        result = narch_cli("measure", "feasible-top", "--n-max", "3", "--r", r)
        assert (result.returncode, result.stdout) == (2, "")
        result = narch_cli(
            "measure", "feasible-top", "--n-max", "3", "--r", r, "--out", str(out)
        )
        assert result.returncode == 2
        assert list(tmp_path.iterdir()) == []

    def test_plateau_geometric(self, narch_cli, tmp_path):
        path = tmp_path / "seq.txt"
        values = [1 - Fraction(1, 2**i) for i in range(21)]
        path.write_text("\n".join(str(v) for v in values) + "\n", encoding="utf-8")
        result = narch_cli("measure", "plateau", "--seq", str(path), "--tol", "1/100")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"index": 6}

    def test_plateau_linear_gives_null(self, narch_cli, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("\n".join(str(i) for i in range(11)) + "\n", encoding="utf-8")
        result = narch_cli("measure", "plateau", "--seq", str(path), "--tol", "1/2")
        assert json.loads(result.stdout) == {"index": None}


class TestBandit:
    def test_scripted_static_flip(self, narch_cli, tmp_path):
        out = tmp_path / "trace.csv"
        result = narch_cli(
            "bandit", "--scheme", "approx:1000", "--mode", "scripted",
            "--steps", "15000", "--out", str(out),
        )
        assert result.returncode == 0
        summary = json.loads(result.stdout)
        assert summary["flip_step"] == 14001
        assert summary["final_preference"] == "red"
        rows = read_csv(out)
        assert rows[0] == ["step", "arm", "reward", "red_mean", "blue_mean", "preferred"]
        assert len(rows) == 15001

    def test_scripted_laurent_never_flips(self, narch_cli, tmp_path):
        out = tmp_path / "trace.csv"
        result = narch_cli(
            "bandit", "--scheme", "laurent", "--mode", "scripted",
            "--steps", "200", "--out", str(out),
        )
        summary = json.loads(result.stdout)
        assert summary["flip_step"] is None
        assert summary["final_preference"] == "blue"

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_egreedy_flip_on_a_tie(self, tmp_path, seed):
        # ties go to red, so a blue mean that only equals the red mean is a flip
        out = tmp_path / "trace.csv"
        code, stdout, _ = _run_in_process([
            "bandit", "--scheme", "approx:3/2", "--mode", "egreedy", "--steps", "40",
            "--epsilon", "1/2", "--seed", str(seed), "--out", str(out),
        ])
        assert code == 0
        flip = json.loads(stdout)["flip_step"]
        _, _, _, red_mean, blue_mean, preferred = read_csv(out)[flip]
        assert (red_mean, blue_mean, preferred) == ("1", "1", "red")

    def test_trace_values_round_trip(self, narch_cli, tmp_path):
        out = tmp_path / "trace.csv"
        narch_cli(
            "bandit", "--scheme", "laurent", "--mode", "scripted",
            "--steps", "20", "--out", str(out),
        )
        rows = read_csv(out)[1:]
        blue_sum = ZERO
        for step, arm, reward, red_mean, blue_mean, preferred in rows:
            n = int(step)
            blue_sum = blue_sum + parse(reward)
            # parsing the exact text reconstructs the exact running statistics
            assert scalar_mul(n, parse(blue_mean)) == blue_sum
            assert parse(red_mean) == parse("1 eps^0")
            assert arm == "blue"
            assert preferred == "blue"

    def test_egreedy_runs_and_is_deterministic(self, narch_cli, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "bandit", "--scheme", "approx:50", "--mode", "egreedy",
            "--steps", "300", "--epsilon", "1/10", "--seed", "42",
        ]
        first = narch_cli(*args, "--out", str(out_a))
        second = narch_cli(*args, "--out", str(out_b))
        assert first.returncode == second.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert first.stdout == second.stdout

    def test_config_file(self, narch_cli, tmp_path):
        config = {
            "scheme": "approx:1000",
            "mode": "scripted",
            "steps": 100,
            "epsilon": "0",
            "seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "trace.csv"
        result = narch_cli("bandit", "--config", str(path), "--out", str(out))
        assert result.returncode == 0
        assert json.loads(result.stdout)["scheme"] == "approx:1000"

    def test_flag_overrides_config(self, narch_cli, tmp_path):
        config = {"scheme": "approx:1000", "mode": "scripted", "steps": 100}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "trace.csv"
        result = narch_cli(
            "bandit", "--config", str(path), "--steps", "7", "--out", str(out)
        )
        assert json.loads(result.stdout)["steps"] == 7
        assert len(read_csv(out)) == 8

    @pytest.mark.parametrize("config", [
        RunConfig(RewardScheme.parse("approx:7/2"), "scripted", 300),
        RunConfig(RewardScheme.parse("laurent"), "egreedy", 300, Fraction(1, 10), 42),
    ], ids=["scripted", "egreedy"])
    def test_write_trace_is_the_whole_out_file(self, tmp_path, config):
        out = tmp_path / "trace.csv"
        code, _, _ = _run_in_process([
            "bandit", "--scheme", config.scheme.text(), "--mode", config.mode,
            "--steps", str(config.steps), "--epsilon", str(config.epsilon),
            "--seed", str(config.seed), "--out", str(out),
        ])
        assert code == 0
        buffer = io.StringIO()
        write_trace(config, buffer)
        assert buffer.getvalue().startswith("step,arm,reward,red_mean,blue_mean,preferred\n")
        assert out.read_bytes() == buffer.getvalue().encode()

    def test_invalid_scheme_exits_2(self, narch_cli, tmp_path):
        result = narch_cli(
            "bandit", "--scheme", "bogus", "--mode", "scripted",
            "--steps", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert result.returncode == 2

    def test_unwritable_output_exits_3(self, narch_cli, tmp_path):
        result = narch_cli(
            "bandit", "--scheme", "laurent", "--mode", "scripted",
            "--steps", "5", "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
        )
        assert result.returncode == 3


SCRIPTED_ARGV = ["bandit", "--scheme", "approx:10", "--mode", "scripted", "--steps", "100"]


def _failing_bands(n, scheme):
    bands = _bands(n, scheme)
    for _ in range(6):  # the bands of steps 1-63
        yield next(bands)
    raise RuntimeError("row source failed mid-stream")


class TestAtomicOutput:
    def test_missing_directory_leaves_no_file(self, narch_cli, tmp_path):
        out = tmp_path / "missing" / "trace.csv"
        assert narch_cli(*SCRIPTED_ARGV, "--out", str(out)).returncode == 3
        assert list(tmp_path.iterdir()) == []

    def test_parent_is_a_file_exits_3(self, narch_cli, tmp_path):
        parent = tmp_path / "plain.txt"
        parent.write_bytes(b"")
        result = narch_cli(*SCRIPTED_ARGV, "--out", str(parent / "trace.csv"))
        assert result.returncode == 3
        assert list(tmp_path.iterdir()) == [parent]

    def test_failed_replace_removes_temp_file(self, narch_cli, tmp_path):
        # the rows are written, then replacing a directory with the file fails
        target = tmp_path / "trace.csv"
        target.mkdir()
        result = narch_cli(*SCRIPTED_ARGV, "--out", str(target))
        assert result.returncode == 3
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize(
        "out, reason",
        [
            ("missing/trace.csv", "No such file or directory"),
            ("plain.txt/trace.csv", "Not a directory"),
            ("trace.csv", "Is a directory"),
        ],
        ids=["missing-directory", "parent-is-a-file", "directory-as-target"],
    )
    def test_failure_message_is_the_same_on_every_run(self, narch_cli, tmp_path, out, reason):
        # the temp file's name is random, so a message that named it would differ between runs
        (tmp_path / "plain.txt").write_bytes(b"")
        (tmp_path / "trace.csv").mkdir()
        first, second = (narch_cli(*SCRIPTED_ARGV, "--out", out, cwd=tmp_path) for _ in range(2))
        assert (first.returncode, first.stdout) == (3, "")
        assert first.stderr == f"narch: cannot write {out}: {reason}\n"
        assert second.stderr == first.stderr

    def test_failure_mid_stream_leaves_no_file(self, monkeypatch, tmp_path):
        monkeypatch.setattr(narch.bandit, "_bands", _failing_bands)
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            with pytest.raises(RuntimeError):
                narch.cli.main([*SCRIPTED_ARGV, "--out", str(tmp_path / "trace.csv")])
        assert captured.getvalue() == ""
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_existing_file(self, monkeypatch, tmp_path):
        out = tmp_path / "trace.csv"
        out.write_bytes(b"previous run\n")
        monkeypatch.setattr(narch.bandit, "_bands", _failing_bands)
        with contextlib.redirect_stdout(io.StringIO()):
            with pytest.raises(RuntimeError):
                narch.cli.main([*SCRIPTED_ARGV, "--out", str(out)])
        assert out.read_bytes() == b"previous run\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_success_replaces_existing_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        out.write_bytes(b"previous run\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert narch.cli.main([*SCRIPTED_ARGV, "--out", str(out)]) == 0
        assert len(read_csv(out)) == 101
        assert list(tmp_path.iterdir()) == [out]


def _peak_traced_bytes(argv) -> int:
    """Peak Python allocation of one in-process CLI run, in bytes."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert narch.cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    @pytest.mark.parametrize(
        "argv, steps_flag",
        [
            (["bandit", "--scheme", "laurent", "--mode", "egreedy", "--epsilon", "1/10"],
             "--steps"),
            (["bandit", "--scheme", "approx:50", "--mode", "egreedy", "--epsilon", "1/10"],
             "--steps"),
            (["bandit", "--scheme", "laurent", "--mode", "scripted"], "--steps"),
            (["bandit", "--scheme", "approx:50", "--mode", "scripted"], "--steps"),
            (["bandit", "--scheme", "dynamic:7/3", "--mode", "scripted"], "--steps"),
            (["measure", "feasible-top", "--r", "7/3"], "--n-max"),
        ],
        ids=[
            "egreedy laurent", "egreedy approx", "scripted", "scripted approx",
            "scripted dynamic", "feasible-top",
        ],
    )
    def test_peak_does_not_grow_with_rows(self, tmp_path, argv, steps_flag):
        out = ["--out", str(tmp_path / "out.csv")]
        small = _peak_traced_bytes([*argv, steps_flag, "2000", *out])
        large = _peak_traced_bytes([*argv, steps_flag, "50000", *out])
        assert large - small <= 1 << 20, (small, large)


def _rational_text():
    return st.builds(
        lambda num, den: f"{num}/{den}", st.integers(10, 10**6), st.integers(10, 10**6)
    )


def _assert_plain_csv(text, cells):
    """Every line reads back through csv.reader as its comma-split cells."""
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert len(lines) > 1
    for line in lines:
        assert next(csv.reader([line])) == line.split(",")
        assert len(line.split(",")) == cells, line


class TestPlainCsv:
    """Rows are written as comma-joined text: no cell ever needs csv quoting."""

    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.one_of(
            st.just("laurent"),
            _rational_text().map("approx:{}".format),
            _rational_text().map("dynamic:{}".format),
        ),
        mode=st.sampled_from(["scripted", "egreedy"]),
        steps=st.integers(1, 300),
        epsilon=st.fractions(min_value=0, max_value=1, max_denominator=10**4),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_bandit_rows(self, scheme, mode, steps, epsilon, seed):
        with tempfile.TemporaryDirectory() as directory:
            out = Path(directory) / "trace.csv"
            code, _, stderr = _run_in_process([
                "bandit", "--scheme", scheme, "--mode", mode, "--steps", str(steps),
                # a scripted run refuses a nonzero epsilon or seed, which it never reads
                *(["--epsilon", str(epsilon), "--seed", str(seed)] if mode == "egreedy" else []),
                "--out", str(out),
            ])
            assert code == 0, stderr
            text = out.read_text(encoding="utf-8")
        assert len(text.splitlines()) == steps + 1
        _assert_plain_csv(text, 6)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.one_of(st.integers(1, 10**6).map(str), _rational_text()),
        n_min=st.integers(0, 50),
        count=st.integers(0, 50),
    )
    def test_feasible_top_rows(self, r, n_min, count):
        code, stdout, stderr = _run_in_process([
            "measure", "feasible-top", "--n-min", str(n_min), "--n-max", str(n_min + count),
            "--r", r,
        ])
        assert code == 0, stderr
        _assert_plain_csv(stdout, 2)


class TestConfigTypes:
    @pytest.mark.parametrize(
        "override",
        [{"steps": 2.7}, {"steps": True}, {"steps": "100"}, {"seed": 3.9}, {"seed": False}],
        ids=["steps-float", "steps-bool", "steps-string", "seed-float", "seed-bool"],
    )
    def test_non_integer_values_exit_2(self, narch_cli, tmp_path, override):
        config = {"scheme": "approx:1000", "mode": "scripted", "steps": 100, "seed": 0}
        config.update(override)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "trace.csv"
        result = narch_cli("bandit", "--config", str(path), "--out", str(out))
        assert result.returncode == 2
        assert "must be an integer" in result.stderr
        assert not out.exists()


    @pytest.mark.parametrize("key", ["discount", "stpes"])
    def test_unknown_key_exits_2(self, narch_cli, tmp_path, key):
        config = {"scheme": "approx:1000", "mode": "scripted", "steps": 100, key: "1/2"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "trace.csv"
        result = narch_cli("bandit", "--config", str(path), "--out", str(out))
        assert result.returncode == 2
        assert f'unknown bandit config key "{key}"' in result.stderr
        assert not out.exists()

    def test_discount_flag_removed(self, narch_cli, tmp_path):
        out = tmp_path / "trace.csv"
        result = narch_cli(
            "bandit", "--scheme", "laurent", "--mode", "scripted", "--steps", "5",
            "--discount", "1/2", "--out", str(out),
        )
        assert result.returncode == 2
        assert not out.exists()


_SCRIPTED_UNREAD = (
    "narch: invalid input: a scripted run reads no epsilon or seed; give 0 or leave them out\n"
)


class TestScriptedUnreadOptions:
    """A scripted run draws nothing, so a nonzero epsilon or seed is refused, not dropped."""

    SCRIPTED = ["bandit", "--scheme", "laurent", "--mode", "scripted", "--steps", "50"]

    @pytest.mark.parametrize("extra", [
        ["--epsilon", "1/2"], ["--seed", "9"], ["--epsilon", "1/2", "--seed", "9"],
    ], ids=["epsilon", "seed", "both"])
    def test_flag_exits_2(self, tmp_path, extra):
        out = tmp_path / "trace.csv"
        code, stdout, stderr = _run_in_process([*self.SCRIPTED, *extra, "--out", str(out)])
        assert (code, stdout, stderr) == (2, "", _SCRIPTED_UNREAD)
        assert not out.exists()

    @pytest.mark.parametrize("keys", [
        {"epsilon": "1/3"}, {"seed": 5}, {"epsilon": "1/3", "seed": 5},
    ], ids=["epsilon", "seed", "both"])
    def test_config_key_exits_2(self, tmp_path, keys):
        path = tmp_path / "config.json"
        config = {"scheme": "approx:7/2", "mode": "scripted", "steps": 50, **keys}
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "trace.csv"
        code, stdout, stderr = _run_in_process(["bandit", "--config", str(path), "--out", str(out)])
        assert (code, stdout, stderr) == (2, "", _SCRIPTED_UNREAD)
        assert not out.exists()

    def test_zero_values_keep_the_trace(self, tmp_path):
        plain, zeros = tmp_path / "plain.csv", tmp_path / "zeros.csv"
        assert _run_in_process([*self.SCRIPTED, "--out", str(plain)])[0] == 0
        code, _, _ = _run_in_process([
            *self.SCRIPTED, "--epsilon", "0/3", "--seed", "0", "--out", str(zeros),
        ])
        assert code == 0
        assert zeros.read_bytes() == plain.read_bytes()


class TestBench:
    def test_bench_selftest(self):
        # the bench probes narch names such as env_step; deleting one fails here
        script = REPO_ROOT / "bench" / "selftest.py"
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, cwd=REPO_ROOT
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all self-test cases passed" in result.stdout


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self, narch_cli):
        assert narch_cli().returncode == 2

    def test_unknown_flag_exits_2(self, narch_cli):
        assert narch_cli("compare", "--nope", "1").returncode == 2


class TestBadMode:
    """RunConfig is the one check of --mode, whether it comes from a flag or the config."""

    def _assert_bad_mode(self, result, out):
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "narch: invalid input: unknown mode 'bogus'\n"
        assert not out.exists()

    def test_flag(self, narch_cli, tmp_path):
        out = tmp_path / "trace.csv"
        result = narch_cli(
            "bandit", "--scheme", "laurent", "--mode", "bogus", "--steps", "5", "--out", str(out)
        )
        self._assert_bad_mode(result, out)

    def test_config_key(self, narch_cli, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scheme": "laurent", "mode": "bogus", "steps": 5}))
        out = tmp_path / "trace.csv"
        self._assert_bad_mode(narch_cli("bandit", "--config", str(path), "--out", str(out)), out)

    def test_help_names_both_modes(self, narch_cli):
        result = narch_cli("bandit", "--help")
        assert result.returncode == 0
        assert "scripted | egreedy" in result.stdout
