"""Command-line harness: compare, witness, measure, bandit.

Every value printed or written is exact text (series grammar or num/den
rationals); nothing is ever formatted through floating point, so outputs
are platform-independent and reruns with identical inputs are
byte-identical. Exit codes: 0 success, 2 invalid input, 3 output I/O
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from itertools import repeat
from typing import Any, Iterable, Iterator, Optional, TextIO

from .bandit import (
    Arm,
    KIND_LAURENT,
    MODE_EGREEDY,
    MODE_SCRIPTED,
    RewardScheme,
    RunConfig,
    epsilon_greedy_pulls,
    first_flip,
    mean_text,
    reward_text,
    _bands,
    _ratio_text,
)
from .laurent import SeriesParseError, as_rational, compare, format_series, parse
from .measurement import (
    assignment_from_json,
    diminishing_returns_index,
    is_accurate_measurement,
    min_feasible_top,
    structure_from_json,
)
from .sig_order import laurent_nonarch_witness, verify_nonarch_prefix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

CSV_HEADER = ["step", "arm", "reward", "red_mean", "blue_mean", "preferred"]


class InputError(Exception):
    pass


class OutputError(Exception):
    pass


def _load_json_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


@contextlib.contextmanager
def _atomic_output(path: str) -> Iterator[TextIO]:
    """A text handle on a temp file beside ``path`` that replaces it on success.

    On any failure the temp file is removed and ``path`` is left as it
    was, so the output is either complete or absent.
    """
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        # open() applies the umask like a direct write would; mkstemp forces 0600
        handle = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc}") from exc
        raise


@contextlib.contextmanager
def _csv_output(path: Optional[str]) -> Iterator[Any]:
    """A CSV writer on stdout, or on an atomic output when ``path`` is given."""
    if path is None:
        yield csv.writer(sys.stdout, lineterminator="\n")
        return
    with _atomic_output(path) as handle:
        yield csv.writer(handle, lineterminator="\n")


def _cmd_compare(args: argparse.Namespace) -> int:
    lhs = parse(args.lhs)
    rhs = parse(args.rhs)
    print(compare(lhs, rhs).value)
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    r = as_rational(args.r)
    chain, y = laurent_nonarch_witness(r, args.n)
    verified = verify_nonarch_prefix(chain, y, r)
    payload = {
        "r": str(r),
        "n": args.n,
        "chain": [format_series(x) for x in chain],
        "y": format_series(y),
        "verified": verified,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_measure_check(args: argparse.Namespace) -> int:
    obj = _load_json_file(args.input)
    if not isinstance(obj, dict) or "structure" not in obj or "assignment" not in obj:
        raise InputError("measure input must have 'structure' and 'assignment' objects")
    structure = structure_from_json(obj["structure"])
    assignment = assignment_from_json(obj["assignment"])
    accurate = is_accurate_measurement(structure, assignment)
    print(json.dumps({"accurate": accurate}))
    return EXIT_OK


def _cmd_measure_feasible_top(args: argparse.Namespace) -> int:
    r = as_rational(args.r)
    if args.n_min < 0 or args.n_max < args.n_min:
        raise InputError("need 0 <= n-min <= n-max")
    min_feasible_top(args.n_min, r)  # rejects a bad r before any row is written
    with _csv_output(args.out) as writer:
        writer.writerow(["n", "min_top"])
        for n in range(args.n_min, args.n_max + 1):
            writer.writerow([n, min_feasible_top(n, r)])
    return EXIT_OK


def _cmd_measure_plateau(args: argparse.Namespace) -> int:
    try:
        with open(args.seq, "r", encoding="utf-8") as handle:
            raw_lines = [line.strip() for line in handle]
    except OSError as exc:
        raise InputError(f"cannot read {args.seq}: {exc}") from exc
    seq = [as_rational(line) for line in raw_lines if line]
    index = diminishing_returns_index(seq, as_rational(args.tol))
    print(json.dumps({"index": index}))
    return EXIT_OK


_BANDIT_OPTIONS = ("scheme", "mode", "steps", "epsilon", "seed")


def _bandit_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config is not None:
        obj = _load_json_file(args.config)
        if not isinstance(obj, dict):
            raise InputError("bandit config JSON must be an object")
        for key in obj:
            if key not in _BANDIT_OPTIONS:
                raise InputError(f"unknown bandit config key {json.dumps(key)}")
        values.update(obj)
    for key in _BANDIT_OPTIONS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    for key in ("scheme", "mode", "steps"):
        if key not in values:
            raise InputError(f"missing required bandit option '{key}'")
    scheme = RewardScheme.parse(str(values["scheme"]))
    return RunConfig(
        scheme=scheme,
        mode=str(values["mode"]),
        steps=values["steps"],
        epsilon=as_rational(values.get("epsilon", 0)),
        seed=values.get("seed", 0),
    )


def _scripted_rows(config: RunConfig, writer) -> tuple[Optional[int], str]:
    scheme = config.scheme
    blue, red = Arm.BLUE.value, Arm.RED.value
    zero_cell = reward_text(scheme.zero())
    # k units over k presses: the red mean is one unit in every round
    red_cell = mean_text(scheme.unit(), 1)
    # a Laurent blue total is num eps^-1
    suffix = " eps^-1" if scheme.kind == KIND_LAURENT else ""
    jackpot_cells = {}  # the Laurent and static jackpots repeat in every band
    for first, last, jackpot, num, den, blue_last in _bands(config.steps, scheme):
        if jackpot not in jackpot_cells:
            jackpot_cells[jackpot] = reward_text(jackpot)
        writer.writerow((
            first, blue, jackpot_cells[jackpot], red_cell, _ratio_text(num, den * first, suffix),
            blue if first <= blue_last else red,
        ))
        # the band's other rows, one gcd each: a blue run, then a red run
        red_first = max(first, blue_last) + 1
        for lo, hi, arm in ((first + 1, blue_last, blue), (red_first, last, red)):
            scaled_dens = range(den * lo, den * hi + 1, den)
            means = map(_ratio_text, repeat(num), scaled_dens, repeat(suffix))
            writer.writerows(zip(
                range(lo, hi + 1), repeat(blue), repeat(zero_cell), repeat(red_cell), means,
                repeat(arm),
            ))
    return first_flip(scheme, config.steps), blue if last <= blue_last else red


def _egreedy_rows(config: RunConfig, writer) -> tuple[Optional[int], str]:
    scheme = config.scheme
    red, blue = Arm.RED, Arm.BLUE
    red_cell, blue_cell = red.value, blue.value
    zero = scheme.zero()
    unit_cell, zero_cell = reward_text(scheme.unit()), reward_text(zero)
    # the red arm pays one unit per pull: its mean is one unit in every row
    red_mean_cell = mean_text(scheme.unit(), 1)
    blue_mean_cell = ""
    flip_step = None
    previous = preferred = red
    for step, arm, reward, blue_pulls, blue_sum, preferred in epsilon_greedy_pulls(config):
        if arm is red:
            reward_cell = unit_cell
        else:
            reward_cell = zero_cell if reward is zero else reward_text(reward)
            blue_mean_cell = mean_text(blue_sum, blue_pulls)
        if previous is blue and preferred is red and flip_step is None:
            flip_step = step
        previous = preferred
        writer.writerow([
            str(step), red_cell if arm is red else blue_cell, reward_cell, red_mean_cell,
            blue_mean_cell, red_cell if preferred is red else blue_cell,
        ])
    return flip_step, preferred.value


def _cmd_bandit(args: argparse.Namespace) -> int:
    config = _bandit_config(args)
    write_rows = _scripted_rows if config.mode == MODE_SCRIPTED else _egreedy_rows
    with _csv_output(args.out) as writer:
        writer.writerow(CSV_HEADER)
        flip_step, final_preference = write_rows(config, writer)
    summary = {
        "scheme": config.scheme.text(),
        "mode": config.mode,
        "steps": config.steps,
        "flip_step": flip_step,
        "final_preference": final_preference,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narch",
        description="Exact Laurent-series comparisons, trapped-chain witnesses, "
        "measurement analysis, and delayed-gratification bandit runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compare = sub.add_parser("compare", help="compare two series given as text")
    p_compare.add_argument("--lhs", required=True, help="left series, e.g. '5 eps^-1 + 2 eps^3'")
    p_compare.add_argument("--rhs", required=True, help="right series")
    p_compare.set_defaults(handler=_cmd_compare)

    p_witness = sub.add_parser(
        "witness", help="emit and verify a trapped-chain witness prefix"
    )
    p_witness.add_argument("--r", required=True, help="positive rational threshold")
    p_witness.add_argument("--n", required=True, type=int, help="prefix length")
    p_witness.set_defaults(handler=_cmd_witness)

    p_measure = sub.add_parser("measure", help="measurement accuracy analyses")
    measure_sub = p_measure.add_subparsers(dest="measure_command", required=True)

    p_check = measure_sub.add_parser("check", help="check a structure/assignment JSON file")
    p_check.add_argument("--input", required=True, help="JSON file with structure and assignment")
    p_check.set_defaults(handler=_cmd_measure_check)

    p_feasible = measure_sub.add_parser(
        "feasible-top", help="CSV of minimum feasible top values over a chain-length range"
    )
    p_feasible.add_argument("--n-min", type=int, default=0)
    p_feasible.add_argument("--n-max", type=int, required=True)
    p_feasible.add_argument("--r", required=True, help="positive rational threshold")
    p_feasible.add_argument("--out", default=None, help="output file (default stdout)")
    p_feasible.set_defaults(handler=_cmd_measure_feasible_top)

    p_plateau = measure_sub.add_parser(
        "plateau", help="first index where a monotone sequence's growth drops below tol"
    )
    p_plateau.add_argument("--seq", required=True, help="file with one rational per line")
    p_plateau.add_argument("--tol", required=True, help="positive rational tolerance")
    p_plateau.set_defaults(handler=_cmd_measure_plateau)

    p_bandit = sub.add_parser("bandit", help="run the delayed-gratification environment")
    p_bandit.add_argument("--scheme", default=None, help="laurent | approx:<M> | dynamic:<M>")
    p_bandit.add_argument("--mode", default=None, choices=[MODE_SCRIPTED, MODE_EGREEDY])
    p_bandit.add_argument("--steps", type=int, default=None)
    p_bandit.add_argument("--epsilon", default=None, help="exploration probability (rational)")
    p_bandit.add_argument("--seed", type=int, default=None, help="64-bit generator seed")
    p_bandit.add_argument("--config", default=None, help="JSON file providing the options above")
    p_bandit.add_argument("--out", required=True, help="trace CSV output path")
    p_bandit.set_defaults(handler=_cmd_bandit)

    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(None if argv is None else list(argv))
    try:
        return args.handler(args)
    except OutputError as exc:
        print(f"narch: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InputError, SeriesParseError, ValueError, TypeError) as exc:
        print(f"narch: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
