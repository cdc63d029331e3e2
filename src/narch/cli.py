"""Command-line harness: compare, witness, measure, bandit.

Every value printed or written is exact text (series grammar or num/den
rationals); nothing is ever formatted through floating point, so outputs
are platform-independent and reruns with identical inputs are
byte-identical. Exit codes: 0 success, 2 invalid input, 3 output I/O
failure, including a failed write to stdout such as a closed pipe.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from typing import TYPE_CHECKING, ContextManager, Iterable, Iterator, Optional, TextIO

# Only the kernel is imported here. Each other layer, and json, is imported
# inside the handlers that use it, so a run loads (and, without bytecode
# caches, compiles) only its own layers.
from .laurent import _BLANK_CHARS, SeriesParseError, as_rational, compare, format_series, parse

if TYPE_CHECKING:
    from .bandit import RunConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

class InputError(Exception):
    pass


class OutputError(Exception):
    pass


def _integer_flag(text: str) -> int:
    """The grammar's ``["-"] digits`` in ASCII; ``int`` would also read ``1_0`` or ``٢``."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's int-from-text digit limit
        raise argparse.ArgumentTypeError(f"too many digits: {len(text)}") from None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json_file(path: str) -> object:
    import json

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        # json.loads alone would keep the last of two equal keys
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"invalid JSON in {path}: duplicate key {json.dumps(key)}")
            obj[key] = value
        return obj

    text = _read_text(path)
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise InputError(f"invalid JSON in {path}: nested too deeply") from None


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


def _text_output(path: Optional[str]) -> ContextManager[TextIO]:
    """A text handle for CSV lines: stdout, or an atomic output when ``path`` is given."""
    return contextlib.nullcontext(sys.stdout) if path is None else _atomic_output(path)


def _cmd_compare(args: argparse.Namespace) -> int:
    lhs = parse(args.lhs)
    rhs = parse(args.rhs)
    print(compare(lhs, rhs).value)
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    import json

    from .sig_order import laurent_nonarch_witness, verify_nonarch_prefix

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
    import json

    from .measurement import assignment_from_json, is_accurate_measurement, structure_from_json

    obj = _load_json_file(args.input)
    if not isinstance(obj, dict) or "structure" not in obj or "assignment" not in obj:
        raise InputError("measure input must have 'structure' and 'assignment' objects")
    structure = structure_from_json(obj["structure"])
    assignment = assignment_from_json(obj["assignment"])
    accurate = is_accurate_measurement(structure, assignment)
    print(json.dumps({"accurate": accurate}))
    return EXIT_OK


def _cmd_measure_feasible_top(args: argparse.Namespace) -> int:
    from .measurement import min_feasible_top

    r = as_rational(args.r)
    if args.n_min < 0 or args.n_max < args.n_min:
        raise InputError("need 0 <= n-min <= n-max")
    min_feasible_top(args.n_min, r)  # rejects a bad r before any row is written
    with _text_output(args.out) as out:
        out.write("n,min_top\n")
        for n in range(args.n_min, args.n_max + 1):
            out.write(f"{n},{min_feasible_top(n, r)}\n")
    return EXIT_OK


def _cmd_measure_plateau(args: argparse.Namespace) -> int:
    import json

    from .measurement import diminishing_returns_index

    # split on LF only: str.splitlines would also split inside a line at \f, \v or \x1c;
    # strip the grammar's ASCII blanks only: str.strip would also drop NBSP or U+3000
    lines = [line.strip(_BLANK_CHARS) for line in _read_text(args.seq).split("\n")]
    # the library reads the text as rationals, --tol before any line
    index = diminishing_returns_index([line for line in lines if line], args.tol)
    print(json.dumps({"index": index}))
    return EXIT_OK


_BANDIT_OPTIONS = ("scheme", "mode", "steps", "epsilon", "seed")


def _bandit_config(args: argparse.Namespace) -> RunConfig:
    import json

    from .bandit import RewardScheme, RunConfig

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
        epsilon=values.get("epsilon", 0),
        seed=values.get("seed", 0),
    )


def _cmd_bandit(args: argparse.Namespace) -> int:
    import json

    from .bandit import write_trace

    config = _bandit_config(args)
    with _text_output(args.out) as out:
        flip_step, final_preference = write_trace(config, out)
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
    p_witness.add_argument("--n", required=True, type=_integer_flag, help="prefix length")
    p_witness.set_defaults(handler=_cmd_witness)

    p_measure = sub.add_parser("measure", help="measurement accuracy analyses")
    measure_sub = p_measure.add_subparsers(dest="measure_command", required=True)

    p_check = measure_sub.add_parser("check", help="check a structure/assignment JSON file")
    p_check.add_argument("--input", required=True, help="JSON file with structure and assignment")
    p_check.set_defaults(handler=_cmd_measure_check)

    p_feasible = measure_sub.add_parser(
        "feasible-top", help="CSV of minimum feasible top values over a chain-length range"
    )
    p_feasible.add_argument("--n-min", type=_integer_flag, default=0)
    p_feasible.add_argument("--n-max", type=_integer_flag, required=True)
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
    p_bandit.add_argument("--mode", default=None, help="scripted | egreedy")
    p_bandit.add_argument("--steps", type=_integer_flag, default=None)
    p_bandit.add_argument("--epsilon", default=None, help="exploration probability (rational)")
    p_bandit.add_argument("--seed", type=_integer_flag, default=None, help="64-bit generator seed")
    p_bandit.add_argument("--config", default=None, help="JSON file providing the options above")
    p_bandit.add_argument("--out", required=True, help="trace CSV output path")
    p_bandit.set_defaults(handler=_cmd_bandit)

    return parser


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # an in-process caller's StringIO has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(None if argv is None else list(argv))
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except OutputError as exc:
        print(f"narch: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:  # reads raise InputError and --out writes OutputError
        _discard_stdout()
        print(f"narch: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InputError, SeriesParseError, ValueError, TypeError) as exc:
        print(f"narch: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
