"""Self-test of the benchmark's oracles and tracer: corrupted outputs must fail.

    python3 bench/selftest.py

Runs small configs through ``narch.cli.main``, checks that the oracles
pass the true outputs, then feeds them corrupted CSV rows, a wrong
summary, wrong certificate violation indices and a wrong feasible top,
and checks that each one is counted as a failed op. Also checks that the
tracer reports a missing layer function as absent instead of failing.
Exits 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import narch  # noqa: E402
import narch.cli  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
from tracer import LAYER_FUNCTIONS, Tracer  # noqa: E402

STEPS = 400
failures: list[str] = []


def expect(label: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[0] if problems else 'no problems'}")
    if not ok:
        failures.append(label)


def bandit_outputs(work: Path, config: dict) -> tuple[str, str]:
    csv_path = work / f"{config['name']}.csv"
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = narch.cli.main([*config["argv"], "--out", str(csv_path)])
    assert code == 0, f"narch bandit exited {code}"
    return csv_path.read_text(), captured.getvalue()


def corrupt_row(csv_text: str, row: int, column: int, value: str) -> str:
    lines = csv_text.split("\n")
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def _config(scheme: str, mode: str, extra: list[str]) -> dict:
    argv = ["bandit", "--scheme", scheme, "--mode", mode, "--steps", str(STEPS), *extra]
    return {"name": scheme.split(":")[0], "scheme": scheme, "mode": mode, "steps": STEPS,
            "argv": argv}


def check_bandit(work: Path) -> None:
    # M = 20 makes the static flip land inside the short run (at step 161)
    for scheme in ("laurent", "approx:20", "dynamic:20"):
        config = _config(scheme, "scripted", [])
        csv_text, summary = bandit_outputs(work, config)

        def check(csv_text: str, summary: str) -> list[str]:
            return oracles.check_scripted(config, csv_text, summary, narch.crossover_step)

        name = f"scripted {scheme}"
        expect(f"{name} true outputs", check(csv_text, summary), False)
        corrupted = corrupt_row(csv_text, 150, 4, "7/3")
        expect(f"{name} corrupted blue_mean", check(corrupted, summary), True)
        expect(f"{name} missing last row", check(csv_text.rsplit("\n", 2)[0] + "\n", summary), True)
        wrong_flip = summary.replace('"flip_step": null', '"flip_step": 3').replace(
            '"flip_step": 161', '"flip_step": 162')
        expect(f"{name} wrong flip_step", check(csv_text, wrong_flip), True)
    for scheme in ("laurent", "approx:20"):
        config = _config(scheme, "egreedy", ["--epsilon", "1/10", "--seed", "7"])
        csv_text, summary = bandit_outputs(work, config)
        name = f"egreedy {scheme}"
        expect(f"{name} true outputs", oracles.check_egreedy(config, csv_text, summary), False)
        arm = csv_text.split("\n")[200].split(",")[1]
        for column, value in ((1, "red" if arm == "blue" else "blue"), (2, "5"), (3, "2/3"),
                              (4, "9/7"), (5, "purple")):
            corrupted = corrupt_row(csv_text, 200, column, value)
            expect(f"{name} corrupted column {column} of row 200",
                   oracles.check_egreedy(config, corrupted, summary), True)


def check_certify() -> None:
    data = inputs.certify_inputs(0)
    data["certificates"] = data["certificates"][:12]
    data["series_cases"] = data["series_cases"][:20]
    expected = oracles.certify_expected(data)
    laws = oracles.certify_law_problems(narch, data)
    expect("certify laws on true inputs", [p for ps in laws for p in ps], False)
    outputs = {"decisions": [list(d) for d in expected["decisions"]], "series": expected["series"]}
    attempted, failed, problems = oracles.op_failures(outputs, expected)
    expect("certify true outputs", problems, False)
    rejected = next(i for i, c in enumerate(data["certificates"]) if not c["accepted"])
    outputs["decisions"][rejected][1] += 1
    attempted, failed, problems = oracles.op_failures(outputs, expected)
    expect("certify wrong violation index", problems, True)
    assert failed == 1, failed
    data["certificates"][rejected]["violation_index"] -= 1
    laws = oracles.certify_law_problems(narch, data)
    expect("brute force against a wrong violation index", laws[rejected], True)
    outputs = {"decisions": expected["decisions"], "series": [list(s) for s in expected["series"]]}
    outputs["series"][3][1] += " + 1 eps^40"
    expect("certify wrong series text", oracles.op_failures(outputs, expected)[2], True)


def check_measure() -> None:
    data = inputs.measure_inputs(0)
    expected = oracles.measure_expected(data)
    outputs = {k: list(v) for k, v in expected.items()}
    expect("measure true outputs", oracles.op_failures(outputs, expected)[2], False)
    outputs["tops"][10] = "1/1"
    outputs["checks"][1] = True
    attempted, failed, problems = oracles.op_failures(outputs, expected)
    expect("measure wrong top and wrong verdict", problems, True)
    assert failed == 2, failed


def check_tracer() -> None:
    removed = {m: m.__dict__.pop("env_step") for m in (narch, narch.bandit)}
    LAYER_FUNCTIONS["laurent.no_such_function"] = ("laurent", "no_such_function")
    tracer = Tracer()
    try:
        tracer.install(narch)
        with contextlib.redirect_stdout(io.StringIO()):
            narch.cli.main(["compare", "--lhs", "1 eps^1", "--rhs", "0"])
    finally:
        tracer.uninstall()
        del LAYER_FUNCTIONS["laurent.no_such_function"]
        for module, fn in removed.items():
            module.env_step = fn
    absent = {"bandit.env_step", "laurent.no_such_function"}
    expect("tracer reports missing functions as absent",
           [] if set(tracer.absent) == absent else [f"absent = {tracer.absent}"], False)
    expect("tracer counts a wrapped call",
           [] if tracer.calls["cli.main"] == 1 and tracer.calls["laurent.parse"] == 2
           else [f"calls = {tracer.calls}"], False)


def main() -> int:
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_bandit(work)
        check_certify()
        check_measure()
        check_tracer()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(f"{len(failures)} self-test case(s) failed" if failures else "all self-test cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
