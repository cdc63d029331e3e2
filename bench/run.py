"""narch benchmark: four workloads, checked outputs, per-child RSS, a traced run.

    python3 bench/run.py --workload <scripted|egreedy|certify|measure>
                         --seed N --seconds S --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``. Every timed run is one child process, started only after the
previous one has been reaped (closed loop, one client, nothing in
parallel). ``scripted`` and ``egreedy`` time ``python -m narch bandit``
invocations; ``certify`` and ``measure`` time batches of library calls in
``bench/child.py``. Inputs come from ``--seed`` only. Outputs are checked
against the oracles in ``bench/oracles.py`` after timing; every mismatch
is a failed op. Peak RSS is each child's own, from ``os.wait4``.

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it is the per-layer result of a traced in-process run (see
``bench/tracer.py``). Lines before it are a readable report. See
``bench/README.md`` for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
MIN_CLI_CYCLES = 3
MIN_CHILDREN = 4
PROBE_ARGV = ["compare", "--lhs", "0", "--rhs", "0"]
REFERENCE_ITERATIONS = 25_000
REFERENCE_NOMINAL_S = 0.1


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: Fraction arithmetic, dict stores, str."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(REFERENCE_ITERATIONS):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        seen[i % 97, i % 89] = str(acc.numerator % 1000)
    return time.perf_counter() - start


class Child:
    """Outcome of one reaped child process.

    ``slowdown`` is how slow the machine ran while the child ran: the mean
    time of the reference loop just before and just after the child, over
    REFERENCE_NOMINAL_S. The CPU speed of a shared machine drifts by tens
    of percent within seconds, for the program and the reference loop
    alike, so a time divided by ``slowdown`` keeps the program's own cost
    and loses most of the drift (see README.md).
    """

    def __init__(self, wall_s: float, spawned: float, exit_code: int, rss_mb: float) -> None:
        self.wall_s = wall_s
        self.spawned = spawned
        self.exit_code = exit_code
        self.rss_mb = rss_mb
        self.slowdown = 1.0

    @property
    def nominal_s(self) -> float:
        return self.wall_s / self.slowdown


def run_child(argv: list[str], stdout_path: Path, env: dict) -> Child:
    """Start one process, wait for it with ``os.wait4`` and take its own peak RSS.

    ``getrusage(RUSAGE_CHILDREN)`` would be a running maximum over every
    child reaped so far; the rusage of ``wait4`` belongs to this child only.
    A child that outlives CHILD_TIMEOUT_S is killed.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        reaped = threading.Lock()
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_unreaped, (proc.pid, reaped))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.monotonic() - spawned
        finally:
            with reaped:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s, spawned, proc.returncode, usage.ru_maxrss / 1024)


def _kill_unreaped(pid: int, reaped: threading.Lock) -> None:
    with reaped:
        os.kill(pid, signal.SIGKILL)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _err_tail(path: Path) -> str:
    err = path.with_suffix(".err")
    return err.read_text(errors="replace")[-2000:] if err.exists() else ""


class Context:
    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(BENCH), os.environ.get("PYTHONPATH", "")) if p
        )
        self.env["PYTHONHASHSEED"] = "0"
        self.report: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._reference_before = reference_s()

    def run(self, argv: list[str], stdout_path: Path) -> Child:
        """Run one child between two runs of the reference loop."""
        child = run_child(argv, stdout_path, self.env)
        after = reference_s()
        child.slowdown = (self._reference_before + after) / 2 / REFERENCE_NOMINAL_S
        self._reference_before = after
        return child

    def narch(self, args: list[str], stdout_path: Path) -> Child:
        return self.run([sys.executable, "-m", "narch", *args], stdout_path)

    def bench_child(self, mode: str, input_path: Path, result_path: Path) -> dict:
        """Run bench/child.py; returns its result with the Child under "child"."""
        child = self.run(
            [sys.executable, str(BENCH / "child.py"), mode, self.workload,
             str(input_path), str(result_path)],
            self.work / "child.out",
        )
        if child.exit_code != 0 or not result_path.exists():
            raise RuntimeError(f"{mode} child failed:\n{_err_tail(self.work / 'child.out')}")
        return dict(json.loads(result_path.read_text()), child=child)

    def count(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])

    def warm_up(self) -> None:
        """One untimed invocation, so byte-compiled modules exist before timing."""
        child = self.narch(PROBE_ARGV, self.work / "warmup.out")
        if child.exit_code != 0:
            raise RuntimeError(f"narch does not start:\n{_err_tail(self.work / 'warmup.out')}")


def _median(values: list[float]) -> float:
    return statistics.median(values)


class Loop:
    """Repeats until one more repeat would run past ``seconds``, at least ``minimum`` times."""

    def __init__(self, seconds: float, minimum: int) -> None:
        self.start = time.monotonic()
        self.seconds = seconds
        self.minimum = minimum
        self.count = 0

    def again(self) -> bool:
        elapsed = time.monotonic() - self.start
        if self.count >= self.minimum and elapsed + elapsed / max(self.count, 1) > self.seconds:
            return False
        self.count += 1
        return True


def _configs(workload: str, seed: int) -> list[dict]:
    import inputs

    return inputs.scripted_configs(seed) if workload == "scripted" else inputs.egreedy_configs(seed)


def _check_cli(config: dict, csv_path: Path, summary_path: Path) -> list[str]:
    import narch
    import oracles

    csv_text = csv_path.read_text()
    summary_text = summary_path.read_text()
    if config["mode"] == "scripted":
        return oracles.check_scripted(config, csv_text, summary_text, narch.crossover_step)
    return oracles.check_egreedy(config, csv_text, summary_text)


def cli_workload(ctx: Context) -> dict:
    """Cycles of one no-work probe plus one invocation per pinned config."""
    configs = _configs(ctx.workload, ctx.seed)
    ctx.warm_up()
    probes: list[Child] = []
    probe_ok: list[bool] = []
    runs: dict[str, list[Child]] = {c["name"]: [] for c in configs}
    hashes: dict[str, list[tuple[str, str]]] = {c["name"]: [] for c in configs}
    loop = Loop(ctx.seconds, MIN_CLI_CYCLES)
    cycle = 0
    while loop.again():
        probe_out = ctx.work / "probe.out"
        probes.append(ctx.narch(PROBE_ARGV, probe_out))
        probe_ok.append(probes[-1].exit_code == 0 and probe_out.read_text() == "equal\n")
        for config in configs:
            csv_path = ctx.work / f"{config['name']}-{cycle}.csv"
            summary_path = ctx.work / f"{config['name']}-{cycle}.json"
            child = ctx.narch([*config["argv"], "--out", str(csv_path)], summary_path)
            runs[config["name"]].append(child)
            if child.exit_code != 0 or not csv_path.exists():
                hashes[config["name"]].append(("", ""))
                ctx.problems.append(f"{config['name']}: exit {child.exit_code}: "
                                    f"{_err_tail(summary_path)}")
                continue
            hashes[config["name"]].append((_sha256(csv_path), _sha256(summary_path)))
            if cycle > 0:
                csv_path.unlink()
        cycle += 1

    for ok in probe_ok:
        ctx.count([] if ok else ["no-work probe did not print 'equal'"], "probe")
    deterministic = True
    for config in configs:
        name = config["name"]
        first = hashes[name][0]
        problems = []
        if first[0]:
            first_csv, first_summary = ctx.work / f"{name}-0.csv", ctx.work / f"{name}-0.json"
            problems = _check_cli(config, first_csv, first_summary)
        ctx.count(problems or ([] if first[0] else ["invocation failed"]), name)
        for later in hashes[name][1:]:
            same = later == first and bool(first[0])
            deterministic &= same
            ctx.count([] if same else ["output bytes differ from the first invocation"], name)
        ctx.report.append(
            f"  config {name:8s} {' '.join(config['argv'])}\n"
            f"    csv sha256 {first[0]}\n    summary sha256 {first[1]}"
        )

    rows = {c["name"]: c["steps"] for c in configs}
    rational = [n for n in rows if n != "laurent"]
    medians = {
        attr: {n: _median([getattr(c, attr) for c in children]) for n, children in runs.items()}
        for attr in ("nominal_s", "wall_s")
    }
    med = medians["nominal_s"]
    metrics = {
        "setup_s": (_median([p.nominal_s for p in probes]), "s"),
        "run_s": (sum(med.values()), "s"),
        "ops_per_s": (sum(rows.values()) / sum(med.values()), "1/s"),
        "aux_ops_per_s": (rows["laurent"] / med["laurent"], "1/s"),
        "peak_rss_mb": (max(_median([c.rss_mb for c in ch]) for ch in runs.values()), "MB"),
    }
    lines = [f"  {cycle} cycles of a no-work probe and {len(configs)} invocations"]
    for attr, label in (("nominal_s", "nominal"), ("wall_s", "raw")):
        m = medians[attr]
        lines += [
            f"  {label:7s} rows_per_s {sum(rows.values()) / sum(m.values()):.1f} 1/s (laurent "
            f"{rows['laurent'] / m['laurent']:.1f}, rational "
            f"{sum(rows[n] for n in rational) / sum(m[n] for n in rational):.1f})",
            f"  {label:7s} run_s {sum(m.values()):.4f} s ("
            + ", ".join(f"{n} {m[n]:.4f}" for n in m) + ")",
            f"  {label:7s} setup_s {_median([getattr(p, attr) for p in probes]):.4f} s"
            f" (no-work `narch {' '.join(PROBE_ARGV)}`)",
        ]
    lines += [
        f"  peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB (per child, max over configs)",
        f"  slowdown {_median([c.slowdown for ch in runs.values() for c in ch]):.3f}"
        " (reference loop time / nominal, median)",
    ]
    ctx.report[:0] = lines
    return {"metrics": metrics, "deterministic": deterministic}


def _inproc_inputs(workload: str, seed: int) -> tuple[dict, dict]:
    import inputs
    import oracles

    if workload == "certify":
        data = inputs.certify_inputs(seed)
        return data, oracles.certify_expected(data)
    data = inputs.measure_inputs(seed)
    return data, oracles.measure_expected(data)


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def inproc_workload(ctx: Context) -> dict:
    """Repeated child batches on one seeded input set; each child is timed."""
    import narch
    import oracles

    data, expected = _inproc_inputs(ctx.workload, ctx.seed)
    input_path = ctx.work / "inputs.json"
    input_path.write_text(json.dumps(data))
    ctx.warm_up()
    results: list[dict] = []
    loop = Loop(ctx.seconds, MIN_CHILDREN)
    while loop.again():
        results.append(ctx.bench_child("run", input_path, ctx.work / f"result-{len(results)}.json"))

    digests = set()
    for i, result in enumerate(results):
        attempted, failed, problems = oracles.op_failures(result["outputs"], expected)
        ctx.attempted += attempted
        ctx.failed += failed
        ctx.problems.extend(f"child {i}: {p}" for p in problems)
        digests.add(hashlib.sha256(json.dumps(result["outputs"]).encode()).hexdigest())
    if ctx.workload == "certify":
        for i, problems in enumerate(oracles.certify_law_problems(narch, data)):
            ctx.count(problems, f"law {i}")

    children = [r["child"] for r in results]
    timings = [r["timing"] for r in results]
    setups = [r["first_op"] - r["child"].spawned for r in results]
    nominal_setups = [s / c.slowdown for s, c in zip(setups, children)]

    def rate(kind: str, nominal: bool = True) -> float:
        return _median([
            t[f"{kind}_ops"] / t[f"{kind}_s"] * (c.slowdown if nominal else 1.0)
            for t, c in zip(timings, children)
        ])

    primary, aux = rate("primary"), rate("aux")
    per_op = [_median(lat) for lat in zip(*(t["latencies"] for t in timings))]
    metrics = {
        "setup_s": (_median(nominal_setups), "s"),
        "run_s": (_median([c.nominal_s for c in children]), "s"),
        "ops_per_s": (primary, "1/s"),
        "aux_ops_per_s": (aux, "1/s"),
        "peak_rss_mb": (_median([c.rss_mb for c in children]), "MB"),
    }
    names = {
        "certify": ("decisions_per_s", "series_ops_per_s", "decide"),
        "measure": ("checks_per_s", "feasible_tops_per_s", "check"),
    }[ctx.workload]
    ctx.report[:0] = [
        f"  {len(results)} children, "
        f"{timings[0]['primary_ops']} + {timings[0]['aux_ops']} ops each",
        f"  nominal {names[0]} {primary:.2f} 1/s, {names[1]} {aux:.2f} 1/s",
        f"  raw     {names[0]} {rate('primary', False):.2f} 1/s, "
        f"{names[1]} {rate('aux', False):.2f} 1/s",
        f"  raw {names[2]}_p50_us {_percentile(per_op, 50) * 1e6:.1f} us, "
        f"{names[2]}_p99_us {_percentile(per_op, 99) * 1e6:.1f} us "
        f"(median over children per op, then over {len(per_op)} ops)",
        f"  run_s (nominal)      {metrics['run_s'][0]:.4f} s, raw "
        f"{_median([c.wall_s for c in children]):.4f} s (child start to exit)",
        f"  setup_s (nominal)    {metrics['setup_s'][0]:.4f} s, raw {_median(setups):.4f} s"
        " (child start to first timed op)",
        f"  peak_rss_mb          {metrics['peak_rss_mb'][0]:.1f} MB",
        f"  slowdown             {_median([c.slowdown for c in children]):.3f}"
        " (median reference loop time / nominal)",
        f"  outputs sha256       {sorted(digests)[0]}",
    ]
    return {"metrics": metrics, "deterministic": len(digests) == 1}


def trace_workload(ctx: Context) -> dict:
    """Traced in-process runs; per-layer calls, self time, counters and overhead."""
    import oracles
    from tracer import LAYER_FUNCTIONS

    if ctx.workload in ("scripted", "egreedy"):
        configs = _configs(ctx.workload, ctx.seed)
        data, expected = {"configs": configs}, None
        ctx.warm_up()
        reference = {}
        for config in configs:
            csv_path = ctx.work / f"{config['name']}.csv"
            summary_path = ctx.work / f"{config['name']}.json"
            child = ctx.narch([*config["argv"], "--out", str(csv_path)], summary_path)
            ok = child.exit_code == 0 and csv_path.exists()
            problems = _check_cli(config, csv_path, summary_path) if ok else [
                f"exit {child.exit_code}: {_err_tail(summary_path)}"]
            ctx.count(problems, f"{config['name']} subprocess")
            reference[config["name"]] = (_sha256(csv_path), _sha256(summary_path)) if ok else ("", "")
    else:
        data, expected = _inproc_inputs(ctx.workload, ctx.seed)
        ctx.warm_up()
    input_path = ctx.work / "inputs.json"
    input_path.write_text(json.dumps(data))

    results = []
    loop = Loop(ctx.seconds, 1)
    while loop.again():
        result_path = ctx.work / f"trace-{len(results)}.json"
        results.append(ctx.bench_child("trace", input_path, result_path))

    identical = True
    for i, result in enumerate(results):
        for tag in ("untraced", "traced"):
            outputs = result[tag]
            if expected is not None:
                attempted, failed, problems = oracles.op_failures(outputs, expected)
                ctx.attempted += attempted
                ctx.failed += failed
                ctx.problems.extend(f"trace {i} {tag}: {p}" for p in problems)
                continue
            for name, (csv_hash, summary_hash) in reference.items():
                got = outputs[name]
                same = (got["exit"], got["csv_sha256"], got["summary_sha256"]) == (
                    0, csv_hash, summary_hash)
                identical &= same
                ctx.count([] if same else ["in-process bytes differ from the subprocess run"],
                          f"trace {i} {tag} {name}")
        identical &= result["untraced"] == result["traced"]

    first = results[0]["metrics"]
    metrics = {}
    for name in first:
        if name.endswith(".self_s"):
            metrics[name] = (_median([r["metrics"][name] for r in results]), "s")
        else:
            metrics[name] = (first[name], "ratio" if name.endswith("_frac") else "count")
    overhead = _median([r["traced_s"] / r["untraced_s"] for r in results])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    absent = sorted({a for r in results for a in r["absent"]})
    ctx.report[:0] = [
        f"  {len(results)} traced children; traced {results[0]['traced_s']:.3f} s vs "
        f"untraced {results[0]['untraced_s']:.3f} s (overhead ratio {overhead:.3f})",
        f"  absent layer functions: {', '.join(absent) or 'none'}",
        *(f"  {name:45s} calls {metrics[name + '.calls'][0]:>9} self "
          f"{metrics[name + '.self_s'][0]:.4f} s"
          for name in LAYER_FUNCTIONS),
        *(f"  {name:45s} {value:.4f} {unit}"
          for name, (value, unit) in metrics.items()
          if not name.endswith((".calls", ".self_s"))),
    ]
    return {"metrics": metrics, "deterministic": identical}


WORKLOADS = ("scripted", "egreedy", "certify", "measure")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "narch" / "__init__.py").is_file():
        print(f"bench: no narch sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    ctx = Context(args.workload, args.seed, args.seconds)
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcome = trace_workload(ctx)
        elif args.workload in ("scripted", "egreedy"):
            outcome = cli_workload(ctx)
        else:
            outcome = inproc_workload(ctx)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        if ctx.work.parent.exists() and not any(ctx.work.parent.iterdir()):
            ctx.work.parent.rmdir()

    deterministic = outcome["deterministic"]
    failed_frac = ctx.failed / max(ctx.attempted, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(ctx.report))
    print(f"  ops_failed_frac      {failed_frac:.6f} ({ctx.failed} of {ctx.attempted} ops)")
    print(f"  determinism_ok       {int(deterministic)}")
    for problem in ctx.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": ctx.failed == 0 and deterministic,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
