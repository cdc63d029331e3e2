"""One timed child process: an in-process batch, or a traced run of a workload.

    python bench/child.py run <certify|measure> <input.json> <result.json>
    python bench/child.py trace <workload> <input.json> <result.json>

``run`` loads its inputs through narch's own parsers, then times each op.
It records the monotonic clock (system-wide on Linux, so the parent can
compare it with its own) just before the first timed op; that is where
set-up ends. ``trace`` runs the workload untraced, traced, and untraced
again; a pass includes loading the inputs.
CLI workloads run through ``narch.cli.main`` with stdout captured.
Results go to ``result.json``: outputs (compared by the parent with the
oracles) and timings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import narch
from inputs import frac_text


def _compare(x, y):
    # the kernel may fold compare into compare_scaled; either decides order
    if hasattr(narch, "compare"):
        return narch.compare(x, y)
    return narch.compare_scaled(x, 1, y, 1)


def load_certify(inputs: dict) -> dict:
    certs = [
        (narch.certificate_from_json(c["cert"]), narch.as_rational(c["r"]))
        for c in inputs["certificates"]
    ]
    return {"certs": certs, "cases": inputs["series_cases"]}


def _slices(items: list, parts: int) -> list[list]:
    size = -(-len(items) // parts)
    return [items[k * size:(k + 1) * size] for k in range(parts)]


# Each batch interleaves its two op kinds, a slice of the second after each
# op of the first, so that both see the same machine conditions: on a shared
# machine the CPU speed drifts over seconds.


def run_certify(loaded: dict) -> tuple[dict, dict]:
    decisions, latencies, series = [], [], []
    decide_s = series_s = 0.0
    clock = time.perf_counter
    for (cert, r), cases in zip(loaded["certs"], _slices(loaded["cases"], len(loaded["certs"]))):
        t0 = clock()
        d = narch.decide_affine_sig_prime(cert, r)
        t1 = clock()
        for a_text, b_text, c_text, q_text in cases:
            a, b, c = narch.parse(a_text), narch.parse(b_text), narch.parse(c_text)
            x = narch.add(narch.mul(a, b), narch.scalar_mul(narch.as_rational(q_text), c))
            series.append([_compare(x, narch.mul(a, c)).value, narch.format_series(x)])
        t2 = clock()
        decide_s += t1 - t0
        series_s += t2 - t1
        latencies.append(t1 - t0)
        decisions.append([d.accepted, d.violation_index, d.stabilization_index])
    timing = {
        "primary_ops": len(decisions),
        "primary_s": decide_s,
        "aux_ops": len(series),
        "aux_s": series_s,
        "latencies": latencies,
    }
    return {"decisions": decisions, "series": series}, timing


def load_measure(inputs: dict) -> dict:
    checks = []
    for s in inputs["structures"]:
        structure = narch.structure_from_json(s["structure"])
        for key in ("accurate", "perturbed"):
            checks.append((structure, narch.assignment_from_json(s[key])))
    feasible = inputs["feasible"]
    return {
        "checks": checks,
        "n_max": feasible["n_max"],
        "r": narch.as_rational(feasible["r"]),
        "seq": inputs["plateau"]["seq"],
        "tol": inputs["plateau"]["tol"],
    }


def run_measure(loaded: dict) -> tuple[dict, dict]:
    results, latencies, tops = [], [], []
    checks_s = tops_s = 0.0
    clock = time.perf_counter
    ns = list(range(loaded["n_max"] + 1))
    for (structure, assignment), chunk in zip(loaded["checks"], _slices(ns, len(loaded["checks"]))):
        t0 = clock()
        results.append(narch.is_accurate_measurement(structure, assignment))
        t1 = clock()
        tops.extend(frac_text(narch.min_feasible_top(n, loaded["r"])) for n in chunk)
        t2 = clock()
        checks_s += t1 - t0
        tops_s += t2 - t1
        latencies.append(t1 - t0)
    plateau = narch.diminishing_returns_index(loaded["seq"], loaded["tol"])
    timing = {
        "primary_ops": len(results),
        "primary_s": checks_s,
        "aux_ops": len(tops),
        "aux_s": tops_s,
        "latencies": latencies,
    }
    return {"checks": results, "tops": tops, "plateau": [plateau]}, timing


IN_PROCESS = {"certify": (load_certify, run_certify), "measure": (load_measure, run_measure)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli_configs(configs: list[dict], out_dir: Path, tag: str) -> dict:
    """Each config through ``narch.cli.main``; returns hashes and row counts."""
    import narch.cli

    outputs = {}
    for config in configs:
        csv_path = out_dir / f"{config['name']}-{tag}.csv"
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = narch.cli.main([*config["argv"], "--out", str(csv_path)])
        data = csv_path.read_bytes()
        outputs[config["name"]] = {
            "exit": code,
            "csv_sha256": _sha256(data),
            "summary_sha256": _sha256(captured.getvalue().encode()),
            "rows": data.count(b"\n") - 1,
        }
        csv_path.unlink()
    return outputs


def _timed_pass(workload: str, inputs: dict, out_dir: Path, tag: str) -> tuple[dict, float]:
    start = time.perf_counter()
    if workload in IN_PROCESS:
        load, run = IN_PROCESS[workload]
        outputs = run(load(inputs))[0]
    else:
        outputs = run_cli_configs(inputs["configs"], out_dir, tag)
    return outputs, time.perf_counter() - start


def trace(workload: str, inputs: dict, out_dir: Path) -> dict:
    from tracer import Tracer

    untraced, before_s = _timed_pass(workload, inputs, out_dir, "untraced")
    tracer = Tracer()
    tracer.install(narch)
    try:
        traced, traced_s = _timed_pass(workload, inputs, out_dir, "traced")
    finally:
        tracer.uninstall()
    # a second untraced pass: the first pass in a process runs slower (a cold
    # heap), so comparing against it alone would understate the overhead
    _, after_s = _timed_pass(workload, inputs, out_dir, "untraced")
    metrics = tracer.metrics()
    metrics["cli.rows"] = 0 if workload in IN_PROCESS else sum(o["rows"] for o in traced.values())
    return {
        "untraced": untraced,
        "traced": traced,
        "untraced_s": (before_s + after_s) / 2,
        "traced_s": traced_s,
        "metrics": metrics,
        "absent": tracer.absent,
    }


def main(argv: list[str]) -> int:
    mode, workload, input_path, result_path = argv
    inputs = json.loads(Path(input_path).read_text())
    if mode == "run":
        load, run = IN_PROCESS[workload]
        loaded = load(inputs)
        first_op = time.monotonic()
        outputs, timing = run(loaded)
        result = {"outputs": outputs, "timing": timing, "first_op": first_op}
    else:
        result = trace(workload, inputs, Path(result_path).parent)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
