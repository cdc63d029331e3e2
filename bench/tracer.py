"""Spans around narch's layer-boundary functions, installed from outside.

The tracer replaces each listed function, wherever a narch module (or the
package itself) holds a reference to it, with a wrapper that opens a span
for the call. Replacing every reference catches the cross-layer calls the
layers make through their imports (``cli`` -> ``bandit``/``laurent``/
``measurement``, ``bandit``/``sig_order`` -> ``laurent``/``rng``) as well as
calls through the package. A function that returns a generator gets one
span per resumption, so lazily produced rows are charged to the layer that
produces them.

Spans are folded into per-name totals as they close: the totals stay in
memory and are read out once, at the end of the traced run. A span's self
time is its duration minus the durations of the spans it directly
encloses. A listed function that no longer exists is reported as absent
and skipped.
"""

from __future__ import annotations

import importlib
import inspect
import time

# metric prefix -> (narch module, attribute path inside that module)
LAYER_FUNCTIONS = {
    "laurent.add": ("laurent", "add"),
    "laurent.scalar_mul": ("laurent", "scalar_mul"),
    "laurent.mul": ("laurent", "mul"),
    "laurent.compare": ("laurent", "compare"),
    "laurent.compare_scaled": ("laurent", "compare_scaled"),
    "laurent.parse": ("laurent", "parse"),
    "laurent.format_series": ("laurent", "format_series"),
    "sig_order.decide_affine_sig_prime": ("sig_order", "decide_affine_sig_prime"),
    "sig_order.sig_less_laurent": ("sig_order", "sig_less_laurent"),
    "measurement.is_accurate_measurement": ("measurement", "is_accurate_measurement"),
    "measurement.min_feasible_top": ("measurement", "min_feasible_top"),
    "measurement.structure_from_json": ("measurement", "structure_from_json"),
    "bandit.scripted_eval": ("bandit", "scripted_eval"),
    "bandit.env_step": ("bandit", "env_step"),
    "bandit.mean_compare": ("bandit", "mean_compare"),
    "bandit.exact_mean": ("bandit", "exact_mean"),
    "bandit.reward_text": ("bandit", "reward_text"),
    "bandit.epsilon_greedy_run": ("bandit", "epsilon_greedy_run"),
    "rng.next_u64": ("rng", "Xorshift64Star.next_u64"),
    "rng.bernoulli": ("rng", "Xorshift64Star.bernoulli"),
    "cli.main": ("cli", "main"),
}

MODULES = ("laurent", "sig_order", "measurement", "bandit", "rng", "cli")


def _resolve(module, path: str):
    """(owner, attribute name, function) for a dotted path, or None if absent."""
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Per-name call counts, self times and counters for one traced run."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in LAYER_FUNCTIONS}
        self.self_s = {name: 0.0 for name in LAYER_FUNCTIONS}
        self.absent: list[str] = []
        self.indices_scanned = 0
        self.decisions = 0
        self.elements_checked = 0
        self.reward_texts: set[str] = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every listed function in every narch namespace that references it."""
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"{package.__name__}.{name}")
            except ModuleNotFoundError:
                modules[name] = None
        namespaces = [package, *(m for m in modules.values() if m is not None)]
        for metric, (module_name, path) in LAYER_FUNCTIONS.items():
            module = modules[module_name]
            found = None if module is None else _resolve(module, path)
            if found is None:
                self.absent.append(metric)
                continue
            owner, name, fn = found
            wrapper = self._wrap(metric, fn)
            targets = [owner] if isinstance(owner, type) else [
                ns for ns in namespaces if ns.__dict__.get(name) is fn
            ]
            for target in targets:
                self._patches.append((target, name, fn))
                setattr(target, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, name, fn = self._patches.pop()
            setattr(target, name, fn)

    def _close(self, name: str, frame: list[float], start: float) -> None:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.self_s[name] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def _wrap(self, name: str, fn):
        hook = {
            "sig_order.decide_affine_sig_prime": self._count_scan,
            "measurement.is_accurate_measurement": self._count_elements,
            "bandit.reward_text": self._collect_text,
        }.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start)
            self.calls[name] += 1
            if hook is not None:
                hook(args, result)
            if inspect.isgenerator(result):
                return self._resumptions(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _resumptions(self, name: str, generator):
        while True:
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._close(name, frame, start)
            yield item

    def _count_scan(self, args, decision) -> None:
        self.decisions += 1
        if decision.accepted:
            self.indices_scanned += decision.stabilization_index + 1
        else:
            self.indices_scanned += decision.violation_index + 1

    def _count_elements(self, args, result) -> None:
        self.elements_checked += len(args[0].elements)

    def _collect_text(self, args, text) -> None:
        self.reward_texts.add(text)

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: ``<name>.calls``, ``<name>.self_s`` and the counters."""
        out: dict[str, float] = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["sig_order.indices_scanned"] = self.indices_scanned
        out["sig_order.scan_per_decision"] = self.indices_scanned / max(self.decisions, 1)
        out["measurement.elements_checked"] = self.elements_checked
        calls = self.calls["bandit.reward_text"]
        out["bandit.reward_text.distinct_frac"] = len(self.reward_texts) / max(calls, 1)
        return out
