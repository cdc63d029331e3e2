"""Seeded inputs for every workload: the same seed gives the same inputs.

Workload sizes are fixed; the seed changes only the values (approximation
constants, generator seeds, coefficients, labels, orders), so runs on
different seeds do about the same amount of work and their timings can be
compared.
"""

from __future__ import annotations

import random
from fractions import Fraction

SCRIPTED_STEPS = 40_000
EGREEDY_STEPS = 30_000
EGREEDY_EPSILON = "1/10"

CERTIFICATES = 300
SCAN_MIN, SCAN_MAX = 10, 10_000
SERIES_CASES = 1_500

STRUCTURES = 6
CHAIN_MIN, CHAIN_MAX = 200, 300
FEASIBLE_N_MAX = 700
PLATEAU_LEN = 2_000


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _rational(rng: random.Random, num_max: int = 9, den_max: int = 9) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def _bandit_argv(scheme: str, mode: str, steps: int, extra: list[str]) -> list[str]:
    return ["bandit", "--scheme", scheme, "--mode", mode, "--steps", str(steps), *extra]


def scripted_configs(seed: int) -> list[dict]:
    """The paper's experiment: each reward scheme, scripted, one shared M.

    M is drawn so that the static approximation flips well inside the run
    (crossover_step(M) <= 32001 < SCRIPTED_STEPS for M <= 2000).
    """
    m = _rng("scripted", seed).randint(300, 2000)
    configs = []
    for scheme in ("laurent", f"approx:{m}", f"dynamic:{m}"):
        configs.append(
            {
                "name": scheme.split(":")[0],
                "scheme": scheme,
                "mode": "scripted",
                "steps": SCRIPTED_STEPS,
                "argv": _bandit_argv(scheme, "scripted", SCRIPTED_STEPS, []),
            }
        )
    return configs


def egreedy_configs(seed: int) -> list[dict]:
    """Epsilon-greedy runs, exact and static rewards, seeds from the workload seed."""
    rng = _rng("egreedy", seed)
    m = rng.randint(300, 2000)
    configs = []
    for scheme in ("laurent", f"approx:{m}"):
        agent_seed = rng.getrandbits(64)
        extra = ["--epsilon", EGREEDY_EPSILON, "--seed", str(agent_seed)]
        configs.append(
            {
                "name": scheme.split(":")[0],
                "scheme": scheme,
                "mode": "egreedy",
                "steps": EGREEDY_STEPS,
                "argv": _bandit_argv(scheme, "egreedy", EGREEDY_STEPS, extra),
            }
        )
    return configs


def _series_json(terms: dict[int, Fraction]) -> dict:
    return {"terms": [[e, frac_text(c)] for e, c in sorted(terms.items()) if c != 0]}


def _scan_lengths(count: int) -> list[int]:
    """Evenly spaced quantiles of a truncated Pareto (alpha = 1) on [SCAN_MIN, SCAN_MAX]."""
    span = 1 - SCAN_MIN / SCAN_MAX
    return [round(SCAN_MIN / (1 - k / (count - 1) * span)) for k in range(count)]


def _certificate(rng: random.Random, scan: int, accept: bool) -> dict:
    """An affine-chain certificate whose decision scans ``scan`` indices.

    The chain has frozen order e0 with base coefficient b0 > 0 and step
    s0 >= r, so every element climbs significantly over its predecessor.
    Accepted certificates sit below an upper value of lower order, and a
    non-leading coefficient crossing zero between indices scan-1 and scan
    sets the stabilization index to ``scan``. Rejected ones have an upper
    value at order e0 that the chain reaches at index ``scan``: that is the
    first violation.
    """
    r = _rational(rng, 5, 4)
    e0 = rng.randint(-3, 3)
    b0 = _rational(rng)
    s0 = r + (_rational(rng) if rng.random() < 0.5 else 0)
    base = {e0: b0}
    step = {e0: s0}
    # base-only tail terms: constant in i, they add kernel work but no root
    for e in rng.sample(range(e0 + 3, e0 + 9), 2):
        base[e] = _rational(rng) * rng.choice((1, -1))
    e1 = e0 + rng.randint(1, 2)
    phi = Fraction(rng.randint(1, 9), 10)
    if accept:
        s1 = _rational(rng)
        step[e1] = s1
        base[e1] = -(scan - 1 + phi) * s1
        upper = {e0 - rng.randint(1, 3): _rational(rng)}
        upper[e0 + 1] = _rational(rng) * rng.choice((1, -1))
        violation = None
    else:
        step[e1] = _rational(rng)
        base[e1] = _rational(rng)
        upper = {e0: r + b0 + (scan - 1 + phi) * s0, e0 + 2: _rational(rng)}
        violation = scan
    cert = {
        "lower": _series_json(base),
        "upper": _series_json(upper),
        "chain": {"base": _series_json(base), "step": _series_json(step)},
    }
    return {
        "cert": cert,
        "r": frac_text(r),
        "accepted": accept,
        "violation_index": violation,
        "scan": scan,
    }


def _random_terms(rng: random.Random) -> dict[int, Fraction]:
    exponents = rng.sample(range(-3, 7), rng.randint(4, 5))
    return {e: _rational(rng) * rng.choice((1, -1)) for e in exponents}


def certify_inputs(seed: int) -> dict:
    """Seeded certificates (half accepted) plus a series-algebra sweep.

    Scan lengths are heavy-tailed, and accepted and rejected certificates
    alternate along the sorted lengths, so both kinds see the whole tail.
    The few longest scans dominate the batch's cost, so lengths and kinds
    are the same for every seed and only their order is seeded: one random
    draw for the longest scan would move the batch's cost by a fifth.
    Series operands are 4-5 terms, given as canonical text.
    """
    from oracles import series_text

    rng = _rng("certify", seed)
    kinds = [(scan, k % 2 == 0) for k, scan in enumerate(_scan_lengths(CERTIFICATES))]
    rng.shuffle(kinds)
    certs = [_certificate(rng, scan, accept) for scan, accept in kinds]
    cases = []
    for _ in range(SERIES_CASES):
        a, b, c = (_random_terms(rng) for _ in range(3))
        q = _rational(rng) * rng.choice((1, -1))
        cases.append([series_text(a), series_text(b), series_text(c), frac_text(q)])
    return {"certificates": certs, "series_cases": cases}


def _chain_structure(rng: random.Random, n: int, position: float) -> dict:
    """Chain c_0 << ... << c_{n-1} << top with shuffled labels and element order.

    Returns the structure, an accurate assignment, and a copy with one
    value perturbed so that the first failing row of the check sits at
    ``position`` (a fraction) of the element order.
    """
    labels = [f"e{i}" for i in rng.sample(range(10 * n), n)]
    order = labels + ["top"]
    rng.shuffle(order)
    relation = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)]
    relation += [[label, "top"] for label in labels]
    r = _rational(rng, 5, 5)
    values = {}
    level = Fraction(rng.randint(-50, 50), rng.randint(1, 7))
    for label in labels:
        values[label] = level
        level += r + (0 if rng.random() < 0.5 else _rational(rng, 3, 7))
    values["top"] = level
    # the pair (c_m, c_{m+1}) loses its gap; only the row of c_m then fails
    slot = min(int(position * len(order)), len(order) - 1)
    while order[slot] in ("top", labels[-1]):
        slot -= 1
    m = labels.index(order[slot])
    perturbed = dict(values)
    perturbed[labels[m + 1]] = values[labels[m]] + r / 2
    return {
        "structure": {"elements": order, "relation": relation},
        "accurate": {"values": {k: frac_text(v) for k, v in values.items()}, "r": frac_text(r)},
        "perturbed": {"values": {k: frac_text(v) for k, v in perturbed.items()}, "r": frac_text(r)},
    }


def measure_inputs(seed: int) -> dict:
    """Chain-with-top structures, a feasible-top range, and a plateau sequence."""
    rng = _rng("measure", seed)
    structures = []
    for k in range(STRUCTURES):
        n = CHAIN_MIN + int((CHAIN_MAX - CHAIN_MIN) * (k + rng.random()) / STRUCTURES)
        structures.append(_chain_structure(rng, n, (k + 0.5) / STRUCTURES))
    tol = _rational(rng, 3, 9)
    plateau_at = rng.randint(PLATEAU_LEN // 4, 3 * PLATEAU_LEN // 4)
    seq, value = [], Fraction(rng.randint(0, 9))
    for i in range(PLATEAU_LEN):
        seq.append(frac_text(value))
        value += tol + _rational(rng, 3, 9) if i < plateau_at else tol / rng.randint(2, 5)
    return {
        "structures": structures,
        "feasible": {"n_max": FEASIBLE_N_MAX, "r": frac_text(_rational(rng, 9, 9))},
        "plateau": {"seq": seq, "tol": frac_text(tol), "index": plateau_at},
    }
