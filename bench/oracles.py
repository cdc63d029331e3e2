"""Output oracles for every workload, independent of the code they check.

Series values are parsed and formatted here by the documented text
grammar, and sums, means and products are recomputed with plain
``Fraction`` arithmetic on exponent -> coefficient dicts. The program is
called only where the check is a law about the program itself (brute-force
certificate scans, round trips, the distributive law), and then only
through names exported by ``narch``.

Every check returns a list of problems; an empty list means the output is
correct. Callers count one failed op per output that has any problem.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

Series = dict  # exponent -> nonzero Fraction

CSV_HEADER = "step,arm,reward,red_mean,blue_mean,preferred"
_TERM = re.compile(r"\s*(-?)(\d+)(?:/(\d+))?(?:\s*eps\^(-?\d+))?\s*")
_MAX_PROBLEMS = 5


def series_value(text: str) -> Series:
    """Parse series text (``term (("+"|"-") term)*``) into a coefficient dict."""
    terms: Series = {}
    pos, sign = 0, 1
    while True:
        match = _TERM.match(text, pos)
        if match is None or match.end() == pos:
            raise ValueError(f"bad series text {text!r} at {pos}")
        neg, num, den, exp = match.groups()
        coeff = Fraction(int(num), int(den or 1)) * (-sign if neg else sign)
        exponent = int(exp or 0)
        total = terms.get(exponent, 0) + coeff
        if total:
            terms[exponent] = total
        else:
            terms.pop(exponent, None)
        pos = match.end()
        if pos == len(text):
            return terms
        if text[pos] not in "+-":
            raise ValueError(f"bad series text {text!r} at {pos}")
        sign = 1 if text[pos] == "+" else -1
        pos += 1


def series_text(terms: Series) -> str:
    """Canonical text: ascending exponents, first coefficient signed, then +/-."""
    items = sorted((e, c) for e, c in terms.items() if c)
    if not items:
        return "0"
    (e0, c0), rest = items[0], items[1:]
    return f"{c0} eps^{e0}" + "".join(
        f" {'+' if c > 0 else '-'} {abs(c)} eps^{e}" for e, c in rest
    )


def series_add(a: Series, b: Series) -> Series:
    out = dict(a)
    for e, c in b.items():
        total = out.get(e, 0) + c
        if total:
            out[e] = total
        else:
            out.pop(e, None)
    return out


def series_scale(q: Fraction, a: Series) -> Series:
    return {e: q * c for e, c in a.items()} if q else {}


def series_mul(a: Series, b: Series) -> Series:
    out: Series = {}
    for ea, ca in a.items():
        out = series_add(out, {ea + eb: ca * cb for eb, cb in b.items()})
    return out


def series_sign(a: Series) -> int:
    """Sign of a series: that of its coefficient at the smallest exponent."""
    if not a:
        return 0
    return 1 if a[min(a)] > 0 else -1


def ordering(a: Series, b: Series) -> str:
    sign = series_sign(series_add(a, series_scale(Fraction(-1), b)))
    return ("less", "equal", "greater")[sign + 1]


def _scheme(text: str) -> tuple[str, Optional[Fraction]]:
    if text == "laurent":
        return "laurent", None
    kind, _, m = text.partition(":")
    return ("static" if kind == "approx" else "dynamic"), Fraction(m)


def _load_summary(summary_text: str, problems: list[str]) -> dict:
    try:
        summary = json.loads(summary_text)
    except ValueError:
        problems.append("summary is not JSON")
        return {}
    if not isinstance(summary, dict):
        problems.append("summary is not a JSON object")
        return {}
    return summary


def _rows(csv_text: str, steps: int, problems: list[str]) -> list[str]:
    lines = csv_text.split("\n")
    if lines[0] != CSV_HEADER:
        problems.append(f"bad header {lines[0]!r}")
    if lines[-1] != "" or len(lines) != steps + 2:
        problems.append(f"expected {steps} LF-terminated rows, found {len(lines) - 2}")
    return lines[1:-1]


def check_scripted(config: dict, csv_text: str, summary_text: str, crossover_step) -> list[str]:
    """Every row against the closed forms, plus the summary's flip and preference.

    After n paired rounds the red total is n units and the blue total is
    (floor(log2 n)+1) eps^-1, M (floor(log2 n)+1) or M (2^(floor(log2 n)+1) - 1)
    for the exact, static and dynamic schemes. ``crossover_step`` is the
    program's own prediction of the static flip, which must agree too.
    """
    problems: list[str] = []
    kind, m = _scheme(config["scheme"])
    steps = config["steps"]
    rows = _rows(csv_text, steps, problems)
    red_mean = "1 eps^0" if kind == "laurent" else "1"
    flip = None
    preferred = "red"
    for n, line in enumerate(rows[:steps], 1):
        jackpots = n.bit_length()
        jackpot_now = n & (n - 1) == 0
        if kind == "laurent":
            reward = "1 eps^-1" if jackpot_now else "0"
            blue_mean = f"{Fraction(jackpots, n)} eps^-1"
            preferred = "blue"
        else:
            if kind == "static":
                total, prize = m * jackpots, m
            else:
                total, prize = m * ((1 << jackpots) - 1), m * (1 << (jackpots - 1))
            reward = str(prize) if jackpot_now else "0"
            blue_mean = str(total / n)
            preferred = "blue" if total > n else "red"
            if flip is None and total < n:
                flip = n
        expected = f"{n},blue,{reward},{red_mean},{blue_mean},{preferred}"
        if line != expected:
            problems.append(f"row {n}: {line!r} != {expected!r}")
            if len(problems) >= _MAX_PROBLEMS:
                break
    summary = _load_summary(summary_text, problems)
    if summary.get("steps") != steps or summary.get("scheme") != config["scheme"]:
        problems.append("summary scheme/steps do not echo the config")
    if summary.get("flip_step") != flip:
        problems.append(f"flip_step {summary.get('flip_step')} != closed form {flip}")
    if kind == "static":
        predicted = crossover_step(m)
        if (predicted if predicted is not None and predicted <= steps else None) != flip:
            problems.append(f"crossover_step({m}) = {predicted} != closed form {flip}")
    if summary.get("final_preference") != preferred:
        problems.append(f"final_preference {summary.get('final_preference')} != {preferred}")
    return problems


def _mean_value(kind: str, total, count: int):
    if kind == "laurent":
        return series_scale(Fraction(1, count), total)
    return total / count


def _greater(kind: str, sum_a, n_a: int, sum_b, n_b: int) -> bool:
    """sum_a/n_a > sum_b/n_b, by cross-multiplication."""
    if kind == "laurent":
        diff = series_add(series_scale(Fraction(n_b), sum_a), series_scale(Fraction(-n_a), sum_b))
        return series_sign(diff) > 0
    return sum_a * n_b > sum_b * n_a


def check_egreedy(config: dict, csv_text: str, summary_text: str) -> list[str]:
    """Recompute running sums from the reward column; every mean cell must match.

    Also checks the forced first two pulls, that red always pays the unit
    and blue pays exactly on power-of-two press counts, the greedy
    preference in every row, and the summary's flip step and preference.
    """
    problems: list[str] = []
    kind, m = _scheme(config["scheme"])
    steps = config["steps"]
    rows = _rows(csv_text, steps, problems)
    value_of = series_value if kind == "laurent" else Fraction
    zero = {} if kind == "laurent" else Fraction(0)
    sums = {"red": zero, "blue": zero}
    counts = {"red": 0, "blue": 0}
    cells = {"red": "", "blue": ""}
    rewards: dict[str, object] = {}
    previous_pref, flip, pref = None, None, "red"
    for n, line in enumerate(rows[:steps], 1):
        fields = line.split(",")
        if len(fields) != 6:
            problems.append(f"row {n}: {len(fields)} fields")
            break
        step, arm, reward_cell, red_cell, blue_cell, pref = fields
        if step != str(n) or arm not in sums or (n <= 2 and arm != ("red", "blue")[n - 1]):
            problems.append(f"row {n}: bad step/arm {step},{arm}")
            break
        if reward_cell not in rewards:
            rewards[reward_cell] = value_of(reward_cell)
        reward = rewards[reward_cell]
        counts[arm] += 1
        if arm == "red":
            expected_reward = {0: Fraction(1)} if kind == "laurent" else Fraction(1)
        elif counts["blue"] & (counts["blue"] - 1) == 0:
            j = counts["blue"].bit_length() - 1
            if kind == "laurent":
                expected_reward = {-1: Fraction(1)}
            else:
                expected_reward = m if kind == "static" else m * (1 << j)
        else:
            expected_reward = zero
        if reward != expected_reward:
            problems.append(f"row {n}: reward {reward_cell!r} is not the {arm} payout")
        sums[arm] = series_add(sums[arm], reward) if kind == "laurent" else sums[arm] + reward
        for side, cell in (("red", red_cell), ("blue", blue_cell)):
            if side == arm:
                try:
                    ok = value_of(cell) == _mean_value(kind, sums[side], counts[side])
                except (ValueError, ZeroDivisionError):
                    ok = False
                if not ok:
                    problems.append(f"row {n}: {side}_mean {cell!r} != recomputed mean")
                cells[side] = cell
            elif cell != cells[side]:
                problems.append(f"row {n}: {side}_mean changed without a {side} pull")
        greedy = (
            "blue"
            if counts["red"] and counts["blue"]
            and _greater(kind, sums["blue"], counts["blue"], sums["red"], counts["red"])
            else "red"
        )
        if pref != greedy:
            problems.append(f"row {n}: preferred {pref} != greedy {greedy}")
        if flip is None and previous_pref == "blue" and pref == "red":
            flip = n
        previous_pref = pref
        if len(problems) >= _MAX_PROBLEMS:
            break
    summary = _load_summary(summary_text, problems)
    if summary.get("steps") != steps or summary.get("scheme") != config["scheme"]:
        problems.append("summary scheme/steps do not echo the config")
    if summary.get("flip_step") != flip:
        problems.append(f"flip_step {summary.get('flip_step')} != trace {flip}")
    if summary.get("final_preference") != pref:
        problems.append(f"final_preference {summary.get('final_preference')} != {pref}")
    return problems


def certify_expected(inputs: dict) -> dict:
    """What a correct batch outputs, from the construction of its inputs."""
    decisions = [
        [c["accepted"], c["violation_index"], c["scan"]] for c in inputs["certificates"]
    ]
    series = []
    for a_text, b_text, c_text, q_text in inputs["series_cases"]:
        a, b, c = series_value(a_text), series_value(b_text), series_value(c_text)
        x = series_add(series_mul(a, b), series_scale(Fraction(q_text), c))
        series.append([ordering(x, series_mul(a, c)), series_text(x)])
    return {"decisions": decisions, "series": series}


def certify_law_problems(narch, inputs: dict) -> list[list[str]]:
    """Laws the program must satisfy on these inputs, one problem list per op.

    Certificates: a brute-force scan of ``sig_less_laurent`` over
    ``chain.element(i)`` finds the constructed first violation (or none up
    to the stabilization index), and accepted ones satisfy both claims.
    Series cases: the distributive law and ``parse(format_series(x)) == x``.
    """
    per_op = []
    for c in inputs["certificates"]:
        problems = []
        cert = narch.certificate_from_json(c["cert"])
        r = Fraction(c["r"])
        first = None
        for i in range(c["scan"] + 1):
            x = cert.chain.element(i)
            if not (
                narch.sig_less_laurent(x, cert.chain.element(i + 1), r)
                and narch.sig_less_laurent(x, cert.upper, r)
            ):
                first = i
                break
        if first != c["violation_index"]:
            problems.append(f"brute-force first violation {first} != {c['violation_index']}")
        if c["accepted"] and not (narch.claim1_holds(cert, r) and narch.claim2_holds(cert, r)):
            problems.append("claim 1 or claim 2 fails on an accepted certificate")
        per_op.append(problems)
    for a_text, b_text, c_text, q_text in inputs["series_cases"]:
        problems = []
        a, b, c = (narch.parse(t) for t in (a_text, b_text, c_text))
        if narch.mul(a, narch.add(b, c)) != narch.add(narch.mul(a, b), narch.mul(a, c)):
            problems.append(f"distributive law fails for {a_text!r}")
        x = narch.add(narch.mul(a, b), narch.scalar_mul(Fraction(q_text), c))
        if narch.parse(narch.format_series(x)) != x:
            problems.append(f"round trip fails for {narch.format_series(x)!r}")
        per_op.append(problems)
    return per_op


def measure_expected(inputs: dict) -> dict:
    """Accurate assignments check True, perturbed ones False; tops are (n+1) r."""
    r = Fraction(inputs["feasible"]["r"])
    tops = [(n + 1) * r for n in range(inputs["feasible"]["n_max"] + 1)]
    return {
        "checks": [True, False] * len(inputs["structures"]),
        "tops": [f"{t.numerator}/{t.denominator}" for t in tops],
        "plateau": [inputs["plateau"]["index"]],
    }


def op_failures(outputs: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) comparing a batch's outputs op by op."""
    attempted = failed = 0
    problems: list[str] = []
    for key, want in expected.items():
        got = outputs.get(key)
        got = got if isinstance(got, list) and len(got) == len(want) else [None] * len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            attempted += 1
            if g != w:
                failed += 1
                if len(problems) < _MAX_PROBLEMS:
                    problems.append(f"{key}[{i}]: {g!r} != expected {w!r}")
    return attempted, failed, problems
