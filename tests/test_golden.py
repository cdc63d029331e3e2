"""Golden traces: pinned sha256 of the CSV bytes and the summary stdout.

The hashes were taken from the step-by-step implementation of the bandit
runs. Any change to how rows are computed or written must keep these
bytes identical.
"""

import hashlib
from fractions import Fraction

import pytest

SCRIPTED = ["--mode", "scripted"]
EGREEDY = ["--mode", "egreedy", "--steps", "2000", "--epsilon", "1/10"]

GOLDEN = [
    (
        ["--scheme", "laurent", *SCRIPTED, "--steps", "20000"],
        "c32bb0e1aec27e0aabec8a281e07d04b2911bd75fdbb377d989b7b064ae60a67",
        "ca468e406647d445253cf07ec19826ad4d9f459c5f995ff696456b7cfa5fd401",
    ),
    (
        # crossover_step(1000) = 14001 lies inside the run
        ["--scheme", "approx:1000", *SCRIPTED, "--steps", "20000"],
        "8a369df32c2220ba6c2beb4465c1b96af437bd4775e0d988697468c22f57ce84",
        "740ee1baa35863197660e0226bad80cb696e77006f31fe75d5e6b7558aed65ce",
    ),
    (
        ["--scheme", "dynamic:1000", *SCRIPTED, "--steps", "20000"],
        "bd85ea735f3eab7f89628bb3acf282e3a73b2a60618613d33525a814264d1c78",
        "9c9621b9372c4e01a99f4655b7c0744c8d0fb15e40f51271e4277820b12d6770",
    ),
    (
        ["--scheme", "approx:7/3", *SCRIPTED, "--steps", "300"],
        "a1d6b4af13606990bae8804024544b2cd23c3b58d4f27ab6449ec67428315f56",
        "b16d623500f70d8f119b05249bc7834dc5410328f3d6cb17d3d8c8d72aaec230",
    ),
    (
        ["--scheme", "dynamic:7/3", *SCRIPTED, "--steps", "300"],
        "e5b0718b389ae05e7ae7031d8dc03ed142a3718ecb899c4f71320ac6f2eef78c",
        "3f0e0ca63f4d67a4a9ecbab8b0f1469cd32a5decfdd8f0bd58b3cd83d0d43bc1",
    ),
    (
        # M = 1/2 flips at the first round
        ["--scheme", "approx:1/2", *SCRIPTED, "--steps", "300"],
        "935f2ab64485fb1c7643d9b9ff431e937e92adfb867c8ad1f2f09881b69e6e17",
        "3cf69c3377dd636dad047e992533262e651a2592d8f5f0352cd04b7c6a13254c",
    ),
    (
        ["--scheme", "laurent", *EGREEDY, "--seed", "7"],
        "072b3b337466a8c9bafebfed51c5674a61a23de75430d0941ec33cfbf0a96a81",
        "ac365fa9d9ab852a919f583d185f13849f01dbaaf87290be3994cbe18f7a866e",
    ),
    (
        ["--scheme", "laurent", *EGREEDY, "--seed", "20260809"],
        "78eac6b6cdc46e899805f1fd4337242d2192f05cd5383c66bad0c2f74affc69c",
        "ac365fa9d9ab852a919f583d185f13849f01dbaaf87290be3994cbe18f7a866e",
    ),
    (
        ["--scheme", "approx:50", *EGREEDY, "--seed", "7"],
        "b880122ab08861c77e811f99359706c5422fba3c8d6da51e5ef732bf591cd7e1",
        "0971eb04208d7687e77c7689c9a0304ba0435fcec5c65600bd32e27f593f1b5c",
    ),
    (
        ["--scheme", "approx:50", *EGREEDY, "--seed", "20260809"],
        "84002bd70efc6a348004e3973b43382148a416ccf4ce4c646f98248e464df550",
        "74edd0efd4d6e50b960cd5b0d38a5bafe47d08e81a6aff6dfabfc91faa9a88ca",
    ),
    (
        ["--scheme", "dynamic:7/3", *EGREEDY, "--seed", "7"],
        "25cfbf268635dc84cabe12f1eb5df9d4d121d7a412848a53aee4ba1e5e821e44",
        "6d1f79b3e58ac395901141a091e781006a0a81fd44f44d231b75677e11721d14",
    ),
    (
        # never explores: the greedy choice alone, flipping to red at 451
        ["--scheme", "approx:50", *EGREEDY[:-1], "0", "--seed", "7"],
        "7056fca21bdb16ca2e1b9973293525f3ae9100ac25e951c96b06c587c2bb97e5",
        "297cea10bd39ca69e19fee8cfccdcc274ed40908f46c304443f03fee5a852102",
    ),
    (
        # always explores: two draws in every step after the second
        ["--scheme", "approx:50", *EGREEDY[:-1], "1", "--seed", "7"],
        "0d5d97d02f2f4ee30dd368be0c7246be8e0f7755de48a8e7edcceea6e75a36b3",
        "614db7cb4545f8e48e4939215932c4e2b01b124455e0b54a671fae4f50ef6726",
    ),
    (
        ["--scheme", "laurent", *EGREEDY[:-1], "1", "--seed", "7"],
        "5d0f8c30343f6777d5b890fe848e8b3975458809e19e5c41f6039f224f6d3715",
        "ac365fa9d9ab852a919f583d185f13849f01dbaaf87290be3994cbe18f7a866e",
    ),
]


def _golden_id(argv: list[str]) -> str:
    """Scheme, mode and seed, plus the epsilon where it is not 1/10."""
    parts = argv[1:2] + argv[3:4]
    if "--epsilon" in argv and argv[argv.index("--epsilon") + 1] != "1/10":
        parts.append("epsilon " + argv[argv.index("--epsilon") + 1])
    return " ".join(parts + argv[-1:])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, csv_sha256, summary_sha256",
    GOLDEN,
    ids=[_golden_id(argv) for argv, _, _ in GOLDEN],
)
def test_golden_trace(narch_cli, tmp_path, argv, csv_sha256, summary_sha256):
    out = tmp_path / "trace.csv"
    result = narch_cli("bandit", *argv, "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert _sha256(out.read_bytes()) == csv_sha256
    assert _sha256(result.stdout.encode()) == summary_sha256


def _plateau_sequence() -> str:
    """2,000 lines from -3 up, rising by (2000 - i)/997 with flat steps late on.

    Every third value is written unreduced (``-6/2``, ``6012/1994``); the
    rise first falls below 1/2 at index 1502, and from index 1700 every
    other step is flat, so equal neighbours follow the plateau.
    """
    level, lines = Fraction(-3), []
    for i in range(2000):
        unreduced = f"{2 * level.numerator}/{2 * level.denominator}"
        lines.append(unreduced if i % 3 == 0 else str(level))
        level += 0 if i >= 1700 and i % 2 else Fraction(2000 - i, 997)
    return "\n".join(lines) + "\n"


MEASURE_GOLDEN = [
    (["feasible-top", "--n-min", "0", "--n-max", "2000", "--r", "7/9"],
     "9225e681ba0b3b5b21f52c00122bed8531a82450d5b6f08636afe8a66ad1e7a3"),
    (["plateau", "--tol", "1/2"],
     "29dce8f493b8762fca8b922ff0e7c9f2e49c18c91a6def84f81898d1387174a4"),
]


@pytest.mark.parametrize("argv, stdout_sha256", MEASURE_GOLDEN, ids=["feasible-top", "plateau"])
def test_golden_measure(narch_cli, tmp_path, argv, stdout_sha256):
    if argv[0] == "plateau":
        path = tmp_path / "seq.txt"
        path.write_text(_plateau_sequence(), encoding="utf-8")
        argv = [*argv, "--seq", str(path)]
    result = narch_cli("measure", *argv)
    assert result.returncode == 0, result.stderr
    assert _sha256(result.stdout.encode()) == stdout_sha256
