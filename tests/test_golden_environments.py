"""Golden traces rerun under other environments: the pinned bytes must not move.

A pytest session sees one hash seed, one locale and one UTF-8 mode, so a
dependence on set or dict hash order, or on the locale's encoding, could
pass ``tests/test_golden.py`` and still change the bytes elsewhere. Each
golden config runs here as a subprocess with one setting changed at a
time; the CSV and the summary stdout, read as bytes, must hash to the
pinned values.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from .conftest import SRC
from .test_golden import GOLDEN, _golden_id

# (id, environment overrides, interpreter options): one setting each
ENVIRONMENTS = [
    ("PYTHONHASHSEED=0", {"PYTHONHASHSEED": "0"}, []),
    ("PYTHONHASHSEED=1", {"PYTHONHASHSEED": "1"}, []),
    ("LC_ALL=C", {"LC_ALL": "C"}, []),
    ("LC_ALL=C.UTF-8", {"LC_ALL": "C.UTF-8"}, []),
    ("utf8=0", {}, ["-X", "utf8=0"]),
    ("utf8=1", {}, ["-X", "utf8=1"]),
]


@pytest.mark.parametrize(
    "overrides, options",
    [(overrides, options) for _, overrides, options in ENVIRONMENTS],
    ids=[name for name, _, _ in ENVIRONMENTS],
)
@pytest.mark.parametrize(
    "argv, csv_sha256, summary_sha256",
    GOLDEN,
    ids=[_golden_id(argv) for argv, _, _ in GOLDEN],
)
def test_golden_trace_in_environment(
    tmp_path, argv, csv_sha256, summary_sha256, overrides, options
):
    out = tmp_path / "trace.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    result = subprocess.run(
        [sys.executable, *options, "-m", "narch", "bandit", *argv, "--out", str(out)],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
    assert hashlib.sha256(result.stdout).hexdigest() == summary_sha256
