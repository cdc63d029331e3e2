import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# An opt-in deeper run, e.g. HYPOTHESIS_PROFILE=ci pytest tests/test_laurent.py;
# without the variable every test keeps Hypothesis' default settings.
settings.register_profile("ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def narch_cli():
    """Run the CLI in a subprocess with the package importable."""

    def run(*args: str, cwd=None) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "narch", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    return run
