"""Every Python file parses under the 3.10 grammar, the oldest version supported.

This checks syntax only: a library API that first appeared in 3.11 or later,
called with 3.10-valid syntax, still passes. ``bench/`` files are read, never
imported.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src", "scripts", "tests", "bench") for path in (REPO_ROOT / folder).rglob("*.py")
)


def test_every_folder_has_sources():
    assert {path.relative_to(REPO_ROOT).parts[0] for path in SOURCES} == {"src", "scripts", "tests", "bench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(REPO_ROOT).as_posix())
def test_parses_under_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
