"""README's CLI examples parse, and those with ``# ->`` lines print what those lines say.

Consecutive ``# ->`` lines are the whole of stdout, one line each. An
expectation ``JSON: {...}`` is compared as parsed JSON instead. Each example
runs in a temporary directory, so its ``--out`` file never lands in the repo.
"""

import itertools
import json
import re
import shlex

import pytest

import narch.cli

from .conftest import REPO_ROOT

_CLI_BLOCK = re.compile(r"^## CLI\n.*?^```\n(.*?)^```$", re.DOTALL | re.MULTILINE)

_LINES = _CLI_BLOCK.search((REPO_ROOT / "README.md").read_text(encoding="utf-8"))[1].splitlines()
COMMANDS = [line for line in _LINES if line.startswith("narch ")]


def _examples():
    examples = []
    for index, command in enumerate(_LINES):
        expected = itertools.takewhile(lambda line: line.startswith("# -> "), _LINES[index + 1:])
        text = "\n".join(line.removeprefix("# -> ") for line in expected)
        if command.startswith("narch ") and text:
            examples.append((command, text))
    return examples


EXAMPLES = _examples()


def test_the_checked_examples_are_found():
    assert [shlex.split(command)[1] for command, _ in EXAMPLES] == [
        "compare", "witness", "measure", "bandit", "bandit", "bandit",
    ]


@pytest.mark.parametrize("command", COMMANDS)
def test_example_parses(command):
    # catches a renamed or removed flag in examples that need an input file; parsing opens none
    narch.cli.build_parser().parse_args(shlex.split(command)[1:])


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_its_expectation(command, expected, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert narch.cli.main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if expected.startswith("JSON: "):
        assert json.loads(out) == json.loads(expected.removeprefix("JSON: "))
    else:
        assert out == f"{expected}\n"
