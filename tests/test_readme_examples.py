"""README's CLI examples run as written and print what their ``# ->`` lines say.

An expectation ``JSON: {...}`` is compared as parsed JSON; any other is the
whole of stdout, one line.
"""

import json
import re
import shlex

import pytest

import narch.cli

from .conftest import REPO_ROOT

_CLI_BLOCK = re.compile(r"^## CLI\n.*?^```\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def _examples():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    lines = _CLI_BLOCK.search(text)[1].splitlines()
    return [
        (command, expected.removeprefix("# -> "))
        for command, expected in zip(lines, lines[1:])
        if command.startswith("narch ") and expected.startswith("# -> ")
    ]


EXAMPLES = _examples()


def test_the_checked_examples_are_found():
    assert [shlex.split(command)[1] for command, _ in EXAMPLES] == ["compare", "witness"]


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_its_expectation(command, expected, capsys):
    assert narch.cli.main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if expected.startswith("JSON: "):
        assert json.loads(out) == json.loads(expected.removeprefix("JSON: "))
    else:
        assert out == f"{expected}\n"
