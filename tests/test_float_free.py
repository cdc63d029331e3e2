"""The library source is float-free, checked on its syntax trees.

No module under ``src/narch`` may hold a float literal, the name ``float``
or a ``math`` function other than ``gcd``. Each true division
``/`` is pinned to the function that holds it, where both operands are
exact, so a new one has to be looked at before the count is raised.
"""

import ast
from collections import Counter

import pytest

from .conftest import SRC

MODULES = sorted((SRC / "narch").glob("*.py"))
MATH_ALLOWED = {"gcd"}
DIVISIONS = {("bandit", "exact_mean"): 1}


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name 'float'")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in MATH_ALLOWED
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(
                f"line {node.lineno}: from math import {alias.name}"
                for alias in node.names
                if alias.name not in MATH_ALLOWED
            )
    return found


def _divisions(tree: ast.AST, module: str) -> Counter:
    """True divisions per (module, innermost enclosing function); None at module level."""
    counts: Counter = Counter()

    def visit(node: ast.AST, function: object) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                counts[module, function] += 1
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(tree, None)
    return counts


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_float_literal_name_or_math_function(path):
    assert _float_uses(_parse(path)) == []


def test_each_true_division_is_pinned_to_its_function():
    counts: Counter = Counter()
    for path in MODULES:
        counts += _divisions(_parse(path), path.stem)
    assert dict(counts) == DIVISIONS


def test_the_rules_catch_planted_floats_and_divisions():
    planted = ast.parse(
        "import math\n"
        "from math import sqrt, floor, gcd\n"
        "x = 0.5\n"
        "y = float(1)\n"
        "z = math.log(2) + math.floor(x) + math.gcd(4, 6)\n"
        "def f(a):\n"
        "    a /= 3\n"
        "    return [b / 2 for b in a]\n"
        "w = 1 / 2\n"
    )
    assert _float_uses(planted) == [
        "line 2: from math import sqrt",
        "line 2: from math import floor",
        "line 3: literal 0.5",
        "line 4: name 'float'",
        "line 5: math.log",
        "line 5: math.floor",
    ]
    assert _divisions(planted, "m") == Counter({("m", "f"): 2, ("m", None): 1})
