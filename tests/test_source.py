"""The package source keeps to exact integer arithmetic: a scan of its
syntax trees for anything that would bring in a float, a clock or chance."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "cycliccurves"
_NAMES = {"float", "complex"}
_MODULES = {"random", "time", "fractions", "decimal"}


def _inexact(tree):
    """(line, what) for each float or complex literal, true division,
    `float` or `complex` name, float or complex attribute (a numpy dtype
    such as `np.float64`) and import of a clock, random or rational
    module in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Name) and node.id in _NAMES:
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr.startswith(
                tuple(_NAMES)):
            yield node.lineno, f"attribute {node.attr}"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, f"import {alias.name}")
                        for alias in node.names
                        if alias.name.split(".")[0] in _MODULES)
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] in _MODULES):
            yield node.lineno, f"import from {node.module}"


def test_source_has_no_inexact_arithmetic():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 7
    hits = [(path.name, line, what) for path in files
            for line, what in _inexact(ast.parse(path.read_text()))]
    assert hits == []


@pytest.mark.parametrize("code", [
    "x = 0.5", "x = 2j", "x = a / b", "x /= 2", "y = float(x)",
    "t = complex", "d = np.float64", "c = np.complex128(1)",
    "import random", "import time as clock", "import decimal.context",
    "from fractions import Fraction", "from time import perf_counter",
])
def test_scan_finds_each_inexact_form(code):
    assert len(list(_inexact(ast.parse(code)))) == 1


def test_scan_passes_integer_code():
    code = ("from math import gcd\nfrom .intmath import divisors\n"
            "x = a // b\nx //= 2\ny = int(x) % 3\nz = np.int64(1) << 4\n")
    assert list(_inexact(ast.parse(code))) == []
