"""README's library example runs as written and gives the values that its
comments state."""

import ast
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    ns = {}
    shown = {}  # value of each bare call, by the name of the function called
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            shown[stmt.value.func.attr] = eval(
                compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert len(ns["pat"].bricks) == 133
    assert ns["rep"].v_max == 11
    assert shown["pf_eigenvalue"] == pytest.approx(4.000000000811549, abs=1e-12)
    assert shown["brick_frequencies"] == pytest.approx((5 / 13, 6 / 13, 2 / 13),
                                                       abs=1e-6)
    assert shown["count_realizations"] == 2 ** 127
