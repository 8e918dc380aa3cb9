"""README's library example runs as written and gives the values that its
comments state, and every name the library exports has a user."""

import ast
import pathlib
import re

import pytest

import brickwall

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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
    assert ns["verdict"].measured_max == 11
    assert ns["verdict"].hypothesis_holds is False
    assert shown["pf_eigenvalue"] == pytest.approx(4.000000000811549, abs=1e-12)
    assert shown["brick_frequencies"] == pytest.approx((5 / 13, 6 / 13, 2 / 13),
                                                       abs=1e-6)
    assert shown["count_realizations"] == 2 ** 127


def test_every_export_has_a_user():
    # a user is code in src/, scripts/ or perfbench/ that names it (its own
    # definition and the export list do not count), or README
    used = set()
    for part in ("src", "scripts", "perfbench"):
        for path in sorted(ROOT.glob(f"{part}/**/*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    used.update(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    assert [name for name in brickwall.__all__ if name not in used] == []
