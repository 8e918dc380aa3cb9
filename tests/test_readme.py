"""README's library example runs as written and gives the values that its
comments state, every name the library exports has a user, and the
package's lazily loaded surface holds still."""

import ast
import pathlib
import re
import subprocess
import sys

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


EXPORTS = [
    "BUILTIN_SOURCES", "Brick", "BrickType", "ImageOption", "JointReport",
    "LetterGrid", "OverlapError", "Pattern", "Prob", "Prop2Verdict",
    "RuleError", "RuleSyntaxError", "RuleValidationError", "SplitMix64",
    "SubstitutionMatrix", "SubstitutionRule", "VmaxStats", "analyze",
    "assert_area_eigenvector", "brick_frequencies", "builtin",
    "check_no_overlap", "count_bricks", "count_realizations",
    "crossing_options", "derive_seed", "format_pattern", "generate_pattern",
    "has_crossing", "iterate", "iterate_block", "matrix", "parse_pattern",
    "parse_rule", "pf_eigenvalue", "prop2_bound", "render_grid",
    "report_with_crossings", "sample_vmax", "serialize_rule",
    "substitute_once", "to_svg", "validate_rule", "vertical_joints",
]


def test_package_surface():
    assert brickwall.__all__ == EXPORTS
    ns = {}
    exec("from brickwall import *", ns)
    assert sorted(ns.keys() - {"__builtins__"}) == EXPORTS
    assert set(EXPORTS) <= set(dir(brickwall))
    with pytest.raises(AttributeError, match="nosuch"):
        brickwall.nosuch
    # submodules resolve after a bare `import brickwall`
    res = subprocess.run(
        [sys.executable, "-c", "import brickwall\n"
         "print(brickwall.generate.__name__, brickwall.iterate.__module__)"],
        capture_output=True, text=True, check=True)
    assert res.stdout == "brickwall.generate brickwall.generate\n"


def test_exports_are_looked_up_on_each_access(monkeypatch):
    # a tracer patches the defining module: the package must not keep the
    # original, nor keep the patch once it is undone
    original = brickwall.generate.iterate
    assert brickwall.iterate is original

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(brickwall.generate, "iterate", patched)
    assert brickwall.iterate is patched
    monkeypatch.undo()
    assert brickwall.iterate is original
