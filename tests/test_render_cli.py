"""SVG rendering and the command-line interface."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from brickwall import (BUILTIN_SOURCES, Brick, Pattern, RuleError, builtin,
                       generate_pattern, iterate, parse_pattern, parse_rule,
                       to_svg)
from brickwall import format_pattern, sample_vmax, vertical_joints
from brickwall.cli import main
from brickwall.generate import _SLICE_ROWS as C
from brickwall.joints import analyze
from brickwall.rules import PALETTE
from oracles import one_string_per_brick_svg, one_string_per_brick_text
from test_stats import PCLASH

ROOT = pathlib.Path(__file__).resolve().parent.parent

SINGLE_BRICK_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="23" height="23"'
    ' viewBox="0 0 23 23">\n'
    '<rect x="1.5" y="1.5" width="20" height="20" fill="#ff9900"'
    ' stroke="#808080" stroke-width="1.5"/>\n'
    '</svg>\n')

BADSUM_RULE = (
    "rule badsum\nengine geometric\nexpansion 2 2\nbrick A 2 1\n"
    "image A prob 1/3 { A @ -1 0 ; A @ 1 0 ; A @ 0 1 ; A @ 2 1 }\n"
    "image A prob 1/3 { A @ 0 0 ; A @ 2 0 ; A @ -1 1 ; A @ 1 1 }\nend\n")

NUMBER = re.compile(r'\b(?:x|y|width|height|stroke-width)="([^"]+)"')
CLEAN_NUMBER = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d{0,2}[1-9])?\Z")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _single(type_id="B11"):
    return Pattern("adhoc", 0, None, (Brick(type_id, 0, 0, 1, 1),))


def test_svg_single_brick_document():
    assert to_svg(_single(), builtin("sigma3")) == SINGLE_BRICK_SVG


def test_svg_brick_count_and_viewbox():
    pat = iterate(builtin("sigma3"), "B22", 1)
    svg = to_svg(pat, rule=builtin("sigma3"))
    assert svg.count("<rect") == 9
    assert 'viewBox="0 0 103 83"' in svg  # 5x4 cells at 20px plus mortar pad


def test_svg_byte_deterministic():
    pat = iterate(builtin("random_self_similar"), "B22", 3, rng_seed=7)
    rule = builtin("random_self_similar")
    assert to_svg(pat, rule=rule).encode() == to_svg(pat, rule=rule).encode()


def test_svg_row_zero_at_bottom():
    pat = iterate(builtin("sigma3"), "B22", 1)
    svg = to_svg(pat, rule=builtin("sigma3"))
    ys = [float(m.group(1)) for m in
          re.finditer(r'<rect x="[^"]+" y="([^"]+)"', svg)]
    assert ys[0] == 61.5  # lattice row 0 renders lowest
    assert ys[-1] == 1.5  # top row hugs the upper edge
    assert max(ys) == ys[0]


def test_svg_number_formatting():
    pat = iterate(builtin("sigma3"), "B22", 1)
    svg = to_svg(pat, builtin("sigma3"))
    values = NUMBER.findall(svg)
    values += re.search(r'viewBox="([^"]+)"', svg).group(1).split()
    assert len(values) > 10
    for v in values:
        assert CLEAN_NUMBER.match(v), f"bad number formatting: {v!r}"


def test_svg_fills_are_rule_colors_in_wall_order():
    # B is declared first without a color, so it takes the first palette
    # color; A declares its own
    rule = parse_rule(
        "rule paint\nengine geometric\nexpansion 2 1\n"
        "brick B 1 1\nbrick A 1 1 color #123abc\n"
        "image B { B @ 0 0 ; A @ 1 0 }\nimage A { A @ 0 0 ; B @ 1 0 }\nend\n")
    pat = Pattern("adhoc", 0, None,
                  (Brick("A", 2, 0, 1, 1), Brick("B", 0, 0, 1, 1),
                   Brick("B", 1, 0, 1, 1)))
    fills = re.findall(r'fill="([^"]+)"', to_svg(pat, rule))
    assert fills == [PALETTE[0], PALETTE[0], "#123abc"]
    sigma3 = builtin("sigma3")
    wall = iterate(sigma3, "B22", 2)
    assert re.findall(r'fill="([^"]+)"', to_svg(wall, sigma3)) == \
        [sigma3.get_type(b.type_id).color for b in wall.bricks]


def test_svg_errors():
    empty = Pattern("adhoc", 0, None, ())
    with pytest.raises(ValueError):
        to_svg(empty, builtin("sigma3"))
    with pytest.raises(ValueError, match="empty pattern has no bounding box"):
        empty.bbox()
    with pytest.raises(RuleError, match="unknown brick type 'A' in rule 'sigma3'"):
        to_svg(_single("A"), builtin("sigma3"))


def _renders_as_the_oracles(wall, rule):
    text = format_pattern(wall)
    assert text == one_string_per_brick_text(wall)
    assert parse_pattern(text).rows == wall.rows
    if not wall.rows:
        with pytest.raises(ValueError, match="cannot render an empty pattern"):
            to_svg(wall, rule)
        return
    assert to_svg(wall, rule) == one_string_per_brick_svg(wall, rule)


@pytest.mark.parametrize("rows", [0, 1, C - 1, C, C + 1, 2 * C, 3 * C + 7])
def test_hand_walls_render_as_the_oracles_at_slice_edges(rows):
    # the renderers format C bricks a slice; sigma3's three sizes cycle,
    # three bricks to a lattice row, and some rows start left of x = 0
    sizes = (("B11", 1, 1), ("B21", 2, 1), ("B22", 2, 2))
    wall = Pattern("adhoc", 1, rows if rows % 2 else None,
                   tuple((t, 3 * (i % 3) - i // 3 % 5, i // 3, w, h)
                         for i in range(rows) for t, w, h in [sizes[i % 3]]))
    assert len(wall) == rows
    _renders_as_the_oracles(wall, builtin("sigma3"))


@pytest.mark.parametrize("name,brick,n,rng_seed", [
    ("ptm", "1", 7, None), ("ptm_skewed", "0", 7, None),
    ("sigma3", "B22", 7, None), ("rows23", "B21", 6, None),
    ("random_self_similar", "B22", 7, 1), ("random_pp", "B22", 7, 1)])
def test_builtin_walls_past_three_slices_render_as_the_oracles(
        name, brick, n, rng_seed):
    rule = builtin(name, p=Fraction(1, 3) if name == "random_pp" else None)
    wall = generate_pattern(rule, brick, n, rng_seed)
    assert len(wall) > 3 * C
    _renders_as_the_oracles(wall, rule)
    assert parse_pattern(format_pattern(wall)) == wall


@st.composite
def memo_walls(draw):
    """Hand-built walls of sigma3's type ids at drawn sizes, so that the
    renderers' memo keys collide in part: each drawn brick comes with a
    twin of its type at another size whose top edge is the same."""
    rows = []
    coords, sizes = st.integers(-300, 300), st.integers(1, 3)
    for t, x, y, w, h in draw(st.lists(st.tuples(
            st.sampled_from(["B11", "B21", "B22"]), coords, coords, sizes,
            sizes), min_size=1, max_size=20)):
        w2, h2 = w % 3 + 1, h % 3 + 1
        rows += [(t, x, y, w, h), (t, -x, y + h - h2, w2, h2)]
    return Pattern("adhoc", 2, draw(st.none() | st.integers(0, 9)), rows)


@given(memo_walls())
@example(Pattern("adhoc", 0, None, [
    ("B21", x, y, 2, h) for x, y, h in
    [(255, 256, 1), (256, -257, 3), (-257, 255, 2), (-5, -6, 1)]]))
@settings(max_examples=50, deadline=None)
def test_renderers_memo_keys_render_as_the_oracles(wall):
    # small ints (-5..256) are cached objects and larger ones are not; a
    # memo keyed on values must not care
    rule = builtin("sigma3")
    assert format_pattern(wall) == one_string_per_brick_text(wall)
    assert to_svg(wall, rule) == one_string_per_brick_svg(wall, rule)


def test_rendering_holds_twice_the_output_and_generate_one_slice(tmp_path):
    # ptm n8 has 65,536 rows; one string per brick took 7.2x the text and
    # 3.6x the SVG, and generate held the whole document on top of the wall
    mib, rule = 2 ** 20, builtin("ptm")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wall = generate_pattern(rule, "1", 8)
        wall_peak = tracemalloc.get_traced_memory()[1] - before
        for render in (format_pattern, lambda p: to_svg(p, rule)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            size = len(render(wall))
            assert tracemalloc.get_traced_memory()[1] - before <= \
                2 * size + mib
        del wall
        for suffix in ("svg", "txt"):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert run("generate", "--rule", "ptm", "--seed-brick", "1", "-n",
                       "8", "--out", str(tmp_path / f"wall.{suffix}"))[0] == 0
            assert tracemalloc.get_traced_memory()[1] - before <= \
                wall_peak + mib
    finally:
        tracemalloc.stop()
    wall = generate_pattern(rule, "1", 8)
    assert (tmp_path / "wall.svg").read_text() == to_svg(wall, rule)
    assert (tmp_path / "wall.txt").read_text() == format_pattern(wall)


def test_parsing_holds_the_lines_and_the_wall_once():
    # ptm n8's text holds 65,536 rows; a list of the lines, a filtered copy,
    # a brick list and Pattern's sorted copy peaked at 2.5x the wall
    text = format_pattern(generate_pattern(builtin("ptm"), "1", 8))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wall = parse_pattern(text)
        size, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(wall) == 65536
    assert peak <= 1.8 * size


def test_cli_generate_svg(tmp_path):
    out = tmp_path / "wall.svg"
    code, stdout, stderr = run("generate", "--rule", "sigma3",
                               "--seed-brick", "B22", "-n", "1",
                               "--out", str(out))
    assert code == 0 and stderr == ""
    assert stdout == f"wrote {out} (9 bricks)\n"
    assert out.read_text() == to_svg(iterate(builtin("sigma3"), "B22", 1),
                                     rule=builtin("sigma3"))


def test_cli_generate_txt_round_trip(tmp_path):
    out = tmp_path / "wall.txt"
    code, stdout, _ = run("generate", "--rule", "random_self_similar",
                          "--seed-brick", "B22", "-n", "2",
                          "--rng-seed", "1", "--out", str(out))
    assert code == 0
    back = parse_pattern(out.read_text())
    expect = iterate(builtin("random_self_similar"), "B22", 2, rng_seed=1)
    assert back.bricks == expect.bricks
    assert back.rng_seed == 1 and back.level == 2


def test_cli_analyze_json():
    code, stdout, _ = run("analyze", "--rule", "sigma3", "--seed-brick",
                          "B22", "-n", "3", "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["v_max"] == 11
    assert data["crossings"] == {"B11": False, "B21": True, "B22": False}
    assert {"x", "y0", "y1"} == set(data["joints"][0])
    assert data["prop2"]["hypothesis_holds"] is False
    assert data["prop2"]["bound_respected"] is True


def test_cli_analyze_human_readable(tmp_path):
    code, stdout, _ = run("analyze", "--rule", "sigma3", "--seed-brick",
                          "B22", "-n", "1")
    assert code == 0
    assert stdout == (
        "rule sigma3, seed B22, n=1: 9 bricks\n"
        "v_max: 3\n"
        "joints: 5\n"
        "crossings: B21\n"
        "joint bound 4: not applicable (an image has a crossing); measured 3\n")
    # four 10^5-side bricks: no analysis allocates by brick size
    big = tmp_path / "big.rule"
    big.write_text("rule big\nengine geometric\nexpansion 2 2\n"
                   "brick A 100000 100000\nimage A { A @ 0 0 ; A @ 100000 0 ;"
                   " A @ 0 100000 ; A @ 100000 100000 }\nend\n")
    start = time.perf_counter()
    code, stdout, _ = run("analyze", "--rule", str(big), "--seed-brick", "A",
                          "-n", "1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert stdout == (
        "rule big, seed A, n=1: 4 bricks\n"
        "v_max: 200000\n"
        "joints: 1\n"
        "crossings: A\n"
        "joint bound 200000: not applicable (an image has a crossing);"
        " measured 200000\n")


def test_cli_analyze_random_rule():
    code, stdout, _ = run("analyze", "--rule", "random_pp", "--seed-brick",
                          "B22", "-n", "2", "-p", "1/3", "--rng-seed", "4",
                          "--json")
    assert code == 0
    data = json.loads(stdout)
    assert "prop2" not in data  # bound check is for deterministic rules
    assert data["v_max"] >= 1


# sha256 of `analyze` stdout, text and --json, frozen before analyze built
# each level once; the single pass must print the same bytes
ANALYZE_DIGESTS = [
    ("--rule sigma3 --seed-brick B22 -n 5",
     "d72b8208dc364f9c3d66c561d1c10575750076e2f5fdc450a0cd2c934e3ce3b5",
     "eae14156d8fd9bf3694807cceea0ad8b5eb5c9cfe21617cd342f577abe61b03e"),
    ("--rule sigma3 --seed-brick B22 -n 6",
     "ec1bdac81769fa27e99256b859a0c218937b8c99f9b55c603c7331c6118b88f3",
     "917d44ce370ca24afb0a42b150560e17cdd8ec625f0535829b1addb94e4781bb"),
    ("--rule sigma3 --seed-brick B22 -n 7",
     "8545422159901d9f54ca35b52bff6b59ae686be12c6aef38cf6aecfd3c294045",
     "3e29a1e453cb66526b6c2801cd1ea9ba15797b4e10b33233a89a1aecbcdc8766"),
    ("--rule rows23 --seed-brick B21 -n 4",
     "edc5ba2fb713ce888405e2b297f31198cb53366f6f4b05fea5de30730c8d5928",
     "3e3965dd54ddbdd35e4f4a5b18d467fe3824408cd9d875754379d5b485735d8d"),
    ("--rule ptm_skewed --seed-brick 0 -n 5",
     "1ced74c9375ee553478f155db7b5c10bed412a5a68fe09ef43a1250a2152bb0d",
     "f109b966801f840cd32a35ea34f52f9938ed82020f552346d2dd2f031f9a9d3a"),
    ("--rule random_pp --seed-brick B22 -n 4 -p 1/2 --rng-seed 7",
     "198b39a66bff7009e3a9ffb2f34656959f62cf87f5df8465c3d8326949058807",
     "d1badfbdb95c9bf7fa0f04729f6524f98ec427b2f074690f5ce2f2971e629a50"),
    # recorded while --json still went through one json.dumps(indent=2)
    ("--rule sigma3 --seed-brick B22 -n 0",  # "joints": []
     "45b2d4b155053673bf0209c95e393ef50695a8e8c490d535f911b1b245cc33d3",
     "a39475b34cf1d589a28b9913cb795647a5685777e22007861a1144babed2d02a"),
    ("--rule ptm --seed-brick 1 -n 3",
     "a5c42b4bbf5c209ef9341861900a4b446e564867d0e257b09f59b600c9e3aafb",
     "a51d67d46728c4a11d6daac43381df619e7f1c882e156bd29d8ae4d90a9229d8"),
]


@pytest.mark.parametrize("args,text_sha,json_sha", ANALYZE_DIGESTS)
def test_cli_analyze_frozen_digests(args, text_sha, json_sha):
    for extra, expected in (([], text_sha), (["--json"], json_sha)):
        code, stdout, stderr = run("analyze", *args.split(), *extra)
        assert code == 0 and stderr == ""
        assert hashlib.sha256(stdout.encode()).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(BUILTIN_SOURCES))
def test_cli_analyze_json_is_the_indented_dump(name):
    p = Fraction(1, 3) if name == "random_pp" else None
    rule = builtin(name, p=p)
    rng_seed = 7 if rule.is_random else None
    extra = ["-p", "1/3"] if p is not None else []
    extra += ["--rng-seed", "7"] if rng_seed is not None else []
    for seed_type in rule.type_ids:
        for n in range(4):
            report, verdict = analyze(rule, seed_type, n, rng_seed)
            doc = report.to_json()
            if verdict is not None:
                doc["prop2"] = verdict.to_json()
            code, stdout, _ = run("analyze", "--rule", name, "--seed-brick",
                                  seed_type, "-n", str(n), "--json", *extra)
            assert code == 0
            assert stdout == json.dumps(doc, indent=2) + "\n"


# sha256 of to_svg output; sigma3 and ptm_skewed were frozen before to_svg
# made one pass over the sorted wall, and the pass must write the same bytes
SVG_DIGESTS = [
    ("sigma3", "B22", 5, None,
     "d980296dbde2c5dc15704bbce25f8307460fb8b2ca357d4cee16954dea6c9d54"),
    ("ptm_skewed", "1", 6, None,
     "4c48bbdbf56726dab4aa4f2b455ae3e389abdf90a6fa5ea1ee6a417bfc16032c"),
    ("ptm", "0", 4, None,
     "ae36cc05e483c2c5361c78db9a3a038016a0cc17a1ce6c2d9f955d62d4246a99"),
    ("random_pp", "B22", 4, 1,
     "f72133539efb9eaf57c5984fa0888e21b8d526bfcab470b5a773ab97ce235310"),
]


@pytest.mark.parametrize("name,brick,n,rng_seed,sha", SVG_DIGESTS)
def test_to_svg_frozen_digests(name, brick, n, rng_seed, sha):
    rule = builtin(name)
    if rule.is_parametric:
        rule = rule.bind(Fraction(1, 3))
    svg = to_svg(generate_pattern(rule, brick, n, rng_seed), rule)
    assert hashlib.sha256(svg.encode()).hexdigest() == sha


def test_cli_spectrum():
    code, stdout, _ = run("spectrum", "--rule", "rows23")
    assert code == 0
    data = json.loads(stdout)
    assert data["pf_eigenvalue"] == pytest.approx(6.0, abs=1e-9)
    assert data["expected"] == 6.0
    assert data["frequencies"]["B11"] == pytest.approx(0.5, abs=1e-9)
    assert data["matrix"] == [["2", "2"], ["4", "4"]]


def test_cli_spectrum_parametric():
    code, stdout, _ = run("spectrum", "--rule", "random_pp", "-p", "1/3")
    assert code == 0
    data = json.loads(stdout)
    assert data["matrix"][0] == ["8/3", "2/3"]


def test_cli_count():
    code, stdout, _ = run("count", "--rule", "random_self_similar",
                          "--seed-brick", "B22", "-n", "4")
    assert code == 0
    assert stdout == ("bricks: 384\n"
                      "realizations: 170141183460469231731687303715884105728\n")
    code, stdout, _ = run("count", "--rule", "random_self_similar",
                          "--seed-brick", "B22", "-n", "4", "--json")
    assert json.loads(stdout) == {
        "bricks": "384",
        "realizations": "170141183460469231731687303715884105728"}


def test_cli_count_beyond_the_digit_limit():
    code, stdout, _ = run("count", "--rule", "random_self_similar",
                          "--seed-brick", "B22", "-n", "8")
    assert code == 0
    assert stdout == "bricks: 98304\nrealizations: 2^32767\n"
    code, stdout, _ = run("count", "--rule", "random_self_similar",
                          "--seed-brick", "B22", "-n", "8", "--json")
    assert code == 0
    assert json.loads(stdout) == {"bricks": "98304",
                                  "realizations": "2^32767"}
    # 2^34359738367 has over 10^10 digits: the form is chosen from the
    # exponents, before any product is built
    start = time.perf_counter()
    code, stdout, _ = run("count", "--rule", "random_self_similar",
                          "--seed-brick", "B22", "-n", "18")
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (0, "bricks: 103079215104\n"
                                 "realizations: 2^34359738367\n")
    # a rule that cannot be counted says so at any depth, not that -n is
    # too large
    code, stdout, stderr = run("count", "--rule", "random_pp", "--seed-brick",
                               "B22", "-n", "7200")
    assert code == 1 and stdout == ""
    assert "counting is not defined" in stderr


@pytest.mark.parametrize("images, realizations", [
    (["A { A @ 0 0 }"], "1"),
    (["A { B @ 0 0 }", "B { A @ 0 0 }"], "1"),
    (["A prob 1/2 { A @ 0 0 }", "A prob 1/2 { A @ 0 0 }"], "2^1000000"),
])
def test_cli_count_unit_expansion_at_once(tmp_path, images, realizations):
    # the area is fixed, so the level counts repeat; counting them level by
    # level took seconds at this depth
    types = sorted({i[0] for i in images})
    path = tmp_path / "unit.rule"
    path.write_text("rule unit\nengine geometric\nexpansion 1 1\n"
                    + "".join(f"brick {t} 1 1\n" for t in types)
                    + "".join(f"image {i}\n" for i in images) + "end\n")
    start = time.perf_counter()
    code, stdout, _ = run("count", "--rule", str(path), "--seed-brick", "A",
                          "-n", "1000000")
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (0, f"bricks: 1\nrealizations: {realizations}\n")


@pytest.mark.parametrize("n, realizations", [
    (14284, str(2 ** 14284)),  # 4300 digits, the int-to-str limit
    (14285, "2^14285"),  # 4301 digits
])
def test_cli_count_at_the_digit_limit(tmp_path, n, realizations):
    assert len(str(2 ** 14284)) == sys.get_int_max_str_digits() == 4300
    path = tmp_path / "coin.rule"
    path.write_text("rule coin\nengine geometric\nexpansion 1 1\n"
                    "brick A 1 1\nimage A prob 1/2 { A @ 0 0 }\n"
                    "image A prob 1/2 { A @ 0 0 }\nend\n")
    code, stdout, _ = run("count", "--rule", str(path), "--seed-brick", "A",
                          "-n", str(n))
    assert (code, stdout) == (0, f"bricks: 1\nrealizations: {realizations}\n")
    # a lifted limit reads as Python's default, so the form stays the same
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert run("count", "--rule", str(path), "--seed-brick", "A",
                   "-n", str(n))[:2] == (code, stdout)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("rule, n, code, out", [
    ("random_self_similar", 18, 0,
     "bricks: 103079215104\nrealizations: 2^34359738367\n"),
    ("sigma3", 1000000, 2, ""),
    ("sigma3", 7142, 2, ""),  # passes the area bound; 4301 digits
])
def test_cli_count_with_the_digit_limit_lifted(rule, n, code, out):
    # PYTHONINTMAXSTRDIGITS=0 lifts the limit; count keeps Python's default,
    # so it neither builds a 10^10-digit product nor counts a huge wall
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "brickwall.cli", "count", "--rule", rule,
         "--seed-brick", "B22", "-n", str(n)], capture_output=True,
        text=True, timeout=20, env={**os.environ, "PYTHONINTMAXSTRDIGITS": "0"})
    assert time.perf_counter() - start < 2
    assert (res.returncode, res.stdout) == (code, out)
    if code:
        assert res.stderr == (f"error: -n {n}: the brick count has more than"
                              f" {sys.int_info.default_max_str_digits} digits"
                              " (Python's default int-to-str limit)\n")


def test_cli_brick_budget_exits_1(tmp_path):
    out = tmp_path / "huge.svg"
    code, stdout, stderr = run("generate", "--rule", "sigma3", "--seed-brick",
                               "B22", "-n", "12", "--out", str(out))
    assert code == 1 and stdout == ""
    assert "'sigma3' from seed 'B22' at n=12 can build 34896613 bricks" in stderr
    assert not out.exists()


def test_cli_validate_reports_overlap(tmp_path):
    clash = tmp_path / "clash.txt"
    clash.write_text("rule clash\nengine geometric\nexpansion 2 2\n"
                     "brick A 1 1\n"
                     "image A { A @ 0 0 ; A @ 1 0 ; A @ 2 0 ; A @ 3 0 }\nend\n")
    assert run("validate", "--rule", str(clash)) == (
        1, "overlap: A and A at offset (0, 0) in a level-2 wall of seed A\n", "")
    tower = tmp_path / "tower.txt"
    tower.write_text("rule tower\nengine geometric\nexpansion 2 1\n"
                     "brick A 1 1\nimage A { A @ 0 0 ; A @ 0 1 }\nend\n")
    code, stdout, _ = run("validate", "--rule", str(tower))
    assert code == 0
    assert stdout.splitlines()[1].startswith("note: overlap undecided")
    # an option of p = 1 overlaps: validate says so, and sample sweeps
    # every trial of a rule that is not certified
    pclash = tmp_path / "pclash.rule"
    pclash.write_text(PCLASH)
    assert run("validate", "--rule", str(pclash)) == (
        1, "overlap: A and A at offset (0, 0) in a level-2 wall of seed A\n", "")
    assert run("sample", "--rule", str(pclash), "--seed-brick", "A", "-n", "2",
               "-p", "1", "--trials", "3") == (
        1, "", "error: bricks overlap near x=2, y=0\n")


def test_cli_sample_reproducible():
    args = ("sample", "--rule", "random_pp", "--seed-brick", "B22",
            "-p", "1/2", "--trials", "5")
    code, stdout, _ = run(*args)
    assert code == 0
    data = json.loads(stdout)
    assert data == {"p": "1/2", "n": 4, "trials": 5, "min": 18, "max": 30,
                    "mean": 24.4, "histogram": {"18": 1, "22": 1, "26": 2,
                                                "30": 1}, "base_seed": 0}
    assert run(*args)[1] == stdout


def test_cli_validate_builtin():
    assert run("validate", "--rule", "sigma3") == \
        (0, "ok: rule 'sigma3' (geometric, 3 types)\n", "")


def test_cli_validate_swap_rule(tmp_path):
    swap = tmp_path / "swap.rule"
    swap.write_text("rule swap\nengine geometric\nexpansion 2 2\n"
                    "brick A 1 1\nbrick B 2 1\n"
                    "image A { B @ 0 0 ; B @ 0 1 }\n"
                    "image B { A @ 0 0 ; A @ 1 0 ; A @ 2 0 ; A @ 3 0 ;"
                    " A @ 0 1 ; A @ 1 1 ; A @ 2 1 ; A @ 3 1 }\nend\n")
    assert run("validate", "--rule", str(swap)) == \
        (0, "ok: rule 'swap' (geometric, 2 types)\n", "")
    bom = tmp_path / "bom.rule"  # saved with a UTF-8 byte-order mark
    bom.write_bytes(b"\xef\xbb\xbf"
                    + swap.read_bytes().replace(b"swap", b"bom"))
    assert run("validate", "--rule", str(bom)) == \
        (0, "ok: rule 'bom' (geometric, 2 types)\n", "")
    # eigenvalues +-4: no unique dominant eigenvector, a clean diagnostic,
    # given at the first repeated iterate, which names the period
    start = time.perf_counter()
    code, stdout, stderr = run("spectrum", "--rule", str(swap))
    assert time.perf_counter() - start < 0.5
    assert (code, stdout) == (1, "")
    assert stderr == ("error: rule 'swap': substitution matrix has no unique"
                      " dominant eigenvector (the iterate repeats with period"
                      " 2)\n")


def test_cli_validate_diagnostics(tmp_path):
    bad = tmp_path / "badsum.txt"
    bad.write_text(BADSUM_RULE)
    code, stdout, stderr = run("validate", "--rule", str(bad))
    assert code == 1
    assert stdout == "A: probabilities sum to 2/3\n"
    assert stderr == ""


def test_cli_validate_syntax_error(tmp_path):
    broken = tmp_path / "broken.txt"
    broken.write_text("rule x\nengine geometric\nexpansion 2 2\nbrick A 0 1\nend\n")
    code, stdout, stderr = run("validate", "--rule", str(broken))
    assert code == 1
    assert "non-positive dimension" in (stdout + stderr)
    latin1 = tmp_path / "latin1.rule"
    latin1.write_bytes("rule caf\xe9\nend\n".encode("latin-1"))
    assert run("validate", "--rule", str(latin1)) == (
        2, "", f"error: cannot read rule file '{latin1}': not UTF-8"
               " (invalid continuation byte at byte 8)\n")


def test_cli_analyze_invalid_rule_file(tmp_path):
    bad = tmp_path / "badsum.txt"
    bad.write_text(BADSUM_RULE)
    code, stdout, stderr = run("analyze", "--rule", str(bad), "--seed-brick",
                               "A", "-n", "1", "--rng-seed", "0")
    assert code == 1 and stdout == ""
    assert "probabilities sum to 2/3" in stderr


@pytest.mark.parametrize("argv,fragment", [
    (("validate", "--rule", "nosuch"), "unknown rule"),
    (("count", "--rule", "sigma3", "--seed-brick", "B99", "-n", "1"),
     "unknown seed brick"),
    (("generate", "--rule", "random_self_similar", "--seed-brick", "B22",
      "-n", "2", "--out", "x.svg"), "--rng-seed"),
    (("analyze", "--rule", "sigma3", "--seed-brick", "B22", "-n", "1",
      "-p", "1/2"), "no parameter"),
    (("generate", "--rule", "random_pp", "--seed-brick", "B22", "-n", "1",
      "--rng-seed", "1", "--out", "x.svg"), "-p is required"),
    (("sample", "--rule", "random_pp", "--seed-brick", "B22", "-p", "7/2"),
     "outside [0, 1]"),
    (("sample", "--rule", "random_pp", "--seed-brick", "B22", "-p", "zebra"),
     "-p"),
    (("sample", "--rule", "sigma3", "--seed-brick", "B22", "-n", "2", "-p",
      "1/2"), "has no parameter p; sample needs one"),
    (("sample", "--rule", "random_pp", "--seed-brick", "B22", "-n", "2", "-p",
      "1/2", "--trials", "0"), "--trials must be >= 1, got 0"),
    (("validate", "--rule", "."), "cannot read rule file '.'"),
    (("analyze", "--rule", ".", "--seed-brick", "A", "-n", "1"),
     "cannot read rule file '.'"),
    # refused from the area bound before counting, so -n 1000000 returns
    # at once; at -n 7142 the bound falls just short and the count refuses
    (("count", "--rule", "sigma3", "--seed-brick", "B22", "-n", "7200"),
     f"-n 7200: the brick count has more than {sys.get_int_max_str_digits()}"
     " digits"),
    (("count", "--rule", "sigma3", "--seed-brick", "B22", "-n", "1000000"),
     f"-n 1000000: the brick count has more than"
     f" {sys.get_int_max_str_digits()} digits"),
    (("count", "--rule", "sigma3", "--seed-brick", "B22", "-n", "7142"),
     f"-n 7142: the brick count has more than {sys.get_int_max_str_digits()}"
     " digits"),
    (("count", "--rule", "sigma3", "--seed-brick", "B22", "-n", "-1"),
     "depth must be >= 0, got -1"),
    # before any trial
    (("sample", "--rule", "random_pp", "--seed-brick", "B22", "-n", "-1",
      "-p", "1/2"), "depth must be >= 0, got -1"),
    (("validate",), "the following arguments are required: --rule"),
    # -p is an ASCII integer, num/den or a decimal with no exponent, each
    # term within the int-to-str limit, refused before Fraction() reads it:
    # 1e-30000000 would have it build a 30-million-digit denominator
    *((("sample", "--rule", "random_pp", "--seed-brick", "B22", "-n", "1",
        "-p", p, "--trials", "1"), f"error: bad -p value '{p}' (want num/den)\n")
      for p in ["1e-5000", "1e400", "1e-30000000", "1_0/20", "\u0663/4",
                "1/2e0", " 1/2", "1/0",
                "1/" + "3" * (sys.get_int_max_str_digits() + 1),
                "0." + "1" * sys.get_int_max_str_digits()]),
    (("spectrum", "--rule", "random_pp", "-p", "1_0/20"),
     "error: bad -p value '1_0/20' (want num/den)\n"),
])
def test_cli_usage_errors_exit_2(argv, fragment):
    start = time.perf_counter()
    code, stdout, stderr = run(*argv)
    assert time.perf_counter() - start < 5  # refused, not computed
    assert code == 2
    assert fragment in stderr
    if fragment.startswith("error: bad -p"):  # one line
        assert (stdout, stderr) == ("", fragment)


def test_cli_failed_generate_writes_nothing(tmp_path):
    out = tmp_path / "never.png"
    code, _, stderr = run("generate", "--rule", "sigma3", "--seed-brick",
                          "B22", "-n", "1", "--out", str(out))
    assert code == 2 and ".svg or .txt" in stderr
    assert not out.exists()
    out2 = tmp_path / "never.svg"
    code, _, _ = run("generate", "--rule", "sigma3", "--seed-brick", "B99",
                     "-n", "1", "--out", str(out2))
    assert code == 2
    assert not out2.exists()
    # the suffix is checked before the wall is built: -n 12 is over the
    # brick budget (exit 1), but the bad --out is reported first
    code, _, stderr = run("generate", "--rule", "sigma3", "--seed-brick",
                          "B22", "-n", "12", "--out", str(out))
    assert code == 2 and ".svg or .txt" in stderr
    out3 = tmp_path / "missing" / "never.svg"
    code, stdout, stderr = run("generate", "--rule", "sigma3", "--seed-brick",
                               "B22", "-n", "1", "--out", str(out3))
    assert code == 2 and stdout == ""
    assert f"cannot write '{out3}'" in stderr
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("seed, ok", [(-1, False), (0, True),
                                      (2 ** 64 - 1, True), (2 ** 64, False)])
@pytest.mark.parametrize("command, rule", [
    *(pytest.param(c, "random_pp", id=c)
      for c in ("generate", "analyze", "sample")),
    ("generate", "sigma3"), ("analyze", "sigma3"),  # deterministic, geometric
    ("generate", "ptm"), ("analyze", "ptm"),  # block
])
def test_cli_rng_seed_range(tmp_path, command, rule, seed, ok):
    # a seed outside [0, 2**64) would alias one inside it (-5 would make
    # the wall of 2**64 - 5), so it is refused before anything is written;
    # a rule that draws nothing gets the same verdict
    out = tmp_path / "w.txt"
    argv = [command, "--rule", rule, "--seed-brick",
            "0" if rule == "ptm" else "B22", "-n", "2", "--rng-seed", str(seed)]
    argv += ["-p", "1/2"] if rule == "random_pp" else []
    argv += {"generate": ["--out", str(out)], "analyze": [],
             "sample": ["--trials", "3"]}[command]
    code, stdout, stderr = run(*argv)
    if ok:
        assert (code, stderr) == (0, "")
    else:
        assert (code, stdout) == (2, "")
        assert stderr == f"error: rng seed {seed} outside [0, 2**64)\n"
    assert out.exists() == (ok and command == "generate")
    if out.exists() and rule != "random_pp":  # the wall of no seed
        assert out.read_text().startswith(f"# rule={rule} n=2 seed=-\n")


def test_cli_module_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "brickwall.cli", "validate", "--rule", "ptm"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("ok: rule 'ptm'")


def test_scripts_run_as_fresh_processes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    scripts = ROOT / "scripts"

    def script(name, *args):
        return subprocess.run(
            [sys.executable, str(scripts / name), *args],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)

    figures = tmp_path / "figures"
    res = script("render_figures.py", "--outdir", str(figures))
    assert (res.returncode, res.stderr) == (0, "")
    gallery = runpy.run_path(str(scripts / "render_figures.py"))["GALLERY"]
    assert len(gallery) == 9
    assert sorted(p.name for p in figures.iterdir()) == sorted(
        row[0] for row in gallery)
    for fname, name, seed_brick, n, rng_seed, p in gallery:
        rule = builtin(name, p=p)
        pat = generate_pattern(rule, seed_brick, n, rng_seed=rng_seed)
        assert (figures / fname).read_text() == to_svg(pat, rule), fname
    res = script("vmax_vs_p.py", "--trials", "3", "-n", "3", "--steps", "2")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == ("     p   min     mean   max\n"
                          "     0    16    16.00    16\n"
                          "   1/2    14    14.00    14\n"
                          "     1     2     2.00     2\n")


GEN = "generate --rule sigma3 --seed-brick B22 -n 3 --out "


@pytest.mark.parametrize("argv, loads", [
    ("spectrum --rule sigma3", {"spectral"}),
    ("count --rule sigma3 --seed-brick B22 -n 3", {"spectral"}),
    ("validate --rule ptm", set()),
    ("validate --rule sigma3", {"generate", "spectral"}),
    (GEN + "{tmp}/wall.txt", {"generate", "spectral"}),
    (GEN + "{tmp}/wall.svg", {"generate", "spectral", "svg"}),
    ("analyze --rule sigma3 --seed-brick B22 -n 3",
     {"generate", "spectral", "joints"}),
    ("sample --rule random_pp --seed-brick B22 -n 2 -p 1/2 --trials 3",
     {"generate", "spectral", "joints", "stats"}),
    (None, set()),  # a bare `import brickwall`: no submodule
], ids=["spectrum", "count", "validate-block", "validate-geometric",
        "generate-txt", "generate-svg", "analyze", "sample", "import"])
def test_cli_import_leaves_module_out(argv, loads, tmp_path):
    # a process compiles each module it imports when no bytecode is cached,
    # so each subcommand imports only what it runs; the spectrum is plain
    # Python, so no command imports numpy, and dataclasses (with inspect and
    # tokenize) would cost every process its import
    run = "import brickwall\n"
    if argv is not None:
        argv = argv.format(tmp=tmp_path).split()
        run = ("import io, contextlib, brickwall.cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert brickwall.cli.main({argv!r}) == 0\n")
        loads = loads | {"cli", "builtins", "rng", "rules"}  # every command's
    res = subprocess.run(
        [sys.executable, "-c", "import sys\n" + run +
         "print(sorted(m for m in sys.modules if m.startswith('brickwall')))\n"
         "print('numpy' in sys.modules, 'dataclasses' in sys.modules)"],
        capture_output=True, text=True, check=True)
    expected = sorted(["brickwall", *(f"brickwall.{m}" for m in loads)])
    assert res.stdout == f"{expected}\nFalse False\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_cli_closed_stdout_exits_2_quietly(unbuffered):
    # `brickwall spectrum ... | (exec 0<&-; ...)`: the reader is gone, and
    # a buffered stdout fails only when it is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "brickwall.cli", "spectrum", "--rule",
             "sigma3"], stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (2, "")


def test_bricks_is_a_cached_view_of_the_rows():
    wall = iterate(builtin("sigma3"), "B22", 3)
    view = wall.bricks
    assert all(type(b) is Brick for b in view)
    assert [(b.type_id, b.x, b.y, b.width, b.height) for b in view] == \
        list(wall.rows)
    assert view == wall.rows and all(type(r) is tuple for r in wall.rows)
    assert wall.bricks is view
    head = (wall.rule_name, wall.level, wall.rng_seed)
    from_rows, from_bricks = Pattern(*head, wall.rows), Pattern(*head, view)
    assert from_rows == from_bricks == wall
    assert (wall == 5) is False
    assert hash(from_rows) == hash(from_bricks)
    assert all(type(r) is tuple for r in from_bricks.rows)


def test_analyses_never_build_the_brick_view(monkeypatch, tmp_path, capsys):
    def refuse(pattern):
        raise AssertionError("the Brick view was built")

    monkeypatch.setattr(Pattern, "bricks", property(refuse))
    sigma3 = builtin("sigma3")
    wall = iterate(sigma3, "B22", 3)
    vertical_joints(wall)
    to_svg(wall, sigma3)
    format_pattern(wall)
    analyze(sigma3, "B22", 3)
    analyze(builtin("ptm_skewed"), "0", 3)
    sample_vmax(builtin("random_pp"), "B22", 3, Fraction(1, 2), trials=5)
    for rule, seed in (("sigma3", "B22"), ("ptm_skewed", "0")):
        for out in ("wall.svg", "wall.txt"):
            assert main(["generate", "--rule", rule, "--seed-brick", seed,
                         "-n", "3", "--out", str(tmp_path / out)]) == 0
        assert main(["analyze", "--rule", rule, "--seed-brick", seed,
                     "-n", "3"]) == 0
