"""Vertical joints, crossings, and empirical type frequencies."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import brickwall.generate
import brickwall.joints
from brickwall import (BUILTIN_SOURCES, Brick, Pattern, analyze, builtin,
                       parse_rule, crossing_options,
                       generate_pattern, has_crossing, iterate, prop2_bound,
                       report_with_crossings, vertical_joints)
from brickwall.cli import main
from brickwall.joints import _bricks_have_crossing, _image_bricks
from oracles import (empirical_frequencies, rasterized_crossing,
                     rasterized_joints)


def _pattern(bricks):
    return Pattern("adhoc", 0, None, tuple(bricks))


def test_joints_single_brick():
    rep = vertical_joints(_pattern([Brick("A", 0, 0, 2, 1)]))
    assert rep.joints == () and rep.v_max == 0


def test_joints_two_stacked_bricks():
    # edges at x=2 span rows 0..3 but nothing lies right of x=2 except the
    # bricks themselves, so only interior lines count
    pat = _pattern([Brick("A", 0, 0, 2, 1), Brick("A", 0, 1, 2, 2),
                    Brick("B", 2, 0, 1, 3)])
    rep = vertical_joints(pat)
    assert rep.joints == ((2, 0, 3),)
    assert rep.v_max == 3


def test_joints_offset_rows_split():
    # running bond: every interior line carries only single-row joints,
    # including the ragged ends where one row stops short of the other
    pat = _pattern([Brick("A", 0, 0, 2, 1), Brick("A", 2, 0, 2, 1),
                    Brick("A", -1, 1, 2, 1), Brick("A", 1, 1, 2, 1),
                    Brick("A", 3, 1, 2, 1)])
    rep = vertical_joints(pat)
    assert set(rep.joints) == {(0, 0, 1), (1, 1, 2), (2, 0, 1), (3, 1, 2),
                               (4, 0, 1)}
    assert rep.v_max == 1


def test_sigma3_image_joint():
    rep = vertical_joints(iterate(builtin("sigma3"), "B22", 1))
    assert (1, 0, 3) in rep.joints
    assert rep.v_max == 3


def test_sigma3_b21_image_joint():
    rep = vertical_joints(iterate(builtin("sigma3"), "B21", 1))
    assert (1, 0, 2) in rep.joints
    assert rep.v_max == 2


def _v_max(rule, seed_type, n):
    return vertical_joints(generate_pattern(rule, seed_type, n)).v_max


def test_v_max_reference_values():
    assert _v_max(builtin("sigma3"), "B11", 1) == 1
    assert _v_max(builtin("sigma3"), "B21", 1) == 2
    assert _v_max(builtin("sigma3"), "B22", 1) == 3
    assert _v_max(builtin("sigma3"), "B22", 3) == 11


def test_v_max_monotone_sigma3():
    vals = [_v_max(builtin("sigma3"), "B22", n) for n in (1, 2, 3)]
    assert vals == [3, 4, 11]


def test_v_max_block_dispatch():
    assert _v_max(builtin("ptm_skewed"), "0", 4) == 2
    assert _v_max(builtin("rows23"), "B21", 3) == 3


def test_joints_disjoint_per_line():
    rep = vertical_joints(iterate(builtin("sigma3"), "B22", 3))
    by_x: dict = {}
    for x, y0, y1 in rep.joints:
        by_x.setdefault(x, []).append((y0, y1))
    for js in by_x.values():
        js.sort()
        for a, b in zip(js, js[1:]):
            assert a[1] < b[0]  # merged runs cannot touch


@pytest.mark.parametrize("name,seed,n", [
    ("sigma3", "B22", 3), ("sigma3", "B21", 2), ("rows23", "B21", 3),
    ("ptm", "0", 4), ("ptm_skewed", "1", 4)])
def test_joints_match_raster_oracle(name, seed, n):
    pat = generate_pattern(builtin(name), seed, n)
    got = sorted(vertical_joints(pat).joints)
    assert got == rasterized_joints(pat)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_joints_match_raster_oracle(seed):
    pat = iterate(builtin("random_self_similar"), "B22", 3, rng_seed=seed)
    got = sorted(vertical_joints(pat).joints)
    assert got == rasterized_joints(pat)


@given(st.lists(st.lists(st.integers(1, 4), min_size=2, max_size=7),
                min_size=2, max_size=5),
       st.lists(st.integers(-2, 2), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_joint_runs_match_raster_on_row_walls(rows, starts):
    bricks = []
    for y, widths in enumerate(rows):
        x = starts[y % len(starts)]
        for w in widths:
            bricks.append(Brick(f"W{w}", x, y, w, 1))
            x += w
    pat = _pattern(bricks)
    got = sorted(vertical_joints(pat).joints)
    assert got == rasterized_joints(pat)
    rep = vertical_joints(pat)
    assert all(y1 - y0 >= 1 for _, y0, y1 in rep.joints)


def test_crossing_options_reference():
    assert crossing_options(builtin("sigma3"), "B21") == (True,)
    assert crossing_options(builtin("sigma3"), "B11") == (False,)
    assert crossing_options(builtin("sigma3"), "B22") == (False,)
    assert crossing_options(builtin("rows23"), "B11") == (False,)
    assert crossing_options(builtin("rows23"), "B21") == (False,)


@pytest.mark.parametrize("name", ["sigma3", "rows23", "random_self_similar",
                                  "random_pp"])
def test_crossing_options_ignore_placement_order(name):
    # every builtin image lists its placements bottom row first; a rule may
    # list them in any order and the verdicts must not change
    source = BUILTIN_SOURCES[name]
    rule = parse_rule(source)
    assert rule.engine == "geometric"
    want = {tid: crossing_options(rule, tid) for tid in rule.type_ids}
    for permute in (list.reverse, random.Random(1).shuffle,
                    random.Random(2).shuffle):
        def permuted(m):
            placements = m.group(1).split(";")
            permute(placements)
            return "{" + ";".join(placements) + "}"

        shuffled = parse_rule(re.sub(r"\{([^}]*)\}", permuted, source))
        assert shuffled.images != rule.images
        assert {tid: crossing_options(shuffled, tid)
                for tid in shuffled.type_ids} == want


def test_crossing_options_random_rules():
    rss = builtin("random_self_similar")
    assert crossing_options(rss, "B12") == (False, False)
    assert crossing_options(rss, "B22") == (True, True)
    pp = builtin("random_pp", p=Fraction(1, 2))
    assert crossing_options(pp, "B12") == (False, False)
    assert crossing_options(pp, "B22") == (True, False)


def test_crossing_options_block_rules():
    assert crossing_options(builtin("ptm"), "0") == (False,)
    assert crossing_options(builtin("ptm"), "1") == (False,)
    assert crossing_options(builtin("ptm_skewed"), "0") == (False,)
    assert crossing_options(builtin("ptm_skewed"), "1") == (True,)


def test_has_crossing_any_option():
    assert has_crossing(builtin("sigma3"), "B21")
    assert not has_crossing(builtin("sigma3"), "B22")
    assert has_crossing(builtin("random_pp", p=Fraction(1, 2)), "B22")


@st.composite
def _overlap_free_bricks(draw):
    # drawn bricks that overlap an earlier one are dropped
    bricks = []
    for x, y, w, h in draw(st.lists(st.tuples(
            st.integers(0, 5), st.integers(0, 5), st.integers(1, 3),
            st.integers(1, 3)), min_size=1, max_size=10)):
        if not any(x < b.x + b.width and b.x < x + w
                   and y < b.y + b.height and b.y < y + h for b in bricks):
            bricks.append(Brick("A", x, y, w, h))
    return _pattern(bricks).bricks


@settings(deadline=None)
@given(bricks=_overlap_free_bricks())
# row neighbours that share an edge: the left one taller, the right one
# taller, equal heights
@example(bricks=(Brick("A", 0, 0, 1, 3), Brick("A", 1, 0, 1, 1)))
@example(bricks=(Brick("A", 0, 0, 1, 1), Brick("A", 1, 0, 1, 3)))
@example(bricks=(Brick("A", 0, 0, 2, 2), Brick("A", 2, 0, 1, 2),
                 Brick("A", 0, 2, 3, 1)))
# a neighbour on the same x from a higher y0, and a gap within a row
@example(bricks=(Brick("A", 0, 0, 1, 1), Brick("A", 1, 2, 1, 1)))
@example(bricks=(Brick("A", 0, 0, 1, 2), Brick("A", 2, 0, 1, 1),
                 Brick("A", 1, 1, 1, 2)))
def test_joints_match_raster_on_mixed_heights(bricks):
    pat = _pattern(bricks)
    assert sorted(vertical_joints(pat).joints) == rasterized_joints(pat)


def _builtin_crossing_inputs():
    """Every builtin image option, and every level-1 block wall."""
    for name in BUILTIN_SOURCES:
        rule = builtin(name)
        for tid in rule.type_ids:
            if rule.engine == "block":
                yield generate_pattern(rule, tid, 1).bricks
            else:
                for opt in rule.images[tid]:
                    yield _image_bricks(opt)


def _with_builtin_examples(test):
    for bricks in _builtin_crossing_inputs():
        test = example(bricks=bricks)(test)
    return test


@settings(deadline=None)
@given(bricks=_overlap_free_bricks())
@_with_builtin_examples
def test_crossing_matches_raster(bricks):
    assert _bricks_have_crossing(bricks) == rasterized_crossing(bricks)


def test_crossing_cost_ignores_brick_size():
    # four 10^5-side bricks: a unit-cell raster would hold 4 * 10^10 cells
    rule = parse_rule("rule big\nengine geometric\nexpansion 2 2\n"
                      "brick A 100000 100000\n"
                      "image A { A @ 0 0 ; A @ 100000 0 ; A @ 0 100000 ;"
                      " A @ 100000 100000 }\nend\n")
    start = time.perf_counter()
    assert crossing_options(rule, "A") == (True,)
    assert time.perf_counter() - start < 1


def test_prop2_bound_values():
    # 2 * max brick height * (lambda2 - 1)
    assert prop2_bound(builtin("rows23")) == 4
    assert prop2_bound(builtin("sigma3")) == 4
    assert prop2_bound(builtin("random_pp", p=Fraction(1, 2))) == 4
    assert prop2_bound(builtin("ptm_skewed")) == 2


def test_check_prop2_rows23():
    verdict = analyze(builtin("rows23"), "B21", 4)[1]
    assert verdict.crossings == {"B11": False, "B21": False}
    assert verdict.hypothesis_holds is True
    assert verdict.bound == 4
    assert verdict.measured_max == 3
    assert verdict.bound_respected is True


def test_check_prop2_sigma3_hypothesis_fails():
    verdict = analyze(builtin("sigma3"), "B22", 3)[1]
    assert verdict.crossings["B21"] is True
    assert verdict.hypothesis_holds is False
    assert verdict.measured_max == 11
    assert verdict.bound_respected is True  # bound only claimed when it holds


def test_check_prop2_block_rule():
    verdict = analyze(builtin("ptm_skewed"), "0", 4)[1]
    assert verdict.crossings == {}
    assert verdict.hypothesis_holds is None
    assert verdict.bound is None
    assert verdict.measured_max == 2
    assert verdict.bound_respected is None


def test_analysis_builds_each_level_once(monkeypatch, capsys):
    calls = {"steps": 0, "has_crossing": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(brickwall.generate, "_substitute_bricks",
                        counted("steps", brickwall.generate._substitute_bricks))
    monkeypatch.setattr(brickwall.joints, "has_crossing",
                        counted("has_crossing", brickwall.joints.has_crossing))
    assert main(["analyze", "--rule", "sigma3", "--seed-brick", "B22",
                 "-n", "7"]) == 0
    assert "34077 bricks" in capsys.readouterr().out
    assert calls == {"steps": 7, "has_crossing": 3}  # one per type
    calls.update(steps=0, has_crossing=0)
    assert analyze(builtin("sigma3"), "B22", 4)[1].measured_max == 11
    assert calls == {"steps": 4, "has_crossing": 3}


@pytest.mark.parametrize("name, seed, n", [
    ("sigma3", "B11", 3), ("sigma3", "B11", 4), ("sigma3", "B22", 2),
    ("ptm", "0", 3)])
def test_analysis_measures_every_level(name, seed, n):
    # sigma3 from B11 reads v_max 0, 1, 4, 3, 7 at n = 0..4, so the bound is
    # measured at a level below n; only level n gets the full report
    rule = builtin(name)
    walls = list(brickwall.generate.levels(rule, seed, n))
    report, verdict = analyze(rule, seed, n)
    assert verdict.measured_max == max(vertical_joints(w).v_max for w in walls)
    assert report == report_with_crossings(vertical_joints(walls[-1]), rule)


def test_check_prop2_rejects_random():
    rule = builtin("random_self_similar")
    with pytest.raises(ValueError):
        analyze(rule, "B22", 2)
    assert analyze(rule, "B22", 2, rng_seed=1)[1] is None


def test_report_with_crossings_payload():
    rule = builtin("sigma3")
    bare = vertical_joints(iterate(rule, "B22", 2))
    rep = report_with_crossings(bare, rule)
    assert bare.crossings is None and rep == bare._replace(crossings=rep.crossings)
    data = rep.to_json()
    assert data["v_max"] == 4
    assert data["crossings"] == {"B11": False, "B21": True, "B22": False}
    assert all(set(j) == {"x", "y0", "y1"} for j in data["joints"])


def test_empirical_frequencies_exact():
    freqs = empirical_frequencies(iterate(builtin("sigma3"), "B22", 1),
                                  builtin("sigma3"))
    assert freqs == {"B11": Fraction(4, 9), "B21": Fraction(4, 9),
                     "B22": Fraction(1, 9)}
    assert sum(freqs.values()) == 1


def test_empirical_frequencies_single_and_errors():
    freqs = empirical_frequencies(iterate(builtin("sigma3"), "B11", 0),
                                  builtin("sigma3"))
    assert freqs == {"B11": 1, "B21": 0, "B22": 0}
    with pytest.raises(ValueError):
        empirical_frequencies(_pattern([]), builtin("sigma3"))
