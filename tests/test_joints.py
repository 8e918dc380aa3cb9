"""Vertical joints, crossings, and empirical type frequencies."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brickwall.generate
import brickwall.joints
from brickwall import (BUILTIN_SOURCES, Brick, Joint, Pattern, builtin,
                       check_prop2, parse_rule,
                       crossing_options, empirical_frequencies,
                       generate_pattern, has_crossing, iterate, prop2_bound,
                       report_with_crossings, v_max_at, vertical_joints)
from brickwall.cli import main
from oracles import rasterized_joints


def _pattern(bricks):
    return Pattern("adhoc", 0, None, None, tuple(bricks))


def test_joints_single_brick():
    rep = vertical_joints(_pattern([Brick("A", 0, 0, 2, 1)]))
    assert rep.joints == () and rep.v_max == 0


def test_joints_two_stacked_bricks():
    # edges at x=2 span rows 0..3 but nothing lies right of x=2 except the
    # bricks themselves, so only interior lines count
    pat = _pattern([Brick("A", 0, 0, 2, 1), Brick("A", 0, 1, 2, 2),
                    Brick("B", 2, 0, 1, 3)])
    rep = vertical_joints(pat)
    assert rep.joints == (Joint(2, 0, 3),)
    assert rep.v_max == 3


def test_joints_offset_rows_split():
    # running bond: every interior line carries only single-row joints,
    # including the ragged ends where one row stops short of the other
    pat = _pattern([Brick("A", 0, 0, 2, 1), Brick("A", 2, 0, 2, 1),
                    Brick("A", -1, 1, 2, 1), Brick("A", 1, 1, 2, 1),
                    Brick("A", 3, 1, 2, 1)])
    rep = vertical_joints(pat)
    assert set(rep.joints) == {Joint(0, 0, 1), Joint(1, 1, 2), Joint(2, 0, 1),
                               Joint(3, 1, 2), Joint(4, 0, 1)}
    assert rep.v_max == 1


def test_sigma3_image_joint():
    rep = vertical_joints(iterate(builtin("sigma3"), "B22", 1))
    assert Joint(1, 0, 3) in rep.joints
    assert rep.v_max == 3


def test_sigma3_b21_image_joint():
    rep = vertical_joints(iterate(builtin("sigma3"), "B21", 1))
    assert Joint(1, 0, 2) in rep.joints
    assert rep.v_max == 2


def test_v_max_reference_values():
    assert v_max_at(builtin("sigma3"), "B11", 1) == 1
    assert v_max_at(builtin("sigma3"), "B21", 1) == 2
    assert v_max_at(builtin("sigma3"), "B22", 1) == 3
    assert v_max_at(builtin("sigma3"), "B22", 3) == 11


def test_v_max_monotone_sigma3():
    vals = [v_max_at(builtin("sigma3"), "B22", n) for n in (1, 2, 3)]
    assert vals == [3, 4, 11]


def test_v_max_block_dispatch():
    assert v_max_at(builtin("ptm_skewed"), "0", 4) == 2
    assert v_max_at(builtin("rows23"), "B21", 3) == 3


def test_joints_disjoint_per_line():
    rep = vertical_joints(iterate(builtin("sigma3"), "B22", 3))
    by_x: dict = {}
    for j in rep.joints:
        by_x.setdefault(j.x, []).append(j)
    for js in by_x.values():
        js.sort(key=lambda j: j.y0)
        for a, b in zip(js, js[1:]):
            assert a.y1 < b.y0  # merged runs cannot touch


@pytest.mark.parametrize("name,seed,n", [
    ("sigma3", "B22", 3), ("sigma3", "B21", 2), ("rows23", "B21", 3),
    ("ptm", "0", 4), ("ptm_skewed", "1", 4)])
def test_joints_match_raster_oracle(name, seed, n):
    pat = generate_pattern(builtin(name), seed, n)
    got = sorted((j.x, j.y0, j.y1) for j in vertical_joints(pat).joints)
    assert got == rasterized_joints(pat)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_joints_match_raster_oracle(seed):
    pat = iterate(builtin("random_self_similar"), "B22", 3, rng_seed=seed)
    got = sorted((j.x, j.y0, j.y1) for j in vertical_joints(pat).joints)
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
    got = sorted((j.x, j.y0, j.y1) for j in vertical_joints(pat).joints)
    assert got == rasterized_joints(pat)
    rep = vertical_joints(pat)
    assert all(j.length >= 1 for j in rep.joints)


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


def test_prop2_bound_values():
    # 2 * max brick height * (lambda2 - 1)
    assert prop2_bound(builtin("rows23")) == 4
    assert prop2_bound(builtin("sigma3")) == 4
    assert prop2_bound(builtin("random_pp", p=Fraction(1, 2))) == 4
    assert prop2_bound(builtin("ptm_skewed")) == 2


def test_check_prop2_rows23():
    verdict = check_prop2(builtin("rows23"), "B21", 4)
    assert verdict.crossings == {"B11": False, "B21": False}
    assert verdict.hypothesis_holds is True
    assert verdict.bound == 4
    assert verdict.measured_max == 3
    assert verdict.bound_respected is True


def test_check_prop2_sigma3_hypothesis_fails():
    verdict = check_prop2(builtin("sigma3"), "B22", 3)
    assert verdict.crossings["B21"] is True
    assert verdict.hypothesis_holds is False
    assert verdict.measured_max == 11
    assert verdict.bound_respected is True  # bound only claimed when it holds


def test_check_prop2_block_rule():
    verdict = check_prop2(builtin("ptm_skewed"), "0", 4)
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
    assert check_prop2(builtin("sigma3"), "B22", 4).measured_max == 11
    assert calls == {"steps": 4, "has_crossing": 3}


def test_check_prop2_rejects_random():
    with pytest.raises(ValueError):
        check_prop2(builtin("random_self_similar"), "B22", 2)


def test_report_with_crossings_payload():
    rule = builtin("sigma3")
    rep = report_with_crossings(vertical_joints(iterate(rule, "B22", 2)), rule)
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
    without_rule = empirical_frequencies(_pattern([Brick("A", 0, 0, 1, 1)]))
    assert without_rule == {"A": 1}
    with pytest.raises(ValueError):
        empirical_frequencies(_pattern([]))
