"""Generation engine: iterate, substitute_once, block grids, pattern text."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import brickwall.generate
from brickwall import (BUILTIN_SOURCES, Brick, LetterGrid, OverlapError,
                       Pattern, RuleError, SplitMix64, analyze, builtin,
                       check_no_overlap,
                       count_bricks, format_pattern, generate_pattern,
                       iterate, iterate_block, parse_pattern, parse_rule,
                       render_grid, sample_vmax, substitute_once, to_svg,
                       vertical_joints)
from brickwall.generate import (MAX_BRICKS, _SUPERTILE_LEVELS,
                                _substitute_bricks, levels,
                                overlap_certificate)
from oracles import count_draws, ptm_oracle, sorted_substitution_step

SIGMA3_B22_IMAGE = {
    ("B21", -1, 0), ("B22", 1, 0), ("B11", 0, 1), ("B11", 3, 1),
    ("B21", -1, 2), ("B11", 1, 2), ("B11", 2, 2), ("B21", 0, 3), ("B21", 2, 3),
}

# valid per image (area 4, no internal overlap), but neighboring bricks
# collide from depth 2 on
CLASH_RULE = ("rule clash\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
              "image A { A @ 0 0 ; A @ 1 0 ; A @ 2 0 ; A @ 3 0 }\nend\n")

# frozen digest of iterate(random_self_similar, B22, 2, rng_seed=1)
GOLDEN_RSS_SHA = "d1451eb391053a02cd61740d5b3b3f5731b65ad94bdadd4a0ba8bc8ff0fd17fb"


def test_iterate_level_zero():
    pat = iterate(builtin("sigma3"), "B11", 0)
    assert pat.bricks == (Brick("B11", 0, 0, 1, 1),)
    assert pat.level == 0 and pat.rng_seed is None


def test_sigma3_single_step_image():
    pat = iterate(builtin("sigma3"), "B22", 1)
    assert {(b.type_id, b.x, b.y) for b in pat.bricks} == SIGMA3_B22_IMAGE
    assert pat.area == 16


def test_substitute_once_single_brick():
    rule = builtin("sigma3")
    pat = Pattern("sigma3", 0, None, (Brick("B21", 0, 0, 2, 1),))
    out = substitute_once(rule, pat)
    assert {(b.type_id, b.x, b.y) for b in out.bricks} == {
        ("B21", -1, 0), ("B22", 1, 0), ("B11", 0, 1), ("B11", 3, 1)}
    assert out.level == 1


def test_substitute_once_needs_a_bound_rule_and_an_rng():
    pat = Pattern("adhoc", 0, None, (Brick("B22", 0, 0, 2, 2),))
    with pytest.raises(RuleError, match="unbound parameter p"):
        substitute_once(builtin("random_pp"), pat, SplitMix64(1))
    with pytest.raises(RuleError, match="an rng is required"):
        substitute_once(builtin("random_self_similar"), pat)
    wide = Pattern("adhoc", 0, None, (("B21", 0, 0, 3, 1),))
    with pytest.raises(RuleError) as refused:
        substitute_once(builtin("sigma3"), wide)
    assert str(refused.value) == "brick B21@(0,0) has size 3x1, rule says 2x1"


def test_substitute_once_empty_pattern():
    rule = builtin("sigma3")
    empty = Pattern("sigma3", 0, None, ())
    assert substitute_once(rule, empty).bricks == ()


def test_iterate_errors():
    rule = builtin("sigma3")
    with pytest.raises(RuleError):
        iterate(rule, "B99", 1)
    with pytest.raises(ValueError):
        iterate(rule, "B11", -1)
    with pytest.raises(ValueError):
        iterate(rule, "B11", 13)  # default depth cap
    with pytest.raises(RuleError):
        iterate(builtin("random_self_similar"), "B22", 2)  # no rng_seed
    with pytest.raises(RuleError):
        iterate(builtin("random_pp"), "B22", 2, rng_seed=1)  # unbound p
    with pytest.raises(RuleError):
        iterate(builtin("ptm"), "0", 2)  # block rule


def test_deterministic_composition():
    rule = builtin("sigma3")
    pat = iterate(rule, "B22", 2)
    assert substitute_once(rule, pat).bricks == iterate(rule, "B22", 3).bricks


def test_random_composition_single_stream():
    rule = builtin("random_self_similar")
    rng = SplitMix64(42)
    pat = Pattern(rule.name, 0, 42, (Brick("B22", 0, 0, 2, 2),))
    for _ in range(4):
        pat = substitute_once(rule, pat, rng)
    assert pat.bricks == iterate(rule, "B22", 4, rng_seed=42).bricks


def test_option_selection_interval_convention():
    # one draw per brick; at prob 1/2 the first option wins iff draw < 2^63
    rule = builtin("random_self_similar")
    for seed in (0, 1, 7, 123456789):
        draw = SplitMix64(seed).next_u64()
        opt = rule.images["B22"][0 if draw < 2 ** 63 else 1]
        pat = iterate(rule, "B22", 1, rng_seed=seed)
        assert {(b.type_id, b.x, b.y) for b in pat.bricks} == {
            (pl.type_id, pl.x, pl.y) for pl in opt.placements}


def test_frozen_random_pattern_digest():
    pat = iterate(builtin("random_self_similar"), "B22", 2, rng_seed=1)
    digest = hashlib.sha256(format_pattern(pat).encode()).hexdigest()
    assert len(pat.bricks) == 24
    assert digest == GOLDEN_RSS_SHA


# a one-option type beside a two-option one, bound at p = 1/3
MIXED_RULE = (
    "rule mixed\nengine geometric\nexpansion 2 2\nbrick B12 1 2\nbrick B22 2 2\n"
    "image B12 { B22 @ 0 0 ; B12 @ 0 2 ; B12 @ 1 2 }\n"
    "image B22 prob p { B12 @ 0 0 ; B22 @ 1 0 ; B12 @ 3 0 ; B22 @ 0 2 ;"
    " B12 @ 2 2 ; B12 @ 3 2 }\n"
    "image B22 prob 1-p { B12 @ 0 0 ; B22 @ 1 0 ; B12 @ 3 0 ; B12 @ 0 2 ;"
    " B12 @ 1 2 ; B22 @ 2 2 }\nend\n")


# frozen digests of level-4 walls (rng_seed=1) whose draws meet thresholds
# that are not dyadic, so a rounding error in them would show
@pytest.mark.parametrize("rule, p, seed, size, digest", [
    ("random_pp", Fraction(3, 10), "B22", 430,
     "ea5c1e86be48472b610ba99d6b49dac2bf5a2a65c238d90930eac2d804769820"),
    ("random_pp", Fraction(7, 10), "B22", 342,
     "36502669c36c3e171b6d424563506d3926bf0918301802b88722ce136aa799eb"),
    (MIXED_RULE, Fraction(1, 3), "B22", 384,
     "6f9f52025b12672bc423e922eed858fdc017a426fb7cce84c9b41d2b565248d1"),
    (MIXED_RULE, Fraction(1, 3), "B12", 192,
     "67f1bdf40f1cf9912e0f82ba2972e24c72420341df4f194c2a981c0b382e28c2"),
])
def test_frozen_threshold_digests(rule, p, seed, size, digest):
    rule = (builtin(rule) if rule == "random_pp" else parse_rule(rule)).bind(p)
    pat = iterate(rule, seed, 4, rng_seed=1)
    assert len(pat.bricks) == size
    assert hashlib.sha256(format_pattern(pat).encode()).hexdigest() == digest


class _FixedDraw:
    """An rng whose every draw is one given value."""

    def __init__(self, value):
        self.value, self.draws = value, 0

    def next_u64(self):
        self.draws += 1
        return self.value

    def take(self, k):
        self.draws += k
        return iter([self.value] * k)


@pytest.mark.parametrize("rule", [
    *(builtin("random_pp", p=Fraction(p)) for p in
      ("0", "1/3", "3/10", "1/2", "7/10", "1")),
    builtin("random_self_similar")])
def test_draws_at_every_threshold_pick_the_exact_option(rule):
    # option k is the first whose cumulative probability P = num/den has
    # d * den < num * 2^64; check the draws just below and at each ceiling
    for t in rule.types:
        options = rule.images[t.id]
        cumulative = [sum((o.probability.value for o in options[:k + 1]),
                          Fraction(0)) for k in range(len(options))]
        for P in cumulative:
            ceiling = -((-P.numerator << 64) // P.denominator)
            for d in {min(max(c, 0), 2 ** 64 - 1) for c in (ceiling - 1, ceiling)}:
                k = next((k for k, Q in enumerate(cumulative[:-1])
                          if d * Q.denominator < Q.numerator << 64),
                         len(options) - 1)
                rng = _FixedDraw(d)
                seed = Pattern(rule.name, 0, None,
                               (Brick(t.id, 0, 0, t.width, t.height),))
                got = substitute_once(rule, seed, rng)
                assert rng.draws == 1
                assert sorted((b.type_id, b.x, b.y) for b in got.bricks) == \
                    sorted((pl.type_id, pl.x, pl.y)
                           for pl in options[k].placements), (t.id, d)


def test_one_draw_per_brick_of_a_two_option_type(monkeypatch):
    rule = builtin("random_pp", p=Fraction(3, 10))
    sizes = [len(w) for w in levels(rule, "B22", 3, rng_seed=1)]
    draws = count_draws(monkeypatch)
    iterate(rule, "B22", 4, rng_seed=1)
    assert draws[0] == sum(sizes) == 1 + 8 + 24 + 114
    # a one-option type draws nothing
    draws[0] = 0
    mixed = parse_rule(MIXED_RULE).bind(Fraction(1, 3))
    pat = iterate(mixed, "B12", 1, rng_seed=1)
    assert (len(pat), draws[0]) == (3, 0)


def test_substitution_table_built_once_per_bound_rule(monkeypatch):
    built = []
    build = brickwall.generate._substitution_table
    monkeypatch.setattr(brickwall.generate, "_substitution_table",
                        lambda rule: built.append(rule) or build(rule))
    pp = builtin("random_pp")
    # each sample_vmax binds p once, and its trials share that rule's table;
    # it reads probabilities, so the two bound rules do not share one
    for p in (Fraction(1, 3), Fraction(1, 2)):
        sample_vmax(pp, "B22", 3, p, trials=4, base_seed=1)
    assert [rule.images["B22"][1].probability.value for rule in built] == \
        [Fraction(1, 3), Fraction(1, 2)]
    assert "substitution_table" not in vars(pp)


# child rows 2y - 2 .. 2y + 5 of parent row y: each child row takes
# children from three parent rows.  Each parent's children fill distinct
# cells mod (3, 2), so no two bricks of a wall overlap
SPREAD_RULE = ("rule spread\nengine geometric\nexpansion 3 2\n"
               "brick A 1 1\nbrick B 1 1\n"
               "image A { A @ 0 -2 ; B @ 1 0 ; A @ 2 4 ;"
               " B @ 0 5 ; A @ 1 1 ; B @ 2 3 }\n"
               "image B { B @ 0 -2 ; B @ 1 0 ; A @ 2 4 ;"
               " A @ 0 5 ; B @ 1 1 ; A @ 2 3 }\nend\n")


@pytest.mark.parametrize("name, p", [
    *((name, None) for name in BUILTIN_SOURCES
      if builtin(name).engine == "geometric" and name != "random_pp"),
    ("random_pp", Fraction(3, 10)), ("random_pp", Fraction(1, 2)),
    ("spread", None),
])
def test_filed_step_equals_the_sorted_step(name, p):
    rule = parse_rule(SPREAD_RULE) if name == "spread" else builtin(name, p=p)
    for seed_type in rule.type_ids:
        for rng_seed in (1, 7) if rule.is_random else (None,):
            for wall in levels(rule, seed_type, 4, rng_seed):
                rngs = [SplitMix64(wall.level) for _ in range(2)]
                assert _substitute_bricks(
                    rule.substitution_table, rule.lambda1, rule.lambda2,
                    wall.rows, rngs[0]) == \
                    sorted_substitution_step(rule, wall.rows, rngs[1])
                assert rngs[0].state == rngs[1].state  # the same draws


@given(seed=st.integers(0, 2 ** 64 - 1))
@settings(max_examples=40, deadline=None)
def test_random_iterate_deterministic_and_area(seed):
    rule = builtin("random_self_similar")
    a = iterate(rule, "B22", 2, rng_seed=seed)
    b = iterate(rule, "B22", 2, rng_seed=seed)
    assert a == b and hash(a) == hash(b)
    assert a != Pattern(a.rule_name, a.level, seed ^ 1, a.rows)
    assert len(a.bricks) == 24  # brick count independent of seed
    assert a.area == 16 * 4  # (lambda1*lambda2)^2 * area(B22)


@pytest.mark.parametrize("name", ["sigma3", "rows23"])
def test_area_conservation_deterministic(name):
    rule = builtin(name)
    for seed_type in rule.type_ids:
        t = rule.get_type(seed_type)
        for n in range(5):
            pat = iterate(rule, seed_type, n)
            assert pat.area == rule.expansion ** n * t.area


def test_generation_overlap_detected():
    # valid per image (area 4, no internal overlap), but neighboring bricks
    # collide after one step
    rule = parse_rule(
        "rule clash\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
        "image A { A @ 0 0 ; A @ 1 0 ; A @ 2 0 ; A @ 3 0 }\nend\n")
    pat = Pattern("clash", 0, None,
                  (Brick("A", 0, 0, 1, 1), Brick("A", 1, 0, 1, 1)))
    with pytest.raises(OverlapError):
        substitute_once(rule, pat)


@pytest.mark.parametrize("name", ["sigma3", "rows23", "random_self_similar",
                                  "random_pp"])
def test_geometric_builtins_are_certified(name):
    assert overlap_certificate(builtin(name)).verdict == "certified"


def test_certified_rule_skips_the_sweep(monkeypatch):
    def refuse(bricks):
        raise AssertionError("a certified rule was swept")

    rule = builtin("sigma3")
    monkeypatch.setattr(brickwall.generate, "check_no_overlap", refuse)
    assert len(iterate(rule, "B22", 3)) == count_bricks(rule, "B22", 3)
    assert [len(w) for w in levels(rule, "B22", 3)] == \
        [count_bricks(rule, "B22", n) for n in range(4)]
    assert len(analyze(rule, "B22", 3)[0].pattern) == \
        count_bricks(rule, "B22", 3)
    with pytest.raises(AssertionError):
        substitute_once(rule, iterate(rule, "B22", 1))  # input from outside


def test_certificate_is_cached_and_survives_bind():
    rule = builtin("random_pp")
    cert = rule.overlap_certificate
    assert rule.overlap_certificate is cert
    assert rule.bind(Fraction(1, 3)).overlap_certificate is cert
    fresh = builtin("random_pp")
    a, b = fresh.bind(Fraction(1, 3)), fresh.bind(Fraction(1, 2))
    # parse and bind pay nothing; bound copies share one computation
    assert "overlap_certificate" not in vars(fresh) | vars(a) | vars(b)
    assert a.overlap_certificate is b.overlap_certificate
    assert fresh.overlap_certificate is a.overlap_certificate
    assert a.overlap_certificate == cert


def test_clash_certificate_and_sweep():
    rule = parse_rule(CLASH_RULE)
    cert = overlap_certificate(rule)
    assert (cert.verdict, cert.seed_type, cert.level) == ("overlap", "A", 2)
    assert cert.message == \
        "overlap: A and A at offset (0, 0) in a level-2 wall of seed A"
    assert len(iterate(rule, "A", 1)) == 4
    with pytest.raises(OverlapError, match="near x=2, y=0"):
        iterate(rule, "A", 2)


def test_unit_expansion_is_undecided_and_still_swept():
    # lambda2 = 1: at depth 2 the upper child of the brick at (0, 0) and
    # the lower child of the brick at (0, 1) both land on (0, 1)
    rule = parse_rule("rule tower\nengine geometric\nexpansion 2 1\n"
                      "brick A 1 1\nimage A { A @ 0 0 ; A @ 0 1 }\nend\n")
    assert overlap_certificate(rule).verdict == "undecided"
    iterate(rule, "A", 1)
    with pytest.raises(OverlapError):
        iterate(rule, "A", 2)


_SIZES = {"A": (1, 1), "B": (2, 1)}
_BOX = [(x, y) for y in range(-1, 3) for x in range(-2, 5)]


@st.composite
def small_rules(draw):
    """Deterministic 2x2 rules over a 1x1 brick A and a 2x1 brick B that
    pass validate_rule: each image keeps the drawn placements that fit,
    then fills its area with A bricks, either over the inflated outline of
    its brick first or in a drawn order of cells."""
    lines = ["rule fuzz", "engine geometric", "expansion 2 2",
             "brick A 1 1", "brick B 2 1"]
    for tid, (w, h) in _SIZES.items():
        outline = [(x, y) for y in range(2 * h) for x in range(2 * w)]
        wanted = draw(st.lists(st.tuples(st.sampled_from("AB"),
                                         st.integers(-2, 4),
                                         st.integers(-1, 2)), max_size=3))
        fill = draw(st.one_of(st.just(outline + _BOX), st.permutations(_BOX)))
        taken, body, area = set(), [], 0
        for t, dx, dy in wanted + [("A", x, y) for x, y in fill]:
            cw, ch = _SIZES[t]
            cells = {(dx + i, dy + j) for i in range(cw) for j in range(ch)}
            if area + cw * ch <= 4 * w * h and not cells & taken:
                taken |= cells
                body.append(f"{t} @ {dx} {dy}")
                area += cw * ch
        lines.append(f"image {tid} {{ {' ; '.join(body)} }}")
    return parse_rule("\n".join(lines + ["end"]) + "\n")


@given(small_rules())
@example(builtin("sigma3"))
@example(parse_rule(CLASH_RULE))
@settings(max_examples=60, deadline=None)
def test_overlap_certificate_agrees_with_the_sweep(rule):
    cert = overlap_certificate(rule)
    if cert.verdict == "certified":
        for seed_type in rule.type_ids:
            for n in range(5):
                check_no_overlap(iterate(rule, seed_type, n).bricks)
        return
    # the certificate names the first depth at which any wall overlaps
    assert cert.verdict == "overlap"
    for seed_type in rule.type_ids:
        iterate(rule, seed_type, cert.level - 1)
    with pytest.raises(OverlapError):
        iterate(rule, cert.seed_type, cert.level)


@given(small_rules().filter(
    lambda rule: rule.overlap_certificate.verdict == "certified"))
@example(builtin("sigma3"))
@example(builtin("rows23"))
@settings(max_examples=30, deadline=None)
def test_iterate_equals_the_level_loop(rule):
    # n = 0..6 lies on both sides of the supertile step's _SUPERTILE_LEVELS
    for seed_type in rule.type_ids:
        for n, wall in enumerate(levels(rule, seed_type, 6)):
            pattern = iterate(rule, seed_type, n)
            assert pattern == wall  # rule name, level, rng_seed and rows
            assert (pattern.level, pattern.rng_seed) == (n, None)


# lambda2 = 1, so its overlap certificate is undecided
HOLES_RULE = ("rule holes\nengine geometric\nexpansion 2 1\nbrick A 2 1\n"
              "image A { A @ 0 0 ; A @ 3 0 }\nend\n")


def test_supertile_step_only_where_it_is_exact(monkeypatch):
    parsed = [builtin(name) for name in BUILTIN_SOURCES]
    random_rules = [builtin("random_self_similar"),
                    builtin("random_pp", p=0), builtin("random_pp", p=1)]
    # parsing and bind build no table
    assert all("supertile_table" not in vars(rule)
               for rule in parsed + random_rules)
    for rule in random_rules:  # whatever p, a random rule keeps the loop
        iterate(rule, "B22", 5, rng_seed=1)
    holes, sweeps = parse_rule(HOLES_RULE), []
    sweep = brickwall.generate.check_no_overlap
    monkeypatch.setattr(brickwall.generate, "check_no_overlap",
                        lambda rows: (sweeps.append(len(rows)), sweep(rows)))
    assert len(iterate(holes, "A", 4)) == 16
    assert sweeps == [2, 4, 8, 16]  # swept once per level
    sweeps.clear()
    assert [len(wall) for wall in levels(holes, "A", 4)] == [1, 2, 4, 8, 16]
    assert sweeps == [2, 4, 8, 16]  # levels sweeps as iterate does
    assert all("supertile_table" not in vars(rule)
               for rule in random_rules + [holes])


def test_each_supertile_is_built_once_per_rule():
    rule, k = builtin("sigma3"), _SUPERTILE_LEVELS
    iterate(rule, "B11", k - 1)
    assert rule.supertile_table == {}  # below k levels, no supertile step
    seed_wall = iterate(rule, "B11", k)
    assert rule.supertile_table == {"B11": ((), (seed_wall.rows,))}
    iterate(rule, "B11", k + 1)  # adds the types of B11's level-1 wall
    assert set(rule.supertile_table) == \
        {"B11"} | {t for t, *_ in iterate(rule, "B11", 1).rows}
    built = dict(rule.supertile_table)
    for seed_type in rule.type_ids:
        for n in range(k, k + 3):
            iterate(rule, seed_type, n)
    assert set(rule.supertile_table) == set(rule.type_ids)
    assert all(rule.supertile_table[t] is entry for t, entry in built.items())
    assert builtin("sigma3").supertile_table == {}  # one table per rule


@pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "2"])
def test_depth_must_be_an_int(n):
    # a bool would write the header n=True, which parse_pattern refuses
    sigma3, ptm = builtin("sigma3"), builtin("ptm")
    for call in [lambda: iterate(sigma3, "B22", n),
                 lambda: next(levels(sigma3, "B22", n)),
                 lambda: iterate_block(ptm, "0", n),
                 lambda: generate_pattern(ptm, "0", n)]:
        with pytest.raises(ValueError, match=f"^depth {re.escape(repr(n))}"
                                             " is not an int$"):
            call()


def test_brick_budget_fails_before_building():
    sigma3 = builtin("sigma3")
    assert count_bricks(sigma3, "B22", 10) > MAX_BRICKS
    with pytest.raises(RuleError, match=r"'sigma3' from seed 'B22' at n=12"
                                        r" can build 34896613 bricks"):
        iterate(sigma3, "B22", 12)
    pp = builtin("random_pp", p=Fraction(1, 2))
    with pytest.raises(RuleError, match="budget"):
        iterate(pp, "B22", 11, rng_seed=0)
    # a random rule's bound is capped by area: 4 * 4**7 / 2 bricks at most
    assert len(iterate(pp, "B22", 7, rng_seed=0)) <= 32768
    with pytest.raises(RuleError, match="4194304 bricks"):
        iterate_block(builtin("ptm"), "0", 11)


def test_check_no_overlap():
    check_no_overlap([Brick("A", 0, 0, 2, 1), Brick("A", 2, 0, 2, 1),
                      Brick("A", 0, 1, 4, 2)])
    with pytest.raises(OverlapError):
        check_no_overlap([Brick("A", 0, 0, 2, 2), Brick("A", 1, 1, 2, 2)])
    with pytest.raises(OverlapError):
        check_no_overlap([Brick("A", 0, 0, 1, 1), Brick("A", 0, 0, 1, 1)])


@given(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=6),
                min_size=1, max_size=5))
def test_check_no_overlap_accepts_row_walls(rows):
    bricks = []
    for y, widths in enumerate(rows):
        x = -2
        for w in widths:
            bricks.append(Brick(f"W{w}", x, y, w, 1))
            x += w
    check_no_overlap(bricks)


def test_iterate_block_basics():
    ptm = builtin("ptm")
    assert iterate_block(ptm, "0", 0).rows == (("0",),)
    assert iterate_block(ptm, "0", 1).rows == (("0", "1"), ("1", "0"))
    grid = iterate_block(ptm, "1", 3)
    assert len(grid.rows) == 8 and all(len(r) == 8 for r in grid.rows)
    with pytest.raises(RuleError):
        iterate_block(ptm, "2", 1)
    with pytest.raises(RuleError):
        iterate_block(builtin("sigma3"), "B11", 1)
    with pytest.raises(ValueError):
        iterate_block(ptm, "0", 13)


def test_ptm_oracle_values():
    assert ptm_oracle(0, 0) == "0"
    assert ptm_oracle(1, 0) == "1"
    assert ptm_oracle(3, 5) == "0"
    # first terms of the one-dimensional sequence
    assert [ptm_oracle(i, 0) for i in range(8)] == list("01101001")


@pytest.mark.parametrize("n", range(5))
def test_block_matches_parity_oracle(n):
    grid = iterate_block(builtin("ptm"), "0", n)
    for j, row in enumerate(grid.rows):
        for i, letter in enumerate(row):
            assert letter == ptm_oracle(i, j)


def test_render_grid_examples():
    skewed = builtin("ptm_skewed")
    pat = render_grid(skewed, iterate_block(skewed, "0", 1))
    assert {(b.type_id, b.x, b.y, b.width) for b in pat.bricks} == {
        ("0", 0, 0, 2), ("1", 2, 0, 3), ("1", 1, 1, 3), ("0", 4, 1, 2)}
    flat = builtin("ptm")
    pat = render_grid(flat, iterate_block(flat, "0", 1))
    assert {(b.type_id, b.x, b.y, b.width) for b in pat.bricks} == {
        ("0", 0, 0, 2), ("1", 2, 0, 3), ("1", 0, 1, 3), ("0", 3, 1, 2)}
    single = render_grid(flat, iterate_block(flat, "0", 0))
    assert single.bricks == (Brick("0", 0, 0, 2, 1),)


def test_render_grid_refuses_what_it_cannot_draw():
    # sigma3's B22 is 2x2, which a letter grid of 1-high rows cannot draw
    with pytest.raises(RuleError, match="rule 'sigma3' is not a block rule"):
        render_grid(builtin("sigma3"), LetterGrid((("B22",),), 0))
    with pytest.raises(RuleError,
                       match="unknown brick type 'x' in rule 'ptm'"):
        render_grid(builtin("ptm"), LetterGrid((("0", "1"), ("1", "x")), 1))


def test_generate_pattern_dispatch():
    assert generate_pattern(builtin("ptm"), "0", 2).level == 2
    assert generate_pattern(builtin("sigma3"), "B22", 1).area == 16


def test_pattern_text_round_trip():
    pat = iterate(builtin("random_self_similar"), "B22", 3, rng_seed=9)
    text = format_pattern(pat)
    assert text.splitlines()[0] == "# rule=random_self_similar n=3 seed=9"
    back = parse_pattern(text)
    assert back.bricks == pat.bricks
    assert (back.rule_name, back.level, back.rng_seed) == \
        (pat.rule_name, pat.level, pat.rng_seed)
    assert format_pattern(back) == text

    det = iterate(builtin("sigma3"), "B21", 2)
    text = format_pattern(det)
    assert text.splitlines()[0] == "# rule=sigma3 n=2 seed=-"
    assert parse_pattern(text).bricks == det.bricks


def test_parse_pattern_errors():
    with pytest.raises(ValueError, match="^empty pattern text$"):
        parse_pattern(" \n\n")
    with pytest.raises(ValueError, match="^bad pattern header on line 2: "):
        parse_pattern("\nno header\nB11 0 0 1 1\n")
    with pytest.raises(ValueError, match="^bad pattern header on line 1: "
                                         "'# rule=x n=1 seed=abc'$"):
        parse_pattern("# rule=x n=1 seed=abc\nB11 0 0 1 1\n")
    # a wrong field count, a float, zero and negative sizes, a bool: each
    # names its 1-based line, blank lines counted
    # and a number int() reads but format_pattern never writes: a digit
    # separator, a plus sign or another script's digits, in text whose type
    # ids are plain ASCII or not
    for line in ["B11 0 0 1", "B11 0 0 1 1 1", "B11 0.5 0 1 1",
                 "B11 0 0 -1 1", "B11 5 0 0 0", "B11 0 0 1 0", "B11 True 0 1 1",
                 "B11 1_0 0 1 1", "B11 0 +1 1 1", "B11 0 0 \u0661 1",
                 "B_1 1_0 0 1 1", "\u00e9 0 0 1 1_0"]:
        with pytest.raises(ValueError, match=f"^bad pattern line 4:"
                           f" '{re.escape(line)}' is not"
                           " 'type_id x y width height'"):
            parse_pattern(f"# rule=x n=1 seed=-\nB11 9 9 1 1\n\n{line}\n")
    assert parse_pattern("# rule=x n=1 seed=-\nB_1 -10 0 1 1\n\u00e9 0 0 1 1"
                         ).rows == (("B_1", -10, 0, 1, 1), ("\u00e9", 0, 0, 1, 1))
    for header in ["# rule=a n=\u0663 seed=0", "# rule=a n=3 seed=0\u0661",
                   "# rule=a n=1_0 seed=0", "# rule=a n=3 seed=+1"]:
        with pytest.raises(ValueError, match="^bad pattern header on line 1: "):
            parse_pattern(header + "\nB11 0 0 1 1\n")


def test_pattern_refuses_rows_that_are_not_bricks():
    good = ("B11", 2, 1, 1, 1)
    for bad in [("B11", 1.0, 1, 1, 1), ("B11", True, 2, 1, 1),
                ("B11", 0, False, 1, 1), (7, 0, 0, 1, 1), ("B11", 0, 0, 0, 1),
                ("B11", 0, 0, 1, -1), ("B11", 0, 0, 1.0, 1), ("B11", 0, 0, 1),
                Brick("B11", 0.5, 0, 1, 1), ("", 0, 0, 1, 1),
                ("B 11", 0, 0, 1, 1)]:
        with pytest.raises(ValueError, match=r"^brick row .* is not \(type_id"):
            Pattern("a", 0, None, [good, bad])
    pat = Pattern("a", 0, None, [Brick(*good), ("B11", -3, 0, 1, 2)])
    assert pat.rows == (("B11", -3, 0, 1, 2), good)


def _word(name):
    return isinstance(name, str) and name != "" and not any(
        c.isspace() for c in name)


@given(rule_name=st.text(max_size=4) | st.integers(),
       level=st.integers(-2, 99) | st.booleans() | st.floats(0, 9),
       rng_seed=st.none() | st.integers(0, 2 ** 65),
       type_ids=st.lists(st.text(max_size=3), min_size=1, max_size=3))
@example("my rule", 0, None, ["B11"])
@example("", 0, None, ["B11"])
@example("a", -1, None, ["B11"])
@example("a", True, None, ["B11"])
@example("a", 1.5, None, ["B11"])
@example("a", 0, None, ["B 11"])
@example("sigma3", 4, 7, ["B11", "B22"])
@example("sigma3", 4, 2 ** 64 - 1, ["B11"])
@example("sigma3", 4, 2 ** 64, ["B11"])
def test_every_pattern_header_reads_back(rule_name, level, rng_seed, type_ids):
    # Pattern(...) takes only what its text carries: a one-word rule name
    # and type ids, a level that is an int >= 0 and a SplitMix64 seed, and
    # the text reads back equal to the Pattern
    rows = [(t, x, 0, 1, 1) for x, t in enumerate(type_ids)]
    header_ok = _word(rule_name) and type(level) is int and level >= 0
    if rng_seed is not None and rng_seed > 2 ** 64 - 1:
        # no SplitMix64 state: the constructor and the text refuse it alike
        with pytest.raises(ValueError, match=r"^(rule name|level|rng seed) "):
            Pattern(rule_name, level, rng_seed, rows)
        with pytest.raises(ValueError, match="^bad pattern header on line 1: "
                           + ("rng seed" if header_ok else "")):
            parse_pattern(f"# rule={rule_name} n={level} seed={rng_seed}\n")
        return
    if not (header_ok and all(map(_word, type_ids))):
        with pytest.raises(ValueError, match=r"^(rule name|level|brick row) "):
            Pattern(rule_name, level, rng_seed, rows)
        return
    pat = Pattern(rule_name, level, rng_seed, rows)
    back = parse_pattern(format_pattern(pat))
    assert back == pat and hash(back) == hash(pat)


def test_text_lines_sorted_by_row_then_column():
    pat = iterate(builtin("sigma3"), "B22", 2)
    rows = [ln.split() for ln in format_pattern(pat).splitlines()[1:]]
    keys = [(int(r[2]), int(r[1])) for r in rows]
    assert keys == sorted(keys)


# (rule, seed brick, rng seed) of walls whose bricks the next test shuffles
SHUFFLED_WALLS = [("sigma3", "B22", None), ("rows23", "B21", None),
                  ("ptm", "1", None), ("ptm_skewed", "0", None),
                  ("random_pp", "B22", 5)]


def _shuffled_wall(wall, n):
    name, seed, rng_seed = wall
    rule = builtin(name, p=Fraction(1, 3) if name == "random_pp" else None)
    return rule, generate_pattern(rule, seed, n, rng_seed)


@given(wall=st.sampled_from(SHUFFLED_WALLS), n=st.integers(1, 3),
       order=st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_outputs_ignore_brick_order(wall, n, order):
    rule, pat = _shuffled_wall(wall, n)
    keys = [(b.y, b.x, b.type_id) for b in pat.bricks]
    assert keys == sorted(keys)  # every builder emits this order
    bricks = list(pat.bricks)
    random.Random(order).shuffle(bricks)
    shuffled = Pattern(pat.rule_name, pat.level, pat.rng_seed,
                       tuple(bricks))
    assert shuffled.bricks == pat.bricks  # a Pattern keeps the wall order
    header, *lines = format_pattern(pat).splitlines()
    random.Random(order).shuffle(lines)
    assert parse_pattern("\n".join([header, *lines])).bricks == pat.bricks
    assert to_svg(shuffled, rule=rule) == to_svg(pat, rule=rule)
    assert format_pattern(shuffled) == format_pattern(pat)
    a, b = vertical_joints(shuffled), vertical_joints(pat)
    assert (a.joints, a.v_max) == (b.joints, b.v_max)
    if rule.engine == "geometric":  # draws follow (y, x, type_id) order
        assert substitute_once(rule, shuffled, SplitMix64(3)).bricks == \
            substitute_once(rule, pat, SplitMix64(3)).bricks


@st.composite
def walls_with_one_field_changed(draw):
    """(wall, n, index, row, is_brick): row is brick `index` of the wall
    with one field changed, and is_brick whether it still is a brick."""
    wall, n = draw(st.sampled_from(SHUFFLED_WALLS)), draw(st.integers(1, 2))
    rows = _shuffled_wall(wall, n)[1].rows
    index = draw(st.integers(0, len(rows) - 1))
    row, field = list(rows[index]), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(
        ["missing", "lacked type"] if field == 0 else
        ["missing", "float", "bool", "zero", "negative"]))
    if kind == "missing":
        del row[field]
    elif kind == "lacked type":
        row[field] = "Z9"
    elif kind == "float":
        row[field] = draw(st.sampled_from([row[field] + 0.5, float(row[field])]))
    elif kind == "bool":
        row[field] = draw(st.booleans())
    else:
        row[field] = 0 if kind == "zero" else -1 - abs(row[field])
    is_brick = kind == "lacked type" or kind in ("zero", "negative") and field < 3
    return wall, n, index, tuple(row), is_brick


SIGMA3_N1 = (("sigma3", "B22", None), 1)


@given(walls_with_one_field_changed())
@example((*SIGMA3_N1, 0, ("B11", 1.0, 1, 1, 1), False))
@example((*SIGMA3_N1, 1, ("B11", True, 2, 1, 1), False))
@example((*SIGMA3_N1, 2, ("B11", 0.5, 0, 1, 1), False))
@example((*SIGMA3_N1, 3, ("B11", 0, 0, -1, 1), False))
@example((*SIGMA3_N1, 4, ("B11", 5, 0, 0, 0), False))
@settings(max_examples=60, deadline=None)
def test_every_wall_function_answers_or_names_the_fault(case):
    # a wall's text and rows with one field changed: parse_pattern and
    # Pattern(...) refuse it naming the line or row unless it is still a
    # brick; then every function that takes a wall answers, or raises a
    # RuleError naming the brick type or where the bricks overlap
    wall, n, index, row, is_brick = case
    rule, pat = _shuffled_wall(wall, n)
    rows = list(pat.rows)
    rows[index] = row
    text = format_pattern(pat).splitlines()[0] + "\n" + "".join(
        " ".join(map(str, r)) + "\n" for r in rows)
    if not is_brick:
        with pytest.raises(ValueError, match=f"^bad pattern line {index + 2}: "):
            parse_pattern(text)
        with pytest.raises(ValueError, match=f"^brick row {re.escape(repr(row))} is"):
            Pattern(pat.rule_name, n, pat.rng_seed, rows)
        return
    got = Pattern(pat.rule_name, n, pat.rng_seed, rows)
    assert parse_pattern(text).rows == got.rows
    assert parse_pattern(format_pattern(got)).rows == got.rows
    assert vertical_joints(got).pattern is got and got.bbox()
    names_the_type = f"^unknown brick type '{row[0]}' in rule '{rule.name}'$"
    for call, fault in [
            (lambda: check_no_overlap(got.rows), "^bricks overlap near x=-?\\d+, y="),
            (lambda: to_svg(got, rule), names_the_type),
            (lambda: substitute_once(rule, got, SplitMix64(1)),
             f"{names_the_type}|^bricks overlap near|is a block rule")]:
        try:
            call()
        except RuleError as error:
            assert re.search(fault, str(error)), error


@pytest.mark.parametrize("name, p", [
    *((name, None) for name in BUILTIN_SOURCES if name != "random_pp"),
    *(("random_pp", Fraction(p)) for p in ("0", "1/3", "1/2", "1")),
])
def test_engine_walls_are_in_wall_order(name, p):
    # the engine hands its walls to Pattern unsorted and unchecked
    def check(wall):
        assert wall.rows == tuple(sorted(wall.rows,
                                         key=lambda r: (r[2], r[1], r[0])))

    rule = builtin(name, p=p)
    for seed_type in rule.type_ids:
        for rng_seed in (1, 7, 42) if rule.is_random else (None,):
            for wall in levels(rule, seed_type, 5, rng_seed):
                check(wall)
            if rule.engine == "block":
                check(render_grid(rule, iterate_block(rule, seed_type, 5)))
                continue
            check(iterate(rule, seed_type, 5, rng_seed))
            wall = iterate(rule, seed_type, 0, rng_seed)
            rng = SplitMix64(rng_seed) if rule.is_random else None
            for _ in range(5):
                wall = substitute_once(rule, wall, rng)
                check(wall)
