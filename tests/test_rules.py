"""Rule model, DSL parsing, validation, and the built-in rules."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brickwall import (BUILTIN_SOURCES, Brick, ImageOption, Prob, RuleError,
                       RuleSyntaxError, RuleValidationError, SubstitutionRule,
                       builtin, parse_rule, serialize_rule, validate_rule)

ALL_BUILTINS = ("ptm", "ptm_skewed", "sigma3", "rows23",
                "random_self_similar", "random_pp")


def test_builtin_names():
    assert tuple(BUILTIN_SOURCES) == ALL_BUILTINS


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtins_validate_clean(name):
    assert validate_rule(builtin(name)) == []


def test_unknown_builtin():
    with pytest.raises(RuleError):
        builtin("nope")


def test_sigma3_shape():
    rule = builtin("sigma3")
    assert rule.engine == "geometric"
    assert (rule.lambda1, rule.lambda2) == (2, 2)
    assert rule.type_ids == ("B11", "B21", "B22")
    assert len(rule.images["B22"][0].placements) == 9
    assert not rule.is_random and not rule.is_parametric


def test_deterministic_builtins_have_single_prob_one_option():
    for name in ("sigma3", "rows23"):
        rule = builtin(name)
        for tid in rule.type_ids:
            opts = rule.images[tid]
            assert len(opts) == 1
            assert opts[0].probability.value == 1


def test_block_builtins():
    rule = builtin("ptm_skewed")
    assert rule.engine == "block"
    assert rule.skew == 1
    assert builtin("ptm").skew == 0
    # rows are stored bottom-to-top
    assert rule.blocks["0"] == (("0", "1"), ("1", "0"))
    assert rule.blocks["1"] == (("1", "0"), ("0", "1"))
    widths = {t.id: t.width for t in rule.types}
    assert widths == {"0": 2, "1": 3}


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_serialize_round_trip(name):
    rule = builtin(name)
    assert parse_rule(serialize_rule(rule)) == rule


def test_serialize_writes_whole_probabilities_as_integers():
    rule = parse_rule("rule sure\nengine geometric\nexpansion 1 1\n"
                      "brick A 1 1\nimage A prob 1/1 { A @ 0 0 }\n"
                      "image A prob 0/1 { A @ 0 0 }\nend\n")
    text = serialize_rule(rule)
    assert "image A prob 1 { A @ 0 0 }\nimage A prob 0 { A @ 0 0 }\n" in text
    assert parse_rule(text) == rule


def test_image_before_its_bricks_gets_sized_bricks():
    rule = parse_rule("rule late\nengine geometric\nexpansion 2 1\n"
                      "image A { B @ 0 0 }\n"
                      "image B { A @ 0 0 ; A @ 1 0 ; B @ 2 0 }\n"
                      "brick A 1 1\nbrick B 2 1\nend\n")
    assert rule.images["A"][0].placements == (Brick("B", 0, 0, 2, 1),)
    assert rule.images["B"][0].placements == (
        Brick("A", 0, 0, 1, 1), Brick("A", 1, 0, 1, 1), Brick("B", 2, 0, 2, 1))


def test_validate_checks_hand_built_image_bricks():
    # the parser sizes every image brick from its type; a hand-built rule
    # can hold a brick of no type or of the wrong size
    rule = parse_rule("rule pair\nengine geometric\nexpansion 2 1\n"
                      "brick A 1 1\nbrick B 2 1\nimage A { B @ 0 0 }\n"
                      "image B { A @ 0 0 ; A @ 1 0 ; B @ 2 0 }\nend\n")
    images = {"A": (ImageOption(Prob(Fraction(1)), (Brick("C", 0, 0, 2, 1),)),),
              "B": (ImageOption(Prob(Fraction(1)), (
                  Brick("A", 0, 0, 1, 1), Brick("A", 1, 0, 2, 1),
                  Brick("B", 2, 0, 2, 1))),)}
    bad = SubstitutionRule(rule.name, rule.engine, rule.lambda1, rule.lambda2,
                           rule.skew, rule.types, images, rule.blocks)
    assert validate_rule(bad) == [
        "A option 0: unknown type 'C'",
        "B option 0: brick A@(1,0) has size 2x1, rule says 1x1",
        "B option 0: area 5 != 4",
        "B option 0: placements 1 and 2 overlap"]
    # or no image at all for a type
    sigma3, ptm = builtin("sigma3"), builtin("ptm")
    for rule, images, blocks, diag in (
            (sigma3, {t: o for t, o in sigma3.images.items() if t != "B11"},
             sigma3.blocks, "B11: no image options"),
            (ptm, ptm.images, {"0": ptm.blocks["0"]}, "1: no block image")):
        bad = SubstitutionRule(rule.name, rule.engine, rule.lambda1,
                               rule.lambda2, rule.skew, rule.types, images,
                               blocks)
        assert validate_rule(bad) == [diag]


def test_parse_color_and_comment():
    rule = parse_rule(
        "rule demo  # a demo\n"
        "engine geometric\n"
        "expansion 2 2\n"
        "brick A 1 1 color #123abc\n"
        "# full-line comment\n"
        "image A { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\n"
        "end\n")
    assert rule.get_type("A").color == "#123abc"


def test_default_palette_colors():
    rule = parse_rule(
        "rule demo\nengine geometric\nexpansion 2 2\n"
        "brick A 1 1\n"
        "image A { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\nend\n")
    assert rule.get_type("A").color.startswith("#")


def test_syntax_error_carries_position():
    with pytest.raises(RuleSyntaxError) as exc:
        parse_rule("rule x\nengine geometric\nexpansion 2 2\nbrick A one 1\nend\n")
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


GEO = "rule x\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
QUAD = "image A { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\n"
BLOCK = "rule x\nengine block skew 0\nexpansion 2 2\nbrick 0 1 1\n"


@pytest.mark.parametrize("source,fragment", [
    ("rule x\nengine geometric\nexpansion 2 2\nbrick A 0 1\nend\n",
     "non-positive dimension"),
    ("rule x\nengine geometric\nexpansion 2 2\nbrick A 1 1\nbrick A 2 1\nend\n",
     "duplicate type id"),
    ("rule x\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
     "image A { B @ 0 0 }\nend\n", "unknown type reference"),
    ("rule x\nengine geometric\nexpansion 2 2\nbrick A 1 1\nend\n",
     "no image declared"),
    ("rule x\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
     "image A { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\n",
     "missing 'end'"),
    ("rule x\nengine turbo\nexpansion 2 2\nbrick A 1 1\nend\n",
     "unknown engine"),
    (GEO + QUAD + "end\nbrick B 1 1\n", "statement after 'end'"),
    ("rule x\nrule y\nengine geometric\nexpansion 2 2\nbrick A 1 1\n" + QUAD
     + "end\n", "duplicate 'rule' statement"),
    ("rule x\nengine geometric\nexpansion 0 2\nbrick A 1 1\n" + QUAD + "end\n",
     "non-positive expansion"),
    ("rule x\nengine geometric\nexpansion 2 2\nbrick A 1\nend\n",
     "expected height"),
    (GEO + "image A A @ 0 0 }\nend\n", "expected '{', got 'A'"),
    (GEO + "image A { A @ 0 0 , A @ 1 0 }\nend\n", "expected ';' or '}', got ','"),
    ("rule x y\nengine geometric\nexpansion 2 2\nbrick A 1 1\n" + QUAD + "end\n",
     "trailing token 'y'"),
    (GEO + "image A prob half { A @ 0 0 }\nend\n", "bad probability 'half'"),
    (GEO + QUAD + "wall A\nend\n", "unknown statement 'wall'"),
    (BLOCK + "block 0 { row: 0 0 ; row: 0 0 }\nblock 0 { row: 0 0 }\nend\n",
     "duplicate block image for '0'"),
    (BLOCK + "block 0 { }\nend\n", "empty block image for '0'"),
    ("engine geometric\nexpansion 2 2\nbrick A 1 1\n" + QUAD + "end\n",
     "missing 'rule' statement"),
    ("rule x\nexpansion 2 2\nbrick A 1 1\n" + QUAD + "end\n",
     "missing 'engine' statement"),
    ("rule x\nengine geometric\nbrick A 1 1\n" + QUAD + "end\n",
     "missing 'expansion' statement"),
    ("rule x\nengine geometric\nexpansion 2 2\nend\n", "no brick types declared"),
    (GEO + QUAD + "block A { row: A A ; row: A A }\nend\n",
     "block statements not allowed in a geometric rule"),
    (BLOCK + "block 0 { row: 0 0 ; row: 0 0 }\nimage 0 { 0 @ 0 0 }\nend\n",
     "image statements not allowed in a block rule"),
    (GEO + QUAD + "image B { A @ 0 0 }\nend\n", "image for unknown type 'B'"),
    (BLOCK + "block 0 { row: 0 0 ; row: 0 0 }\nblock 1 { row: 0 0 ; row: 0 0 }\n"
     "end\n", "block image for unknown letter '1'"),
    (BLOCK + "block 0 { row: 0 1 ; row: 0 0 }\nend\n",
     "unknown letter reference '1' in block of '0'"),
    (BLOCK + "brick 1 1 1\nblock 0 { row: 0 1 ; row: 1 0 }\nend\n",
     "no block image declared for '1'"),
    ("rule x\nengine geometric\nexpansion 2 2\nbrick A 1 1 color red\n"
     + QUAD + "end\n", "line 4, col 19: bad color 'red' (want #rrggbb)"),
    ("rule x\nengine geometric\nexpansion 2 2\n"
     "brick A 1 1 color \"/><script>alert(1)</script><x\n" + QUAD + "end\n",
     "line 4, col 19: bad color '\"/><script>alert(1)</script><x'"),
])
def test_structural_errors(source, fragment):
    with pytest.raises(RuleSyntaxError) as exc:
        parse_rule(source)
    assert fragment in str(exc.value)


def _diagnostics(source):
    with pytest.raises(RuleValidationError) as exc:
        parse_rule(source)
    return exc.value.diagnostics


def test_probability_sum_diagnostic():
    source = ("rule x\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
              "image A prob 1/3 { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\n"
              "image A prob 1/3 { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\n"
              "end\n")
    with pytest.raises(RuleValidationError) as exc:
        parse_rule(source)
    assert "probabilities sum to 2/3" in str(exc.value)
    diags = _diagnostics(source)
    assert any("probabilities sum to 2/3" in d for d in diags)
    wide = (GEO + "image A prob 3/2 { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\n"
            "image A prob -1/2 { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\nend\n")
    diags = _diagnostics(wide)
    assert "A option 0: probability 3/2 outside [0, 1]" in diags
    assert "A option 1: probability -1/2 outside [0, 1]" in diags
    # a sum prints as a probability does
    coin = GEO + "image A prob p { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\nend\n"
    assert _diagnostics(coin) == ["A: probabilities sum to p"]
    twice = (GEO + "image A prob p { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\n"
             "image A prob p { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\nend\n")
    assert _diagnostics(twice) == ["A: probabilities sum to 2*p"]
    half = (GEO + "image A prob 1/2 { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\n"
            "image A prob 1-p { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\nend\n")
    assert _diagnostics(half) == ["A: probabilities sum to 3/2 - p"]


def test_area_identity_rejects_identity_map():
    # one type mapping to itself alone: area 1 != lambda1*lambda2
    source = ("rule x\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
              "image A { A @ 0 0 }\nend\n")
    with pytest.raises(RuleValidationError) as exc:
        parse_rule(source)
    assert "area 1 != 4" in str(exc.value)
    assert _diagnostics(GEO + "image A { }\nend\n") == ["A option 0: area 0 != 4"]


def test_overlap_diagnostic():
    source = ("rule x\nengine geometric\nexpansion 2 2\nbrick A 2 2\n"
              "image A { A @ 0 0 ; A @ 1 1 ; A @ 3 3 ; A @ 5 5 }\nend\n")
    diags = _diagnostics(source)
    assert any("overlap" in d for d in diags)


def test_block_shape_diagnostics():
    source = ("rule x\nengine block skew 0\nexpansion 2 2\nbrick 0 2 1\n"
              "block 0 { row: 0 0 ; row: 0 0 ; row: 0 0 }\nend\n")
    diags = _diagnostics(source)
    assert any("3 rows" in d for d in diags)
    ragged = BLOCK + "block 0 { row: 0 0 ; row: 0 }\nend\n"
    assert "0: block row 1 has 1 letters, expected 2" in _diagnostics(ragged)
    tall = ("rule x\nengine block skew 0\nexpansion 2 2\nbrick 0 2 2\n"
            "block 0 { row: 0 0 ; row: 0 0 }\nend\n")
    assert any("height 1" in d for d in _diagnostics(tall))


def test_bind_random_pp():
    rule = builtin("random_pp")
    assert rule.is_parametric
    half = rule.bind(Fraction(1, 2))
    for tid in half.type_ids:
        assert sum(o.probability.value for o in half.images[tid]) == 1
    sure = rule.bind(1)
    for tid in sure.type_ids:
        assert [o.probability.value for o in sure.images[tid]] == [0, 1]
        # the probability-1 option is the all-B22 one
        chosen = sure.images[tid][1]
        assert {pl.type_id for pl in chosen.placements} == {"B22"}
    # equality ignores the rule a bound one came from; a rule is unhashable
    again = builtin("random_pp").bind(Fraction(1, 2))
    assert again.unbound is not half.unbound
    assert again == half and again != sure
    assert (half == 5) is False
    with pytest.raises(TypeError):
        hash(half)


def test_bind_errors():
    with pytest.raises(RuleError):
        builtin("sigma3").bind(Fraction(1, 2))
    with pytest.raises(RuleError):
        builtin("random_pp").bind(Fraction(3, 2))
    with pytest.raises(RuleError):
        builtin("random_pp").bind(-1)


def test_unbound_probability_value_raises():
    rule = builtin("random_pp")
    with pytest.raises(RuleError):
        rule.images["B12"][0].probability.value


@given(num=st.integers(0, 64), den=st.integers(1, 64))
def test_bound_probabilities_always_sum_to_one(num, den):
    p = Fraction(min(num, den), den)
    rule = builtin("random_pp").bind(p)
    for tid in rule.type_ids:
        opts = rule.images[tid]
        assert sum(o.probability.value for o in opts) == 1
        assert all(0 <= o.probability.value <= 1 for o in opts)


def test_prob_str_forms():
    assert str(Prob(Fraction(1, 2))) == "1/2"
    assert str(Prob(Fraction(0), Fraction(1))) == "p"
    assert str(Prob(Fraction(1), Fraction(-1))) == "1-p"
    assert str(Prob(Fraction(0), Fraction(2))) == "2*p"
    # sums of options: the sign goes in the operator, a unit coefficient away
    assert str(Prob(Fraction(1, 2), Fraction(1))) == "1/2 + p"
    assert str(Prob(Fraction(3, 2), Fraction(-1))) == "3/2 - p"
    assert str(Prob(Fraction(2), Fraction(-2))) == "2 - 2*p"
    assert str(Prob(Fraction(0), Fraction(-1))) == "-p"
