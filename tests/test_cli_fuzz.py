"""Every rule the parser accepts gets an answer from every subcommand.

The first property runs all six subcommands in-process through cli.main
on drawn rules at -n <= 3.  It checks the exit-code contract only: a
code in {0, 1, 2}, one `error:` line on stderr for a failure, no
escaping exception and no long run.  Whether an answer is right is left
to the other tests; the second property checks the drawn block rules'
growth and rendering against index arithmetic, the third pins the
overlap certificate of drawn geometric rules to the nested-loop closure,
and the fourth pins each sample of a drawn parametric rule to the v_max of
the wall iterate builds for that trial.
"""

import contextlib
import io
import time
from fractions import Fraction

from hypothesis import (HealthCheck, example, given, reject, settings,
                        strategies as st)

from brickwall import (BUILTIN_SOURCES, RuleError, derive_seed, iterate,
                       iterate_block, parse_rule, render_grid, sample_vmax,
                       vertical_joints)
from brickwall.cli import main
from brickwall.generate import overlap_certificate
from oracles import block_letter, nested_loop_certificate
from test_engine import CLASH_RULE, HOLES_RULE
from test_stats import PCLASH

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]
OFFSETS = st.integers(-2, 4)
# an image per weight: p and 1-p, or fixed weights that sum to 1
WEIGHTS = st.one_of(st.none(), st.just(("p", "1-p")), st.sampled_from(
    [("1",), ("1/2", "1/2"), ("1/3", "2/3"), ("1/4", "1/4", "1/2")]))
SECONDS = 5  # the most one in-process call may take


def _image(draw, sizes, tid, l1, l2):
    """One image of tid: drawn placements that fit, then bricks filled in,
    smallest type first, over the inflated outline of tid and the offset
    box, or over the box in a drawn order, until the image holds its area.
    A rule without a 1x1 type can fall short; the parser then refuses it,
    which is an answer too."""
    w, h = sizes[tid]
    target = l1 * l2 * w * h
    outline = [(x, y) for y in range(l2 * h) for x in range(l1 * w)]
    box = [(x, y) for y in range(-2, 5) for x in range(-2, 5)]
    wanted = draw(st.lists(st.tuples(st.sampled_from(sorted(sizes)), OFFSETS,
                                     OFFSETS), max_size=3))
    fill = draw(st.one_of(st.just(outline + box), st.permutations(box)))
    by_area = sorted(sizes, key=lambda t: sizes[t][0] * sizes[t][1])
    taken, body, area = set(), [], 0
    for t, dx, dy in wanted + [(t, x, y) for x, y in fill for t in by_area]:
        cw, ch = sizes[t]
        cells = {(dx + i, dy + j) for i in range(cw) for j in range(ch)}
        if area + cw * ch <= target and not cells & taken:
            taken |= cells
            body.append(f"{t} @ {dx} {dy}")
            area += cw * ch
    return " ; ".join(body)


@st.composite
def geometric_rules(draw, expansions=st.integers(1, 3), weights=WEIGHTS):
    """(rule text, seed type): 1-3 types of the four sizes, expansions 1-3
    per axis, and per type one image, two weighted p and 1-p, or one to
    three with fixed prob weights; expansions and weights draw them."""
    ids = "ABC"[:draw(st.integers(1, 3))]
    sizes = {t: draw(st.sampled_from(SIZES)) for t in ids}
    l1, l2 = draw(expansions), draw(expansions)
    lines = ["rule fuzz", "engine geometric", f"expansion {l1} {l2}"]
    lines += [f"brick {t} {w} {h}" for t, (w, h) in sizes.items()]
    for t in ids:
        probs = draw(weights)
        if probs is None:
            lines.append(f"image {t} {{ {_image(draw, sizes, t, l1, l2)} }}")
        else:
            for prob in probs:
                lines.append(f"image {t} prob {prob}"
                             f" {{ {_image(draw, sizes, t, l1, l2)} }}")
    return "\n".join(lines + ["end"]) + "\n", draw(st.sampled_from(ids))


@st.composite
def block_rules(draw):
    """(rule text, seed letter): 1-3 letters of width 1-3, expansions 1-3
    per axis and a skew of -2..2."""
    ids = "ABC"[:draw(st.integers(1, 3))]
    l1, l2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = ["rule fuzz", f"engine block skew {draw(st.integers(-2, 2))}",
             f"expansion {l1} {l2}"]
    lines += [f"brick {t} {draw(st.integers(1, 3))} 1" for t in ids]
    for t in ids:
        rows = [" ".join(draw(st.lists(st.sampled_from(ids), min_size=l1,
                                       max_size=l1))) for _ in range(l2)]
        lines.append(f"block {t} {{ {' ; '.join('row: ' + r for r in rows)} }}")
    return "\n".join(lines + ["end"]) + "\n", draw(st.sampled_from(ids))


def _rule(name, expansion, bricks, images):
    return "\n".join([f"rule {name}", "engine geometric",
                      f"expansion {expansion}", *bricks,
                      *(f"image {t} {{ {body} }}" for t, body in images),
                      "end"]) + "\n"


SWAP = _rule("swap", "2 2", ["brick A 1 1", "brick B 2 1"], [
    ("A", "B @ 0 0 ; B @ 0 1"),
    ("B", " ; ".join(f"A @ {x} {y}" for y in range(2) for x in range(4)))])
F139 = _rule("f139", "2 2", ["brick A 1 1"],
             [("A", "A @ 2 0 ; A @ 2 1 ; A @ 1 2 ; A @ -1 1")])
STONE = _rule("stone", "2 2", ["brick B11 1 1", "brick B21 2 1",
                               "brick B22 2 2"], [
    ("B11", "B22 @ 0 0"),
    ("B21", "B21 @ 0 0 ; B21 @ 2 0 ; B11 @ 0 1 ; B21 @ 1 1 ; B11 @ 3 1"),
    ("B22", "B21 @ 0 0 ; B21 @ 2 0 ; B11 @ 0 1 ; B21 @ 1 1 ; B11 @ 3 1 ;"
            " B21 @ 0 2 ; B21 @ 2 2 ; B11 @ 0 3 ; B21 @ 1 3 ; B11 @ 3 3")])
IDENT = _rule("ident", "1 1", ["brick A 1 1"], [("A", "A @ 0 0")])
FLIP = _rule("flip", "1 1", ["brick A 1 1", "brick B 1 1"],
             [("A", "B @ 0 0"), ("B", "A @ 0 0")])
FAR = _rule("far", "2 2", ["brick A 1 1"],
            [("A", "A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 10001")])
GRID = _rule("grid", "10 8", ["brick A 1 1"], [
    ("A", " ; ".join(f"A @ {x} {y}" for y in range(8) for x in range(10)))])
# the first overlap the closure meets, and so the message, depends on the
# order of each type pair's children: a set of them names another offset
ORDER = _rule("order", "3 2", ["brick A 2 1"], [
    ("A", "A @ 2 0 ; A @ 1 4 ; A @ 0 0 ; A @ 4 0 ; A @ 0 1 ; A @ 2 1")])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), time.perf_counter() - start


@given(st.one_of(geometric_rules(), block_rules()), st.integers(0, 3),
       st.sampled_from([".txt", ".svg"]))
@example((SWAP, "A"), 3, ".txt")
@example((HOLES_RULE, "A"), 3, ".txt")
@example((F139, "A"), 3, ".svg")
@example((STONE, "B22"), 3, ".txt")
@example((IDENT, "A"), 3, ".svg")
@example((FLIP, "B"), 3, ".txt")
@example((FAR, "A"), 3, ".txt")
@settings(max_examples=50, deadline=None)
def test_every_accepted_rule_gets_an_answer(tmp_path_factory, rule, n, ext):
    text, seed = rule
    where = tmp_path_factory.mktemp("fuzz")
    path = where / "fuzz.rule"
    path.write_text(text)
    p = ["-p", "1/3"] if "prob p" in text else []  # -p only where it binds
    wall = ["--seed-brick", seed, "-n", str(n)]
    calls = [
        ["validate"],
        ["spectrum", *p],
        ["count", *wall],
        ["generate", *wall, *p, "--rng-seed", "1", "--out", str(where / f"w{ext}")],
        ["analyze", *wall, *p, "--rng-seed", "1"],
        ["sample", *wall, "-p", "1/3", "--trials", "3"],
    ]
    for command, *args in calls:
        code, err, seconds = _run([command, "--rule", str(path), *args])
        assert code in (0, 1, 2), command
        assert seconds < SECONDS, command
        if code and command != "validate":
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), \
                (command, err)
        else:
            assert err == "", (command, err)


@given(block_rules(), st.integers(0, 4))
@settings(max_examples=50, deadline=None)
def test_block_growth_and_rendering_match_index_arithmetic(rule, n):
    text, seed = rule
    rule = parse_rule(text)
    grid = iterate_block(rule, seed, n)
    assert grid.rows == tuple(
        tuple(block_letter(rule, seed, n, i, j) for i in range(rule.lambda1 ** n))
        for j in range(rule.lambda2 ** n))
    # each letter lies at skew * row plus the widths to its left
    widths = {t.id: t.width for t in rule.types}
    assert render_grid(rule, grid).rows == tuple(
        (letter, rule.skew * j + sum(map(widths.get, row[:i])), j,
         widths[letter], 1)
        for j, row in enumerate(grid.rows) for i, letter in enumerate(row))


@given(geometric_rules(st.integers(2, 3), st.sampled_from([None, ("1/2", "1/2")]))
       .map(lambda rule: rule[0]))
@example(BUILTIN_SOURCES["sigma3"])
@example(BUILTIN_SOURCES["rows23"])
@example(BUILTIN_SOURCES["random_self_similar"])
@example(BUILTIN_SOURCES["random_pp"])
@example(CLASH_RULE)
@example(PCLASH)
@example(SWAP)
@example(FAR.replace("10001", "101"))
@example(GRID)
@example(ORDER)
@settings(max_examples=200, deadline=None)
def test_certificate_equals_the_nested_loop_closure(text):
    try:
        rule = parse_rule(text)
    except RuleError:
        reject()
    cert = overlap_certificate(rule)
    assert cert.verdict in ("certified", "overlap")  # no unit expansion
    assert cert == nested_loop_certificate(rule)  # every field, message too


# A @ 1 3 lies past the two rows of A's image, so a level's edge runs come
# out of y order: the sampler gets another v_max unless it sorts them
REACH = _rule("reach", "2 2", ["brick A 1 1"], [
    (f"A prob {prob}", "A @ 1 3 ; A @ 0 0 ; A @ 1 0 ; A @ 0 1")
    for prob in ("p", "1-p")])
# a running bond: its outline, a rectangle's sides, is longer than any
# joint; A has one image, so its bricks take no draw between B's
BOND = _rule("bond", "2 2", ["brick A 1 1", "brick B 2 1"], [
    ("A", "B @ 0 0 ; B @ 0 1"),
    ("B prob p", "B @ 0 0 ; B @ 2 0 ; A @ 0 1 ; B @ 1 1 ; A @ 3 1"),
    ("B prob 1-p", "A @ 0 0 ; B @ 1 0 ; A @ 3 0 ; B @ 0 1 ; B @ 2 1")])


@given(geometric_rules(st.integers(2, 3), st.just(("p", "1-p"))),
       st.sampled_from([0, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1))
@example((BUILTIN_SOURCES["random_pp"], "B22"), 7)
@example((BUILTIN_SOURCES["random_pp"], "B12"), 2 ** 64 - 1)
@example((REACH, "A"), 0)
@example((BOND, "A"), 0)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])  # few are certified
def test_samples_are_the_v_max_of_the_trial_walls(rule, base_seed):
    # a certified rule's sampler reads the last level off its parents and
    # their images' edge runs; drawn offsets reach out of an image's rows,
    # so those runs come out of y order
    text, seed = rule
    try:
        rule = parse_rule(text)
    except RuleError:
        reject()
    if not rule.is_parametric or rule.overlap_certificate.verdict != "certified":
        reject()
    for n in range(5):
        for p in (0, Fraction(1, 3), Fraction(1, 2), 1):
            stats = sample_vmax(rule, seed, n, p, trials=2, base_seed=base_seed)
            assert stats.samples == tuple(vertical_joints(iterate(
                rule.bind(p), seed, n, rng_seed=derive_seed(base_seed, k))).v_max
                for k in range(2)), (n, p)
