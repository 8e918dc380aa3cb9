"""Substitution matrices, spectra, type frequencies, and counting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brickwall.spectral
from brickwall import (RuleError, SubstitutionMatrix, assert_area_eigenvector,
                       brick_frequencies, builtin, count_bricks,
                       count_realizations, iterate, matrix, parse_rule,
                       pf_eigenvalue, sample_vmax)
from brickwall.spectral import max_bricks, realization_factors
from oracles import exact_left_eigenvector, matrix_power

ALL_BUILTINS = ("ptm", "ptm_skewed", "sigma3", "rows23",
                "random_self_similar", "random_pp")

# rows are source types, columns produced types
FROZEN_ENTRIES = {
    "sigma3": ((0, 2, 0), (2, 1, 1), (4, 4, 1)),
    "rows23": ((2, 2), (4, 4)),
    "random_self_similar": ((2, 1), (4, 2)),
    "ptm": ((2, 2), (2, 2)),
    "ptm_skewed": ((2, 2), (2, 2)),
}

FROZEN_FREQUENCIES = {
    "sigma3": (Fraction(5, 13), Fraction(6, 13), Fraction(2, 13)),
    "rows23": (Fraction(1, 2), Fraction(1, 2)),
    "random_self_similar": (Fraction(2, 3), Fraction(1, 3)),
    "ptm": (Fraction(1, 2), Fraction(1, 2)),
}


def _rational(m: SubstitutionMatrix):
    return tuple(tuple(Fraction(v) for v in row) for row in m.entries)


def _bound(name):
    rule = builtin(name)
    return rule.bind(Fraction(1, 2)) if rule.is_parametric else rule


@pytest.mark.parametrize("name", sorted(FROZEN_ENTRIES))
def test_matrix_entries_frozen(name):
    m = matrix(builtin(name))
    assert _rational(m) == tuple(tuple(Fraction(v) for v in row)
                                 for row in FROZEN_ENTRIES[name])


def test_matrix_metadata():
    m = matrix(builtin("sigma3"))
    assert m.type_order == ("B11", "B21", "B22")
    assert m.areas == (1, 2, 4)
    assert m.expansion == 4
    assert m.size == 3
    assert m["B11", "B21"] == 2  # two wide bricks in the unit square's image


def test_block_matrix_uses_cell_counts():
    m = matrix(builtin("ptm"))
    assert m.areas == (1, 1)  # letters count as single cells here
    assert m.expansion == 4


@given(num=st.integers(0, 60), den=st.integers(1, 60))
@settings(max_examples=50, deadline=None)
def test_parametric_matrix_formula(num, den):
    num = num % (den + 1)  # keep p in [0, 1]
    p = Fraction(num, den)
    m = matrix(builtin("random_pp", p=p))
    assert _rational(m) == (
        (4 * (1 - p), 2 * p),
        (8 * (1 - p), 4 * p))


def test_matrix_rejects_unbound_parameter():
    with pytest.raises(RuleError):
        matrix(builtin("random_pp"))


def test_power_iteration_names_its_step_cap(monkeypatch):
    # sigma3 converges, but not in 3 steps; a repeat would name a period
    monkeypatch.setattr(brickwall.spectral, "_MAX_ITER", 3)
    with pytest.raises(RuleError, match=r"\(power iteration did not converge"
                                        r" in 3 steps\)$"):
        pf_eigenvalue(matrix(builtin("sigma3")))


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_area_vector_is_exact_eigenvector(name):
    assert_area_eigenvector(matrix(_bound(name)))  # must not raise


def test_area_eigenvector_detects_corruption():
    good = matrix(builtin("rows23"))
    bad = SubstitutionMatrix(good.type_order,
                             ((Fraction(2), Fraction(2)),
                              (Fraction(4), Fraction(5))),
                             good.areas, good.expansion)
    with pytest.raises(ValueError):
        assert_area_eigenvector(bad)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_pf_eigenvalue_equals_expansion(name):
    rule = _bound(name)
    assert abs(pf_eigenvalue(matrix(rule)) - rule.expansion) < 1e-9


def test_pf_eigenvalue_trivial_rule_exact():
    rule = parse_rule(
        "rule quad\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
        "image A { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\nend\n")
    assert pf_eigenvalue(matrix(rule)) == 4.0
    # a nilpotent matrix maps the start to zero: eigenvalue 0, not a spin
    zero = SubstitutionMatrix(("A", "B"), ((Fraction(0),) * 2,) * 2, (1, 1), 0)
    assert pf_eigenvalue(zero) == 0.0


# repr of (pf_eigenvalue, brick_frequencies), as `spectrum` prints them;
# recorded when the power iteration ran in numpy, whose bytes it keeps
FROZEN_SPECTRA = {
    "ptm": ("4.0", ("0.5", "0.5")),
    "ptm_skewed": ("4.0", ("0.5", "0.5")),
    "sigma3": ("4.000000000811549", ("0.3846153846387563",
                                     "0.46153846146096617",
                                     "0.15384615390027762")),
    "rows23": ("6.0", ("0.5", "0.5")),
    "random_self_similar": ("4.0", ("0.6666666666666666", "0.3333333333333333")),
    "random_pp 0": ("4.0", ("1.0", "0.0")),
    "random_pp 1/10": ("4.0", ("0.9473684210526315", "0.052631578947368425")),
    "random_pp 1/5": ("4.0", ("0.8888888888888888", "0.1111111111111111")),
    "random_pp 3/10": ("4.0", ("0.823529411764706", "0.17647058823529413")),
    "random_pp 2/5": ("4.0", ("0.7499999999999999", "0.25")),
    "random_pp 1/2": ("4.0", ("0.6666666666666666", "0.3333333333333333")),
    "random_pp 3/5": ("4.0", ("0.5714285714285714", "0.42857142857142855")),
    "random_pp 7/10": ("4.0", ("0.46153846153846156", "0.5384615384615384")),
    "random_pp 4/5": ("4.0", ("0.3333333333333333", "0.6666666666666666")),
    "random_pp 9/10": ("4.0", ("0.18181818181818182", "0.8181818181818181")),
    "random_pp 1": ("4.0", ("0.0", "1.0")),
    "random_pp 1/3": ("4.0", ("0.8", "0.2")),
}


@pytest.mark.parametrize("key", FROZEN_SPECTRA)
def test_spectrum_floats_frozen(key):
    name, _, p = key.partition(" ")
    rule = builtin(name).bind(Fraction(p)) if p else builtin(name)
    m = matrix(rule)
    got = (repr(pf_eigenvalue(m)), tuple(map(repr, brick_frequencies(m))))
    assert got == FROZEN_SPECTRA[key]


@pytest.mark.parametrize("name", sorted(FROZEN_FREQUENCIES))
def test_frequencies_match_exact_eigenvector(name):
    m = matrix(builtin(name))
    got = brick_frequencies(m)
    exact = exact_left_eigenvector(_rational(m), Fraction(m.expansion))
    assert exact == FROZEN_FREQUENCIES[name]
    assert len(got) == m.size
    assert abs(sum(got) - 1) < 1e-12
    for g, e in zip(got, exact):
        assert abs(g - e) < 1e-6


def test_matrix_power_closed_form_rows23():
    m = matrix(builtin("rows23"))
    for n in range(1, 6):
        pw = matrix_power(m, n)
        scale = 6 ** (n - 1)  # rank-one matrix: M^n = 6^(n-1) M
        assert _rational(pw) == ((2 * scale, 2 * scale),
                                 (4 * scale, 4 * scale))
        assert pw.expansion == 6 ** n


def test_matrix_power_identity_and_errors():
    m = matrix(builtin("sigma3"))
    p0 = matrix_power(m, 0)
    assert _rational(p0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert p0.expansion == 1
    with pytest.raises(ValueError):
        matrix_power(m, -1)


def test_matrix_power_matches_repeated_multiply():
    m = matrix(builtin("sigma3"))
    acc = tuple(tuple(Fraction(int(i == j)) for j in range(m.size))
                for i in range(m.size))
    raw = _rational(m)
    for n in range(9):
        assert _rational(matrix_power(m, n)) == acc
        acc = tuple(tuple(sum(acc[i][k] * raw[k][j] for k in range(m.size))
                          for j in range(m.size)) for i in range(m.size))


def test_matrix_power_preserves_area_identity():
    for n in (2, 3, 4):
        assert_area_eigenvector(matrix_power(matrix(builtin("sigma3")), n))


def test_count_bricks_reference_values():
    assert count_bricks(builtin("sigma3"), "B22", 1) == 9
    assert count_bricks(builtin("sigma3"), "B22", 0) == 1
    assert [count_bricks(builtin("sigma3"), "B22", n) for n in range(4)] == \
        [1, 9, 33, 133]
    assert [count_bricks(builtin("rows23"), "B21", n) for n in range(1, 5)] \
        == [8, 48, 288, 1728]


def test_count_bricks_random_count_invariant_rule():
    rss = builtin("random_self_similar")
    assert [count_bricks(rss, "B22", n) for n in range(5)] == \
        [1, 6, 24, 96, 384]  # 6 * 4^(n-1) for n >= 1
    for n, seed in ((2, 0), (3, 5), (4, 11)):
        assert count_bricks(rss, "B22", n) == \
            len(iterate(rss, "B22", n, rng_seed=seed))


@pytest.mark.parametrize("name,seed", [("sigma3", "B22"), ("rows23", "B21")])
def test_count_bricks_matches_generation(name, seed):
    rule = builtin(name)
    if rule.engine != "geometric":
        pytest.skip("geometric only")
    for n in range(4):
        assert count_bricks(rule, seed, n) == len(iterate(rule, seed, n))


def test_count_realizations_values():
    rss = builtin("random_self_similar")
    assert count_realizations(rss, "B22", 1) == 2
    assert count_realizations(rss, "B22", 4) == 2 ** 127
    for n in range(1, 6):
        assert count_realizations(rss, "B22", n) == \
            2 ** (2 * 4 ** (n - 1) - 1)
    assert count_realizations(builtin("sigma3"), "B22", 5) == 1
    assert count_realizations(builtin("rows23"), "B21", 4) == 1


def test_realization_factors():
    rss = builtin("random_self_similar")
    assert realization_factors(rss, "B22", 4) == {2: 127}
    assert realization_factors(rss, "B22", 8) == {2: 32767}
    assert realization_factors(builtin("sigma3"), "B22", 5) == {}
    three = parse_rule("rule three\nengine geometric\nexpansion 2 2\n"
                       "brick A 1 1\n" + "".join(
                           f"image A prob 1/6 {{ A @ {x} 0 ; A @ {x + 1} 0 ;"
                           f" A @ {x} 1 ; A @ {x + 1} 1 }}\n"
                           for x in range(6)) + "end\n")
    assert realization_factors(three, "A", 2) == {2: 5, 3: 5}
    assert count_realizations(three, "A", 2) == 6 ** 5


def _unit_rule(name, bricks, images):
    return parse_rule(f"rule {name}\nengine geometric\nexpansion 1 1\n"
                      + "".join(f"brick {b}\n" for b in bricks)
                      + "".join(f"image {i}\n" for i in images) + "end\n")


# unit expansion: the count vectors repeat, with and without a transient
UNIT_RULES = [
    _unit_rule("ident", ["A 1 1"], ["A { A @ 0 0 }"]),
    _unit_rule("flip", ["A 1 1", "B 1 1"],
               ["A { B @ 0 0 }", "B { A @ 0 0 }"]),
    _unit_rule("coin", ["A 1 1"],
               ["A prob 1/2 { A @ 0 0 }", "A prob 1/2 { A @ 0 0 }"]),
    # from A, one level before a cycle of three; C has 3 options, D 2
    _unit_rule("chain", ["A 2 1", "B 1 1", "C 1 1", "D 1 1"],
               ["A { B @ 0 0 ; C @ 1 0 }", "B { C @ 0 0 }",
                *["C prob 1/3 { D @ 0 0 }"] * 3,
                *["D prob 1/2 { B @ 0 0 }"] * 2]),
]


@pytest.mark.parametrize("rule", UNIT_RULES + [
    builtin(name) for name in ALL_BUILTINS if name != "random_pp"],
    ids=lambda rule: rule.name)
def test_level_counts_agree_with_the_plain_loop(rule):
    rows, ks = brickwall.spectral._count_vectors(rule)
    factors = [brickwall.spectral._prime_factors(k) for k in ks]
    for seed in rule.type_ids:
        v = [int(t == seed) for t in rule.type_ids]
        total, exponents = [0] * len(v), {}
        for n in range(41):
            assert brickwall.spectral._level_counts(rule, rows, seed, n) == \
                (v, total)
            assert count_bricks(rule, seed, n) == sum(v)
            assert realization_factors(rule, seed, n) == exponents
            for f, count in zip(factors, v):
                for p, e in f.items():
                    exponents[p] = exponents.get(p, 0) + e * count
            total = [a + b for a, b in zip(total, v)]
            v = [sum(a * row[j] for a, row in zip(v, rows))
                 for j in range(len(v))]


class _CountedRows(list):
    """Rows that count the steps _level_counts takes with them and stop it
    after ten, before a level-by-level loop to n could run on."""

    steps = 0

    def __iter__(self):  # once per step, as zip(*rows) unpacks them
        self.steps += 1
        assert self.steps <= 10, "counted level by level"
        return super().__iter__()


def test_unit_expansion_counts_skip_whole_periods():
    ident, flip, coin, chain = UNIT_RULES
    n = 10 ** 18
    for rule in UNIT_RULES:
        rows = _CountedRows(brickwall.spectral._count_vectors(rule)[0])
        brickwall.spectral._level_counts(rule, rows, rule.type_ids[0], n)
    assert count_bricks(ident, "A", n) == count_bricks(flip, "B", n) == 1
    assert realization_factors(flip, "A", n) == {}
    assert realization_factors(coin, "A", n) == {2: n}
    # levels 1..n-1 cycle through B+C, C+D, D+B: each of C and D is
    # counted twice in every three levels
    assert count_bricks(chain, "A", n) == 2
    assert realization_factors(chain, "A", n) == {3: 2 * (n - 1) // 3,
                                                  2: 2 * (n - 1) // 3}
    assert realization_factors(chain, "A", 0) == {}
    assert realization_factors(chain, "B", 1) == {3: 0, 2: 0}


def test_max_bricks():
    for name, seed in (("sigma3", "B22"), ("rows23", "B11"),
                       ("random_self_similar", "B12"), ("ptm", "1")):
        for n in range(6):
            assert max_bricks(builtin(name), seed, n) == \
                count_bricks(builtin(name), seed, n)
    pp = builtin("random_pp", p=Fraction(1, 2))
    # B22's options place 8 B12 or 4 B22; B12's place 4 B12 or 2 B22.  The
    # largest option per type would give 12 and 96; the area (4 * 4**n) over
    # the smallest brick area (2) is the tighter bound.
    assert max_bricks(pp, "B22", 1) == 8
    assert max_bricks(pp, "B22", 2) == 32
    assert max_bricks(pp, "B12", 3) == 64
    for seed in range(20):
        assert len(iterate(pp, "B22", 3, rng_seed=seed)) <= \
            max_bricks(pp, "B22", 3)


def test_growth_bounds_computed_once_per_rule(monkeypatch):
    calls = []
    compute = brickwall.spectral.growth_bounds
    monkeypatch.setattr(brickwall.spectral, "growth_bounds",
                        lambda rule: calls.append(rule.name) or compute(rule))
    pp = builtin("random_pp")
    # every trial's iterate checks the budget; bound copies share the bounds
    for p in (Fraction(1, 3), Fraction(1, 2)):
        sample_vmax(pp, "B22", 3, p, trials=4, base_seed=1)
    assert calls == ["random_pp"]
    assert pp.bind(Fraction(1, 5)).growth_bounds is pp.growth_bounds


def test_counting_refuses_count_variant_rules():
    # counting never reads probabilities, so the unbound rule fails the same way
    for pp in (builtin("random_pp", p=Fraction(1, 2)), builtin("random_pp")):
        with pytest.raises(RuleError, match="option choice changes brick counts"):
            count_bricks(pp, "B22", 2)
        with pytest.raises(RuleError, match="option choice changes brick counts"):
            count_realizations(pp, "B22", 2)


def test_count_errors():
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        count_bricks(builtin("sigma3"), "B22", -1)
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        count_realizations(builtin("sigma3"), "B22", -1)
    with pytest.raises(RuleError):
        count_bricks(builtin("sigma3"), "B99", 2)
