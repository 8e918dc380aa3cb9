"""Acceptance gate: the twelve headline checks, one printed verdict each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every check recomputes its quantities from scratch and compares against
frozen expected values at the stated tolerances.
"""

from fractions import Fraction

from brickwall import (assert_area_eigenvector, brick_frequencies, builtin,
                       check_no_overlap, count_bricks, count_realizations,
                       crossing_options, empirical_frequencies,
                       generate_pattern, iterate, iterate_block, matrix,
                       matrix_power, pf_eigenvalue, prop2_bound, ptm_oracle,
                       sample_vmax, v_max_at, vertical_joints)
from oracles import exact_left_eigenvector, rasterized_joints

ALL_BUILTINS = ("ptm", "ptm_skewed", "sigma3", "rows23",
                "random_self_similar", "random_pp")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, detail


def _bound(name, p=Fraction(1, 2)):
    rule = builtin(name)
    return rule.bind(p) if rule.is_parametric else rule


def test_c01_three_brick_joint_lengths():
    rule = builtin("sigma3")
    got = {(seed, n): v_max_at(rule, seed, n)
           for seed, n in (("B11", 1), ("B21", 1), ("B22", 1), ("B22", 3))}
    want = {("B11", 1): 1, ("B21", 1): 2, ("B22", 1): 3, ("B22", 3): 11}
    _report(1, got == want,
            "three-brick rule v_max (seed, n) -> value: "
            + ", ".join(f"{k}={v}" for k, v in sorted(got.items()))
            + f" (expected {sorted(want.items())})")


def test_c02_three_brick_crossings():
    rule = builtin("sigma3")
    got = {tid: crossing_options(rule, tid) for tid in rule.type_ids}
    want = {"B11": (False,), "B21": (True,), "B22": (False,)}
    _report(2, got == want,
            f"three-brick image crossings {got} (expected B21 only)")


def test_c03_skew_keeps_joints_short():
    skewed = builtin("ptm_skewed")
    vals = {seed: [v_max_at(skewed, seed, n) for n in range(1, 7)]
            for seed in skewed.type_ids}
    bounded = all(v <= 2 for seq in vals.values() for v in seq)
    flat = builtin("ptm")
    pat = generate_pattern(flat, "0", 3)
    full = [j for j in vertical_joints(pat).joints
            if j.y0 == 0 and j.y1 == 8]
    ok = bounded and vertical_joints(pat).v_max == 8 and full
    _report(3, ok,
            f"skewed parity wall v_max by seed {vals} all <= 2; "
            f"unskewed n=3 has {len(full)} full-height joints of length 8")


def test_c04_rows23_bound_achieved():
    rule = builtin("rows23")
    crossings = {tid: any(crossing_options(rule, tid))
                 for tid in rule.type_ids}
    bound = prop2_bound(rule)
    per_seed = {seed: [v_max_at(rule, seed, n) for n in range(1, 6)]
                for seed in rule.type_ids}
    measured = max(max(seq) for seq in per_seed.values())
    ok = (not any(crossings.values())) and bound == 4 and measured == 3
    _report(4, ok,
            f"rows23 crossings {crossings}, bound {bound}, "
            f"v_max by seed {per_seed}, max {measured} (expected 3 <= 4)")


def test_c05_spectrum_matches_expansion():
    errs = {}
    for name in ALL_BUILTINS:
        rule = _bound(name)
        m = matrix(rule)
        assert_area_eigenvector(m)  # exact rational identity
        errs[name] = abs(pf_eigenvalue(m) - rule.expansion)
    assert_area_eigenvector(matrix(_bound("random_pp", Fraction(1, 3))))
    worst = max(errs.values())
    _report(5, worst < 1e-9,
            f"pf eigenvalue vs expansion, worst |err| {worst:.2e} < 1e-9; "
            "exact area eigenvector identity holds for all six rules")


def test_c06_three_brick_frequencies():
    m = matrix(builtin("sigma3"))
    got = brick_frequencies(m)
    exact = exact_left_eigenvector(
        tuple(tuple(Fraction(v) for v in row) for row in m.entries),
        Fraction(m.expansion))
    assert exact == (Fraction(5, 13), Fraction(6, 13), Fraction(2, 13))
    err_iter = max(abs(g - e) for g, e in zip(got, exact))
    emp = empirical_frequencies(iterate(builtin("sigma3"), "B22", 6),
                                builtin("sigma3"))
    err_emp = max(abs(emp[tid] - e) for tid, e in zip(m.type_order, exact))
    ok = err_iter < 1e-6 and err_emp < 0.02
    _report(6, ok,
            f"frequencies vs (5/13, 6/13, 2/13): iteration err {err_iter:.2e}"
            f" < 1e-6, empirical n=6 err {float(err_emp):.2e} < 0.02")


def test_c07_random_matrix_closed_form():
    m = matrix(builtin("random_self_similar"))
    ok = True
    for n in range(1, 6):
        q = 4 ** (n - 1)
        want = ((Fraction(2 * q), Fraction(q)),
                (Fraction(4 * q), Fraction(2 * q)))
        if matrix_power(m, n).entries != want:
            ok = False
            break
    _report(7, ok,
            "expected-count matrix powers equal [[2*4^(n-1), 4^(n-1)], "
            "[4^n, 2*4^(n-1)]] exactly for n=1..5")


def test_c08_counting():
    rss = builtin("random_self_similar")
    real = count_realizations(rss, "B22", 4)
    bricks = count_bricks(rss, "B22", 3)
    ok = real == 2 ** 127 and bricks == 96
    _report(8, ok,
            f"realizations at n=4: {real} (expected 2^127 = {2 ** 127}); "
            f"bricks at n=3: {bricks} (expected 96)")


def test_c09_parametric_endpoints():
    pp = builtin("random_pp")
    at_one = sample_vmax(pp, "B22", 4, 1, trials=50)
    ones_ok = set(at_one.samples) == {2}
    at_zero = [sample_vmax(pp, "B22", n, 0, trials=3).max
               for n in range(1, 6)]
    increasing = all(a < b for a, b in zip(at_zero, at_zero[1:]))
    frozen = at_zero == [4, 8, 16, 32, 64]
    ok = ones_ok and increasing and frozen
    _report(9, ok,
            f"p=1: all 50 samples == 2 ({ones_ok}); p=0 v_max over n=1..5: "
            f"{at_zero}, strictly increasing ({increasing})")


def test_c10_structural_invariants():
    checked = 0
    for name in ALL_BUILTINS:
        rule = _bound(name, Fraction(1, 2))
        seeds = [None] if not rule.is_random else list(range(10))
        for seed_type in rule.type_ids:
            for n in range(6):
                for s in seeds:
                    a = generate_pattern(rule, seed_type, n, rng_seed=s)
                    b = generate_pattern(rule, seed_type, n, rng_seed=s)
                    assert a == b, f"{name} {seed_type} n={n} seed={s}"
                    if rule.engine == "geometric":
                        want = rule.expansion ** n * \
                            rule.get_type(seed_type).area
                        assert a.area == want, f"{name} area at n={n}"
                    else:
                        assert len(a.bricks) == rule.expansion ** n
                    checked += 1
    # iterate sweeps only rules its overlap certificate cannot clear, so
    # check every wall explicitly here
    for name in ALL_BUILTINS:
        rule = _bound(name, Fraction(1, 2))
        s = 3 if rule.is_random else None
        check_no_overlap(generate_pattern(rule, rule.type_ids[0], 4,
                                          rng_seed=s).bricks)
    _report(10, True,
            f"{checked} generated patterns: deterministic per seed, "
            "no overlap, exact area growth")


def test_c11_parity_block_oracle():
    grid = iterate_block(builtin("ptm"), "0", 6)
    mismatches = sum(1 for j, row in enumerate(grid.rows)
                     for i, letter in enumerate(row)
                     if letter != ptm_oracle(i, j))
    cells = sum(len(r) for r in grid.rows)
    _report(11, cells == 4096 and mismatches == 0,
            f"parity block at n=6: {cells} cells, {mismatches} mismatches "
            "against the digit-parity oracle")


def test_c12_joints_match_raster_oracle():
    compared = 0
    for name in ALL_BUILTINS:
        rule = _bound(name, Fraction(1, 3))
        seeds = [None] if not rule.is_random else [1, 2, 3]
        for seed_type in rule.type_ids:
            for n in range(5):
                for s in seeds:
                    pat = generate_pattern(rule, seed_type, n, rng_seed=s)
                    got = sorted((j.x, j.y0, j.y1)
                                 for j in vertical_joints(pat).joints)
                    assert got == rasterized_joints(pat), \
                        f"{name} {seed_type} n={n} seed={s}"
                    compared += 1
    _report(12, True,
            f"joint extraction equals unit-cell rasterization on "
            f"{compared} patterns (all rules, n <= 4)")
