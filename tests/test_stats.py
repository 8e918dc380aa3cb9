"""Seed derivation and Monte-Carlo sampling of V_max."""

import hashlib
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from brickwall import (OverlapError, RuleError, SplitMix64, builtin,
                       derive_seed, iterate, parse_rule, sample_vmax,
                       vertical_joints)
from brickwall import generate
from brickwall.rng import _SLICE_ROWS
from oracles import count_draws, exact_vmax_law

# published reference outputs for splitmix64 with seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX64_SEED0


def test_splitmix64_is_64_bit():
    rng = SplitMix64(2 ** 64 - 1)
    for _ in range(100):
        assert 0 <= rng.next_u64() < 2 ** 64


@pytest.mark.parametrize("seed", [-1, 0, 2 ** 64 - 1, 2 ** 64])
def test_splitmix64_seed_range(seed):
    # the seed is the state: one outside 64 bits would alias one inside
    if 0 <= seed < 2 ** 64:
        assert SplitMix64(seed).state == seed
        return
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        SplitMix64(seed)
    with pytest.raises(ValueError):
        derive_seed(seed, 0)
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        generate.Pattern("a", 0, None, seed, [])  # its text could not be read


@pytest.mark.parametrize("seed", [True, False, 1.5, 3.0, "3"])
def test_rng_seed_must_be_an_int(seed):
    # a bool would write the header seed=True, which parse_pattern refuses
    message = f"^rng seed {re.escape(repr(seed))} is not an int$"
    rss, pp = builtin("random_self_similar"), builtin("random_pp")
    for call in [lambda: SplitMix64(seed), lambda: derive_seed(seed, 1),
                 lambda: iterate(rss, "B22", 2, rng_seed=seed),
                 lambda: next(generate.levels(rss, "B22", 2, rng_seed=seed)),
                 lambda: sample_vmax(pp, "B22", 2, Fraction(1, 2), trials=2,
                                     base_seed=seed),
                 lambda: generate.Pattern("a", 0, None, seed, [])]:
        with pytest.raises(ValueError, match=message):
            call()


@given(seed=st.sampled_from([0, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1),
       k=st.integers(0, _SLICE_ROWS + 64))
@example(seed=0, k=_SLICE_ROWS + 1)
@example(seed=2 ** 64 - 1, k=_SLICE_ROWS + 1)
@settings(max_examples=40, deadline=None)
def test_take_is_k_single_draws(seed, k):
    # take advances the state at once, so a draw made before its outputs
    # are read is the (k+1)-th; lane sums wrap mod 2**64 at the top seed
    bulk, single = SplitMix64(seed), SplitMix64(seed)
    outputs = bulk.take(k)
    after = bulk.next_u64()
    assert list(outputs) == [single.next_u64() for _ in range(k)]
    assert after == single.next_u64()
    assert bulk.state == single.state


def test_derive_seed():
    assert derive_seed(0, 0) == SPLITMIX64_SEED0[0]
    assert derive_seed(0, 1) == SplitMix64(1).next_u64()
    assert derive_seed(12345, 7) == SplitMix64(12345 ^ 7).next_u64()
    assert derive_seed(0, 3) != derive_seed(0, 4)


def test_sampling_reproducible():
    pp = builtin("random_pp")
    a = sample_vmax(pp, "B22", 3, Fraction(1, 3), trials=20, base_seed=5)
    b = sample_vmax(pp, "B22", 3, Fraction(1, 3), trials=20, base_seed=5)
    assert a == b
    c = sample_vmax(pp, "B22", 3, Fraction(1, 3), trials=20, base_seed=6)
    assert a.samples != c.samples


def test_samples_follow_derived_seeds():
    pp = builtin("random_pp")
    stats = sample_vmax(pp, "B22", 3, Fraction(1, 3), trials=8, base_seed=11)
    bound = pp.bind(Fraction(1, 3))
    for k, sample in enumerate(stats.samples):
        pat = iterate(bound, "B22", 3, rng_seed=derive_seed(11, k))
        assert vertical_joints(pat).v_max == sample


def test_degenerate_p_one():
    stats = sample_vmax(builtin("random_pp"), "B22", 4, 1, trials=50)
    assert stats.min == stats.max == 2
    assert set(stats.samples) == {2}


def test_degenerate_p_zero_growth():
    vals = [sample_vmax(builtin("random_pp"), "B22", n, 0, trials=3).max
            for n in range(1, 6)]
    assert vals == [4, 8, 16, 32, 64]
    # seed cannot matter when one option has all the mass
    a = sample_vmax(builtin("random_pp"), "B22", 3, 0, trials=5, base_seed=0)
    b = sample_vmax(builtin("random_pp"), "B22", 3, 0, trials=5, base_seed=99)
    assert a.samples == b.samples


def test_exact_vmax_law():
    rule = builtin("random_pp")
    law = exact_vmax_law(rule.bind(Fraction(1, 2)), "B22", 2)
    assert law == {2: Fraction(17, 512), 6: Fraction(219, 512),
                   8: Fraction(69, 128)}
    for p in (Fraction(1, 3), Fraction(3, 10), Fraction(7, 10)):
        assert sum(exact_vmax_law(rule.bind(p), "B22", 2).values()) == 1
    # one option has all the mass: a point mass at the only wall's v_max
    for p, v_max in ((0, 8), (1, 2)):
        assert exact_vmax_law(rule.bind(p), "B22", 2) == {v_max: 1}
        for s in range(3):
            pat = iterate(rule.bind(p), "B22", 2, rng_seed=s)
            assert vertical_joints(pat).v_max == v_max


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(3, 10),
                               Fraction(1, 2), Fraction(7, 10)])
def test_sampler_follows_the_exact_vmax_law(p):
    # each cell's count within 5 binomial standard errors of trials * P(v):
    # a false alarm has odds of about 6e-7 per cell
    rule, trials = builtin("random_pp"), 4000
    law = exact_vmax_law(rule.bind(p), "B22", 2)
    hist = sample_vmax(rule, "B22", 2, p, trials=trials, base_seed=1).histogram()
    assert set(hist) <= set(law)
    for v, q in law.items():
        assert abs(hist.get(v, 0) - trials * q) <= 5 * math.sqrt(
            trials * q * (1 - q)), (v, hist, law)


def test_stats_summary_fields():
    stats = sample_vmax(builtin("random_pp"), "B22", 3, Fraction(1, 2),
                        trials=40, base_seed=3)
    assert stats.trials == len(stats.samples) == 40
    assert stats.min <= stats.mean <= stats.max
    hist = stats.histogram()
    assert sum(hist.values()) == 40
    assert list(hist) == sorted(hist)
    assert all(v >= 1 for v in hist.values())


def test_stats_json_shape():
    stats = sample_vmax(builtin("random_pp"), "B22", 2, Fraction(1, 3),
                        trials=10, base_seed=1)
    data = stats.to_json()
    assert data["p"] == "1/3"
    assert data["n"] == 2 and data["trials"] == 10 and data["base_seed"] == 1
    assert data["min"] == stats.min and data["max"] == stats.max
    assert data["mean"] == pytest.approx(stats.mean)
    assert sum(data["histogram"].values()) == 10
    assert all(isinstance(k, str) for k in data["histogram"])


# a parametric rule whose p option overlaps from level 2 on: not certified
PCLASH = ("rule pclash\nengine geometric\nexpansion 2 2\nbrick A 1 1\n"
          "image A prob p { A @ 0 0 ; A @ 1 0 ; A @ 2 0 ; A @ 3 0 }\n"
          "image A prob 1-p { A @ 0 0 ; A @ 1 0 ; A @ 0 1 ; A @ 1 1 }\nend\n")


# sha256 of sample_vmax(random_pp, seed, n, k/10, trials, base_seed).samples
# for k = 0..10, one line of space-separated samples per k; frozen before
# sample_vmax stopped calling iterate and vertical_joints per trial
@pytest.mark.parametrize("seed, n, trials, base_seed, digest", [
    ("B22", 4, 16, 0,
     "72e4052b978ee8b88a23b075d2e12345be9da0a8b1b99a7e66dbe550a7e6ef77"),
    ("B22", 4, 16, 2 ** 64 - 1,
     "eace9540c6982cb9c0ca7911e53312d6a9ac4518e95308e6b910912368602387"),
    ("B22", 5, 4, 0,
     "8843e3155e01da6cde9199caca74ef79d9d289860cb90c85b2d220a08c949e41"),
    ("B22", 5, 4, 2 ** 64 - 1,
     "2cff379901a6bd02bca425d6254636dc3f37ddecfaca55f539b40ccdf0fd9710"),
    ("B12", 4, 16, 0,
     "3b35156fa839ad54b7a35240a23809f6e3c5bf9564006d5c2d18b23ebca2fbc9"),
    ("B12", 4, 16, 2 ** 64 - 1,
     "9ca6610ad3d71607c3bbb277d5afe017f47455d758ceda8e755f0d71a11c5af8"),
    ("B12", 5, 4, 0,
     "60f97b0c542271f68209c48fd1209f5f29e973a669ecf29f8aa49897e50b1d8d"),
    ("B12", 5, 4, 2 ** 64 - 1,
     "4c58c4d47b50e1990146b0e0610c30cfb6c19444914bc02815383240417c50de"),
])
def test_frozen_sample_digests(seed, n, trials, base_seed, digest):
    pp = builtin("random_pp")
    text = "".join(
        " ".join(map(str, sample_vmax(pp, seed, n, Fraction(k, 10), trials,
                                      base_seed).samples)) + "\n"
        for k in range(11))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sampling_sweeps_uncertified_rules(monkeypatch):
    pclash = parse_rule(PCLASH)
    with pytest.raises(OverlapError, match="near x=2, y=0"):
        sample_vmax(pclash, "A", 2, 1, trials=3)
    assert set(sample_vmax(pclash, "A", 2, 0, trials=3).samples) == {4}
    # random_pp is certified, so its trials are never swept
    sweeps = [0]
    sweep = generate.check_no_overlap

    def counted(rows):
        sweeps[0] += 1
        return sweep(rows)

    monkeypatch.setattr(generate, "check_no_overlap", counted)
    sample_vmax(builtin("random_pp"), "B22", 3, Fraction(1, 2), trials=3)
    assert sweeps[0] == 0
    sample_vmax(pclash, "A", 2, 0, trials=3)
    assert sweeps[0] == 6


def test_sampling_draw_stream(monkeypatch):
    # one draw to derive each trial's seed, then one per brick of levels
    # 0..n-1 (every random_pp type has two options)
    bound = builtin("random_pp").bind(Fraction(3, 10))
    expected = 0
    for k in range(4):
        walls = generate.levels(bound, "B22", 3, derive_seed(1, k))
        expected += 1 + sum(len(wall) for wall in walls if wall.level < 3)
    draws = count_draws(monkeypatch)
    sample_vmax(builtin("random_pp"), "B22", 3, Fraction(3, 10), trials=4,
                base_seed=1)
    assert draws[0] == expected


def test_sampling_errors(monkeypatch):
    draws = count_draws(monkeypatch)
    # n is refused with iterate's own message before any trial draws
    for n, error, message in [
            (-1, ValueError, "depth must be >= 0, got -1"),
            (13, ValueError, "depth 13 exceeds MAX_DEPTH=12"),
            (12, RuleError, "rule 'random_pp' from seed 'B22' at n=12 can"
                            " build 33554432 bricks, over the budget of"
                            " 2097152"),
            # a bool would report "n": true; the others would not run
            (True, ValueError, "depth True is not an int"),
            (1.5, ValueError, "depth 1.5 is not an int"),
            (2.0, ValueError, "depth 2.0 is not an int"),
            ("2", ValueError, "depth '2' is not an int")]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sample_vmax(builtin("random_pp"), "B22", n, Fraction(1, 2))
        assert draws[0] == 0
    for trials in [True, 2.5, "2"]:
        with pytest.raises(ValueError, match=f"^trials {re.escape(repr(trials))}"
                                             " is not an int$"):
            sample_vmax(builtin("random_pp"), "B22", 2, Fraction(1, 2),
                        trials=trials)
        assert draws[0] == 0
    with pytest.raises(ValueError):
        sample_vmax(builtin("random_pp"), "B22", 2, Fraction(1, 2), trials=0)
    with pytest.raises(ValueError):
        sample_vmax(builtin("random_pp"), "B22", 2, Fraction(3, 2))
    with pytest.raises(RuleError):
        sample_vmax(builtin("random_self_similar"), "B22", 2, Fraction(1, 2))
    with pytest.raises(RuleError):
        sample_vmax(builtin("random_pp"), "B99", 2, Fraction(1, 2))
