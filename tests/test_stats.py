"""Seed derivation and Monte-Carlo sampling of V_max."""

from fractions import Fraction

import pytest

from brickwall import (RuleError, SplitMix64, builtin, derive_seed, iterate,
                       sample_vmax, vertical_joints)

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


def test_sampling_errors():
    with pytest.raises(ValueError):
        sample_vmax(builtin("random_pp"), "B22", 2, Fraction(1, 2), trials=0)
    with pytest.raises(ValueError):
        sample_vmax(builtin("random_pp"), "B22", 2, Fraction(3, 2))
    with pytest.raises(RuleError):
        sample_vmax(builtin("random_self_similar"), "B22", 2, Fraction(1, 2))
    with pytest.raises(RuleError):
        sample_vmax(builtin("random_pp"), "B99", 2, Fraction(1, 2))
