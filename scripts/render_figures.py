#!/usr/bin/env python3
"""Render a small gallery of SVG walls from the built-in rules.

Deterministic: every random rule gets a pinned seed, so re-running the
script reproduces the same files byte for byte.
"""

import argparse
from fractions import Fraction
from pathlib import Path

from brickwall import builtin, generate_pattern, to_svg

GALLERY = [
    # (filename, rule, seed brick, n, rng seed, p)
    ("ptm_skewed_n4.svg", "ptm_skewed", "0", 4, None, None),
    ("ptm_n3.svg", "ptm", "0", 3, None, None),
    ("sigma3_B22_n4.svg", "sigma3", "B22", 4, None, None),
    ("rows23_B21_n3.svg", "rows23", "B21", 3, None, None),
    ("random_self_similar_seed1_n4.svg", "random_self_similar", "B22", 4, 1, None),
    ("random_self_similar_seed2_n4.svg", "random_self_similar", "B22", 4, 2, None),
    ("random_self_similar_seed3_n4.svg", "random_self_similar", "B22", 4, 3, None),
    ("random_pp_p13_n4.svg", "random_pp", "B22", 4, 1, Fraction(1, 3)),
    ("random_pp_p23_n4.svg", "random_pp", "B22", 4, 1, Fraction(2, 3)),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("figures"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for fname, name, seed_brick, n, rng_seed, p in GALLERY:
        rule = builtin(name, p=p)
        pat = generate_pattern(rule, seed_brick, n, rng_seed=rng_seed)
        path = args.outdir / fname
        path.write_text(to_svg(pat, rule=rule))
        print(f"wrote {path} ({len(pat)} bricks)")


if __name__ == "__main__":
    main()
