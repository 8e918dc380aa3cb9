"""Vertical joint extraction, v_max, crossings, and the joint-length bound.

A vertical joint is a maximal run of brick edges along one abscissa x,
counted only where the wall has bricks strictly on both sides of the line
x = const; the exterior outline of the pattern is not a joint.  Touching
edge intervals merge: mortar interrupted by nothing is continuous mortar.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from operator import sub
from typing import Dict, List, Mapping, Optional, Tuple

from .generate import Brick, Pattern, generate_pattern, levels
from .rules import RuleError, SubstitutionRule


@dataclass(frozen=True)
class JointReport:
    v_max: int
    # (x, y0, y1): mortar on the line x from y0 to y1; by x, then upward
    joints: Tuple[Tuple[int, int, int], ...]
    pattern: Pattern
    crossings: Optional[Mapping[str, bool]] = None

    def to_json(self) -> dict:
        return {
            "v_max": self.v_max,
            "joints": [{"x": x, "y0": y0, "y1": y1}
                       for x, y0, y1 in self.joints],
            "crossings": dict(self.crossings) if self.crossings else {},
        }


def _edge_segments(bricks) -> Dict[int, List[int]]:
    """Merged vertical edge runs per abscissa, exterior included, each as a
    flat list y0, y1, y0, y1, ... of disjoint runs from the bottom up.
    Touching edges merge.  One pass over bricks in y order: a Pattern's
    bricks, or an image's from _image_bricks."""
    runs: Dict[int, List[int]] = {}
    for _, x0, y0, w, h in bricks:
        y1 = y0 + h
        for x in (x0, x0 + w):
            run = runs.get(x)
            if run is None:
                runs[x] = [y0, y1]
            elif y0 > run[-1]:
                run += (y0, y1)
            elif y1 > run[-1]:
                run[-1] = y1
    return runs


def vertical_joints(pattern: Pattern) -> JointReport:
    """All maximal vertical joints of an overlap-free pattern, and their max
    length.  Abscissas with no bricks strictly left or strictly right of
    them (the pattern's outline) carry no joints."""
    joints = []
    v_max = 0
    # the least and the greatest abscissa are the outline
    runs = _edge_segments(pattern.bricks)
    for x in sorted(runs)[1:-1]:
        run = runs[x]
        y0s, y1s = run[::2], run[1::2]
        joints += zip(repeat(x), y0s, y1s)
        v_max = max(v_max, max(map(sub, y1s, y0s)))
    return JointReport(v_max, tuple(joints), pattern)


def v_max_at(rule: SubstitutionRule, seed_type: str, n: int,
             rng_seed: Optional[int] = None) -> int:
    """v_max of the n-th image of the seed brick (block rules included)."""
    return vertical_joints(generate_pattern(rule, seed_type, n, rng_seed)).v_max


def _image_bricks(rule: SubstitutionRule, opt):
    bricks = []
    for pl in opt.placements:
        t = rule.get_type(pl.type_id)
        bricks.append(Brick(pl.type_id, pl.dx, pl.dy, t.width, t.height))
    # a rule lists them in any order; a Pattern holds them in wall order
    return Pattern(rule.name, 1, None, None, tuple(bricks)).bricks


def _segment_crosses(cells, x, y0, y1) -> bool:
    # the open segment must run through the interior: unit-height steps with
    # brick material strictly on both sides
    for y in range(y0, y1):
        if (x - 1, y) not in cells or (x, y) not in cells:
            return False
    # both closed endpoints must lie on the region's boundary: at least one
    # of the four surrounding unit cells uncovered
    for y in (y0, y1):
        quads = [(x - 1, y), (x, y), (x - 1, y - 1), (x, y - 1)]
        if all(q in cells for q in quads):
            return False
    return True


def _bricks_have_crossing(bricks) -> bool:
    cells = set()
    for b in bricks:
        for cx in range(b.x, b.x + b.width):
            for cy in range(b.y, b.y + b.height):
                cells.add((cx, cy))
    for x, run in _edge_segments(bricks).items():
        for y0, y1 in zip(run[::2], run[1::2]):
            if _segment_crosses(cells, x, y0, y1):
                return True
    return False


def crossing_options(rule: SubstitutionRule, type_id: str) -> Tuple[bool, ...]:
    """Crossing verdict per image option of one type."""
    rule.get_type(type_id)
    if rule.engine == "block":
        return (_bricks_have_crossing(generate_pattern(rule, type_id, 1).bricks),)
    return tuple(_bricks_have_crossing(_image_bricks(rule, opt))
                 for opt in rule.images[type_id])


def has_crossing(rule: SubstitutionRule, type_id: str) -> bool:
    """True iff some maximal joint of the one-step image of this type runs
    through the image's interior and connects two boundary points.  Random
    rules: true if any option crosses."""
    return any(crossing_options(rule, type_id))


def prop2_bound(rule: SubstitutionRule) -> int:
    """Joint-length bound 2 * j_max * (lambda2 - 1) for crossing-free rules,
    where j_max is the tallest brick height in the alphabet."""
    j_star = max(t.height for t in rule.types)
    return 2 * j_star * (rule.lambda2 - 1)


@dataclass(frozen=True)
class Prop2Verdict:
    rule_name: str
    crossings: Mapping[str, bool]
    hypothesis_holds: Optional[bool]
    bound: Optional[int]
    measured_max: int
    bound_respected: Optional[bool]

    def to_json(self) -> dict:
        return {
            "rule": self.rule_name,
            "crossings": dict(self.crossings),
            "hypothesis_holds": self.hypothesis_holds,
            "bound": self.bound,
            "measured_max": self.measured_max,
            "bound_respected": self.bound_respected,
        }


def check_prop2(rule: SubstitutionRule, seed_type: str, n_max: int) -> Prop2Verdict:
    """Measure max v_max over n <= n_max against the joint-length bound.

    Geometric deterministic rules get the full verdict.  Block rules are
    measured only (no crossing analysis; their images are not rectangles, so
    the bound does not apply).
    """
    if rule.is_random:
        raise RuleError("check_prop2 needs a deterministic rule")
    return analyze(rule, seed_type, n_max)[1]


def analyze(rule: SubstitutionRule, seed_type: str, n: int,
            rng_seed: Optional[int] = None
            ) -> Tuple[JointReport, Optional[Prop2Verdict]]:
    """The level-n joint report with crossings and, for a deterministic
    rule, the check_prop2 verdict over levels 1..n, from one generation
    pass of n steps."""
    measured = 0  # level 0, a single brick, has no joints
    for pattern in levels(rule, seed_type, n, rng_seed):
        report = vertical_joints(pattern)
        measured = max(measured, report.v_max)
    report = report_with_crossings(report, rule)
    if rule.is_random:
        return report, None
    if rule.engine == "block":
        return report, Prop2Verdict(rule.name, {}, None, None, measured, None)
    hypothesis = not any(report.crossings.values())
    bound = prop2_bound(rule)
    respected = (measured <= bound) if hypothesis else True  # vacuous otherwise
    return report, Prop2Verdict(rule.name, report.crossings, hypothesis, bound,
                                measured, respected)


def empirical_frequencies(pattern: Pattern, rule: SubstitutionRule
                          ) -> Dict[str, Fraction]:
    """Brick-count share per type, in the rule's type order, zero-count
    types included."""
    if not pattern.bricks:
        raise ValueError("empty pattern has no frequencies")
    counts = Counter(b.type_id for b in pattern.bricks)
    total = len(pattern.bricks)
    return {tid: Fraction(counts[tid], total) for tid in rule.type_ids}


def report_with_crossings(report: JointReport, rule: SubstitutionRule) -> JointReport:
    """Attach per-type crossing verdicts to a joint report."""
    crossings = {tid: has_crossing(rule, tid) for tid in rule.type_ids}
    return replace(report, crossings=crossings)
