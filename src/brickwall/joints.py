"""Vertical joint extraction, v_max, crossings, and the joint-length bound.

A vertical joint is a maximal run of brick edges along one abscissa x,
counted only where the wall has bricks strictly on both sides of the line
x = const; the exterior outline of the pattern is not a joint.  Touching
edge intervals merge: mortar interrupted by nothing is continuous mortar.
"""

from __future__ import annotations

from itertools import repeat
from operator import sub
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .generate import _ORDER, Pattern, generate_pattern, levels
from .rules import SubstitutionRule


class JointReport(NamedTuple):
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
    rows, or an image's bricks from _image_bricks.  A brick whose left edge
    starts at the x and y where the previous brick's right edge started,
    as in most rows of a wall, shares that edge: it was just merged into
    the last run of that x, so the brick only raises that run's top."""
    runs: Dict[int, List[int]] = {}
    px = py = run = None  # the previous right edge's x and y0, and its runs
    for _, x0, y0, w, h in bricks:
        y1 = y0 + h
        if x0 == px and y0 == py:
            if y1 > run[-1]:
                run[-1] = y1
        else:
            run = runs.get(x0)
            if run is None:
                runs[x0] = [y0, y1]
            elif y0 > run[-1]:
                run += (y0, y1)
            elif y1 > run[-1]:
                run[-1] = y1
        px, py = x0 + w, y0
        run = runs.get(px)
        if run is None:
            runs[px] = run = [y0, y1]
        elif y0 > run[-1]:
            run += (y0, y1)
        elif y1 > run[-1]:
            run[-1] = y1
    return runs


def vertical_joints(pattern: Pattern) -> JointReport:
    """All maximal vertical joints of a pattern, and their max length.  The
    outline, the least and the greatest abscissa, carries none.  Nothing
    checks the wall: a joint runs on through a hole, and a brick edge
    inside an overlapping brick is a joint (check_no_overlap refuses it)."""
    joints = []
    v_max = 0
    # the least and the greatest abscissa are the outline
    runs = _edge_segments(pattern.rows)
    for x in sorted(runs)[1:-1]:
        run = runs[x]
        y0s, y1s = run[::2], run[1::2]
        joints += zip(repeat(x), y0s, y1s)
        v_max = max(v_max, max(map(sub, y1s, y0s)))
    return JointReport(v_max, tuple(joints), pattern)


def _v_max(rows) -> int:
    """vertical_joints(pattern).v_max of a wall's rows, without its joints."""
    runs = _edge_segments(rows)
    outline = min(runs), max(runs)
    return max((max(map(sub, run[1::2], run[::2]))
                for x, run in runs.items() if x not in outline), default=0)


def _image_bricks(opt):
    # a rule lists them in any order; a wall holds them in wall order
    return sorted(opt.placements, key=_ORDER)


def _bricks_have_crossing(bricks) -> bool:
    """True iff some edge run at x has bricks on both sides and ends on the
    boundary: for bricks that do not overlap, a maximal run of the right
    edges and of the left edges at x (a width-0 brick yields one side's
    run) with no brick straddling x just below or just above it."""
    lefts = _edge_segments([(t, x, y, 0, h) for t, x, y, _, h in bricks])
    rights = _edge_segments([(t, x + w, y, 0, h) for t, x, y, w, h in bricks])
    for x, run in rights.items():
        left = lefts.get(x, [])
        for y0, y1 in set(zip(run[::2], run[1::2])).intersection(
                zip(left[::2], left[1::2])):
            if not any(bx < x < bx + w and (by + h == y0 or by == y1)
                       for _, bx, by, w, h in bricks):
                return True
    return False


def crossing_options(rule: SubstitutionRule, type_id: str) -> Tuple[bool, ...]:
    """Crossing verdict per image option of one type."""
    rule.get_type(type_id)
    if rule.engine == "block":
        return (_bricks_have_crossing(generate_pattern(rule, type_id, 1).rows),)
    return tuple(_bricks_have_crossing(_image_bricks(opt))
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


class Prop2Verdict(NamedTuple):
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


def analyze(rule: SubstitutionRule, seed_type: str, n: int,
            rng_seed: Optional[int] = None
            ) -> Tuple[JointReport, Optional[Prop2Verdict]]:
    """The level-n joint report with crossings and the verdict on the
    joint-length bound over levels 1..n, from one generation pass of n
    steps.

    A random rule gets no verdict.  A geometric deterministic rule gets the
    full verdict.  A block rule's report carries the crossings of each
    letter's level-1 wall, but its verdict only measures: its images are not
    rectangles, so the bound does not apply.
    """
    measured = 0  # level 0, a single brick, has no joints
    for pattern in levels(rule, seed_type, n, rng_seed):
        if pattern.level < n:
            measured = max(measured, _v_max(pattern.rows))
    report = report_with_crossings(vertical_joints(pattern), rule)
    measured = max(measured, report.v_max)
    if rule.is_random:
        return report, None
    if rule.engine == "block":
        return report, Prop2Verdict(rule.name, {}, None, None, measured, None)
    hypothesis = not any(report.crossings.values())
    bound = prop2_bound(rule)
    respected = (measured <= bound) if hypothesis else True  # vacuous otherwise
    return report, Prop2Verdict(rule.name, report.crossings, hypothesis, bound,
                                measured, respected)


def report_with_crossings(report: JointReport, rule: SubstitutionRule) -> JointReport:
    """Attach per-type crossing verdicts to a joint report."""
    crossings = {tid: has_crossing(rule, tid) for tid in rule.type_ids}
    return report._replace(crossings=crossings)
