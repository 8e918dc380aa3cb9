"""Independent brute-force oracles shared by the test modules.

These recompute results along a different route than the library:
joints and crossings by rasterizing into unit cells, eigenvectors by
exact rational elimination, a substitution step by one sort of the whole
level.  Slow and simple on purpose.
"""

import bisect
from fractions import Fraction

from brickwall.generate import _ORDER
from brickwall.joints import _edge_segments


def rasterized_joints(pattern):
    """Joints by scanning unit vertical edges of a unit-cell raster.

    A unit edge at (x, [y, y+1]) is mortar when the cells left and right
    of it belong to different bricks (or one is empty).  Lines with no
    brick material strictly left or strictly right are skipped, runs of
    unit edges merge, which mirrors the documented joint convention.
    """
    cells = {}
    for i, b in enumerate(pattern.bricks):
        for cx in range(b.x, b.x + b.width):
            for cy in range(b.y, b.y + b.height):
                cells[(cx, cy)] = i
    min_x = min(b.x for b in pattern.bricks)
    max_x = max(b.x + b.width for b in pattern.bricks)
    min_y = min(b.y for b in pattern.bricks)
    max_y = max(b.y + b.height for b in pattern.bricks)
    joints = []
    for x in range(min_x + 1, max_x):
        run = None
        for y in range(min_y, max_y + 1):
            left, right = cells.get((x - 1, y)), cells.get((x, y))
            edge = (left is not None or right is not None) and left != right
            if edge and y < max_y:
                run = (run[0], y + 1) if run else (y, y + 1)
            elif run:
                joints.append((x, run[0], run[1]))
                run = None
    return sorted(joints)


def rasterized_crossing(bricks):
    """Crossing verdict of a set of bricks from a unit-cell raster.

    Each merged vertical edge run (x, y0, y1) of the bricks, exterior
    included, is walked one unit at a time: it crosses when every unit
    step has cells covered on both sides and at each end at least one of
    the four cells around the end point is uncovered.
    """
    cells = set()
    for b in bricks:
        for cx in range(b.x, b.x + b.width):
            for cy in range(b.y, b.y + b.height):
                cells.add((cx, cy))

    def crosses(x, y0, y1):
        if any((x - 1, y) not in cells or (x, y) not in cells
               for y in range(y0, y1)):
            return False
        return not any(all(q in cells for q in
                           ((x - 1, y), (x, y), (x - 1, y - 1), (x, y - 1)))
                       for y in (y0, y1))

    return any(crosses(x, y0, y1)
               for x, run in _edge_segments(bricks).items()
               for y0, y1 in zip(run[::2], run[1::2]))


def sorted_substitution_step(rule, rows, rng):
    """One substitution step: every child in draw order, one draw per
    parent with options in the order of rows, then one sort of the whole
    level by (y, x, type_id)."""
    out = []
    for t, x, y, _, _ in rows:
        thresholds, options = rule.substitution_table[t]
        children = (options[bisect.bisect_right(thresholds, rng.next_u64())]
                    if thresholds else options[0])
        for c, dx, dy, w, h in children:
            out.append((c, rule.lambda1 * x + dx, rule.lambda2 * y + dy, w, h))
    out.sort(key=_ORDER)
    return tuple(out)


def exact_left_eigenvector(entries, lam):
    """Left eigenvector of a rational matrix for eigenvalue lam, normalized
    to sum 1, by Gaussian elimination over Fractions.  Expects a
    one-dimensional eigenspace."""
    n = len(entries)
    a = [[Fraction(entries[j][i]) - (lam if i == j else 0) for j in range(n)]
         for i in range(n)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col]
        a[row] = [v / inv for v in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1, "expected a one-dimensional eigenspace"
    u = [Fraction(0)] * n
    u[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        u[c] = -a[r][free[0]]
    total = sum(u)
    return tuple(v / total for v in u)
