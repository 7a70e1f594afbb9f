"""References the tests compare ``vclab.oracles`` and the deciders with.

``axis_traces`` is the per-interval reference for the interval oracle's axis
traces.  Independent of how ``vclab.oracles`` builds its masks: for every
candidate ``(lo, hi)`` on the oracle's endpoint grid (plus the infinite
ends), it filters the interval by its class and anchor and then tests every
coordinate for membership.

``cube_feasible_grid`` is a second cube oracle: it exhibits concrete cubes
from a finite center/radius grid.  It is sound but not complete, so it is
only used in the direction "grid found one => decider must agree".
"""

from fractions import Fraction
from itertools import product

from vclab.carve import ClassKind
from vclab.geometry import Cube, PointSet
from vclab.oracles import _axis_grid
from vclab.scalars import NEG_INF, POS_INF, midpoint


def axis_traces(coords, kind, anchor_iv):
    grid = _axis_grid(coords, anchor_iv)
    lows = [NEG_INF] + grid
    highs = grid + [POS_INF]
    traces = set()
    for lo in lows:
        for hi in highs:
            if lo is not NEG_INF and hi is not POS_INF:
                if lo > hi:
                    continue
                if kind is ClassKind.BOXES_NONDEGENERATE and lo == hi:
                    continue
                if kind in (
                    ClassKind.DEGENERATE_BALLS,
                    ClassKind.ANCHORED_DEGENERATE_BALLS,
                ):
                    continue  # both sides bounded: not a degenerate factor
            if anchor_iv is not None:
                if not (lo <= anchor_iv.lo and anchor_iv.hi <= hi):
                    continue
            m = 0
            for i, c in enumerate(coords):
                if lo <= c <= hi:
                    m |= 1 << i
            traces.add(m)
    return traces


def cube_feasible_grid(ps: PointSet, mask: int) -> bool:
    """Exhibit a carving cube with center/radius on a finite grid, or give up.

    Sound (any hit is membership-checked) but not complete; intended for
    small instances only.
    """
    n = len(ps)
    d = ps.dim
    inc = [p for i, p in enumerate(ps.points) if mask >> i & 1]
    if not inc or len(inc) == n:
        return True

    radii = {Fraction(0)}
    for i in range(d):
        coords = sorted({p[i] for p in ps.points})
        for a in coords:
            for b in coords:
                if a < b:
                    radii.add(Fraction(b - a, 2))
    radii = sorted(radii)
    extended = list(radii)
    for a, b in zip(radii, radii[1:]):
        extended.append(midpoint(a, b))
    extended.append(radii[-1] + 1)

    lo = [min(p[i] for p in inc) for i in range(d)]
    hi = [max(p[i] for p in inc) for i in range(d)]

    def trace(cube: Cube) -> int:
        m = 0
        for j, p in enumerate(ps.points):
            if cube.contains(p):
                m |= 1 << j
        return m

    for r in sorted(set(extended)):
        per_axis = []
        feasible_r = True
        for i in range(d):
            cands = set()
            for p in ps.points:
                cands.add(p[i] - r)
                cands.add(p[i] + r)
            cands = sorted(cands)
            full = list(cands)
            for a, b in zip(cands, cands[1:]):
                full.append(midpoint(a, b))
            # containment window for this axis
            window = [c for c in full if hi[i] - r <= c <= lo[i] + r]
            if not window:
                feasible_r = False
                break
            per_axis.append(sorted(set(window)))
        if not feasible_r:
            continue
        for center in product(*per_axis):
            if trace(Cube(tuple(center), r)) == mask:
                return True
    return False
