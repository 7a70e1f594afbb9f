"""Reference oracles, deliberately independent of the carve deciders.

They share no code with the deciders: no prefix tables, no integer images,
nothing from ``carve`` but the class descriptor and kind.

The interval-shaped classes (boxes, degenerate balls, anchored degenerate
balls, axis cuts) are checked by brute enumeration: per axis, list every
distinct trace an admissible interval can leave on the point coordinates
(endpoints drawn from a finite grid: the coordinates themselves, anchor
corners, midpoints of consecutive grid values, and sentinels beyond the
extremes), then intersect axiswise.  Each grid value is compared with every
coordinate once, giving the mask of coordinates at or above it and the mask
of those at or below it; the trace of ``[lo, hi]`` is then the AND of the
two.  The midpoints matter only for the nondegenerate-box variant, where a
carve can genuinely need an endpoint strictly between two data values; for
the closed classes they are redundant but harmless.

Cubes are checked by an unpruned enumeration over all assignments of
excluded points to (axis, side) slots.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, Optional, Set

from .carve import ClassDescriptor, ClassKind
from .errors import DomainError
from .geometry import PointSet
from .scalars import midpoint


def _axis_grid(coords, anchor_iv) -> list:
    vals = set(coords)
    if anchor_iv is not None:
        vals.add(anchor_iv.lo)
        vals.add(anchor_iv.hi)
    vals = sorted(vals)
    grid = [vals[0] - 2, vals[0] - 1]
    for a, b in zip(vals, vals[1:]):
        grid.append(a)
        grid.append(midpoint(a, b))
    grid.append(vals[-1])
    grid.append(vals[-1] + 1)
    grid.append(vals[-1] + 2)
    return grid


def _axis_traces(coords, kind: ClassKind, anchor_iv) -> Set[int]:
    """Every trace an admissible interval with endpoints on the grid leaves
    on ``coords``: the points at or above ``lo`` AND those at or below ``hi``."""
    grid = _axis_grid(coords, anchor_iv)
    top = len(grid)  # the index of POS_INF among the highs; NEG_INF is -1
    full = (1 << len(coords)) - 1
    lows = [(-1, full)]
    highs = []
    for k, g in enumerate(grid):
        above = below = 0
        for i, c in enumerate(coords):
            if c >= g:
                above |= 1 << i
            if c <= g:
                below |= 1 << i
        lows.append((k, above))
        highs.append((k, below))
    highs.append((top, full))
    if anchor_iv is not None:
        lows = [(k, m) for k, m in lows if k < 0 or grid[k] <= anchor_iv.lo]
        highs = [(k, m) for k, m in highs if k == top or anchor_iv.hi <= grid[k]]
    # a degenerate factor leaves at least one side unbounded
    bounded = kind not in (ClassKind.DEGENERATE_BALLS, ClassKind.ANCHORED_DEGENERATE_BALLS)
    strict = kind is ClassKind.BOXES_NONDEGENERATE
    traces: Set[int] = set()
    for i, above in lows:
        for j, below in highs:
            if i >= 0 and j < top and (not bounded or i > j or (strict and i == j)):
                continue
            traces.add(above & below)
    return traces


def trace_set(ps: PointSet, descriptor: ClassDescriptor) -> FrozenSet[int]:
    """Every subset mask some concept of the class realizes on ps."""
    if ps.dim != descriptor.dim:
        raise DomainError("dimension mismatch")
    kind = descriptor.kind
    if kind is ClassKind.AXIS_CUTS:
        out = {0}
        for i in range(ps.dim):
            coords = [p[i] for p in ps.points]
            for v in set(coords):
                m = 0
                for j, c in enumerate(coords):
                    if c <= v:
                        m |= 1 << j
                out.add(m)
        return frozenset(out)
    if kind is ClassKind.CUBES:
        raise DomainError("use the cube-specific oracles for cubes")
    cur: Optional[Set[int]] = None
    for i in range(ps.dim):
        coords = [p[i] for p in ps.points]
        anchor_iv = (
            descriptor.anchor.intervals[i]
            if kind is ClassKind.ANCHORED_DEGENERATE_BALLS
            else None
        )
        opts = _axis_traces(coords, kind, anchor_iv)
        cur = opts if cur is None else {a & b for a in cur for b in opts}
    assert cur is not None
    return frozenset(cur)


def oracle_feasible(ps: PointSet, mask: int, descriptor: ClassDescriptor) -> bool:
    """Reference verdict for the interval-shaped classes."""
    return mask in trace_set(ps, descriptor)


def cube_feasible_unpruned(ps: PointSet, mask: int) -> bool:
    """Unpruned enumeration over all (axis, side) assignments of excluded points.

    For an assignment, only the tightest threshold per (axis, side) matters:
    feasibility needs every high threshold strictly above the subset hull,
    every low threshold strictly below it, and on axes carrying both a gap
    strictly exceeding the largest hull width (the forced diameter).
    """
    d = ps.dim
    inc = [p for i, p in enumerate(ps.points) if mask >> i & 1]
    exc = [p for i, p in enumerate(ps.points) if not mask >> i & 1]
    if not inc or not exc:
        return True
    lo = [min(p[i] for p in inc) for i in range(d)]
    hi = [max(p[i] for p in inc) for i in range(d)]
    max_width = max(h - l for h, l in zip(hi, lo))
    slots = [(i, s) for i in range(d) for s in (0, 1)]  # 0 = low, 1 = high
    for assign in product(range(2 * d), repeat=len(exc)):
        hi_min = [None] * d
        lo_max = [None] * d
        for q, slot in zip(exc, assign):
            i, s = slots[slot]
            v = q[i]
            if s == 1:
                if hi_min[i] is None or v < hi_min[i]:
                    hi_min[i] = v
            else:
                if lo_max[i] is None or v > lo_max[i]:
                    lo_max[i] = v
        ok = True
        for i in range(d):
            if hi_min[i] is not None and not hi_min[i] > hi[i]:
                ok = False
                break
            if lo_max[i] is not None and not lo_max[i] < lo[i]:
                ok = False
                break
            if (
                hi_min[i] is not None
                and lo_max[i] is not None
                and not hi_min[i] - lo_max[i] > max_width
            ):
                ok = False
                break
        if ok:
            return True
    return False
