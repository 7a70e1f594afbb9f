"""Carve-out deciders: which subsets can a concept class cut out of a set?

Given a finite point set S and a subset S' (encoded as a bit mask over S's
order), a class E *carves* S' from S when some concept C in E satisfies
C and S = S' exactly.  Every decider here is exact over the rationals and,
when feasible, returns a concrete witness concept whose trace is re-checked
before it is handed back.

Supported classes:

* BOXES / BOXES_NONDEGENERATE: products of closed intervals, sides may be
  unbounded; the nondegenerate variant forbids single-point sides.  The two
  variants provably agree on feasibility (inflate a point side by less than
  the least exclusion slack), and are checked to agree.
* CUBES: sup-norm balls (axis-aligned cubes), radius >= 0.
* DEGENERATE_BALLS: boxes whose every side is unbounded in at least one
  direction (limits of runaway balls).
* ANCHORED_DEGENERATE_BALLS: degenerate balls required to contain a fixed
  bounded anchor box.  There is no empty-mask short-circuit here: excluding
  all of S while containing the anchor can genuinely be infeasible.
* AXIS_CUTS: lower half-spaces {x : x_i <= a}, one coordinate at a time.

Degenerate balls (anchored or not) and cubes share one cover search
(``_cover``): every point outside hull(S') (plus anchor) must be excluded
by a committed side, (axis, low) or (axis, high), of that hull, and per
axis only the tightest committed threshold of each side matters.  The two
classes differ in two rules.  A degenerate ball commits a side at the hull
edge, which excludes every point beyond it; a cube commits it at the point
being excluded.  A degenerate ball never closes both sides of an axis; a
cube may, when their gap exceeds the widest hull side, the least diameter
of a cube containing S'.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from .errors import (
    AnchorMissingError,
    DimensionMismatchError,
    DomainError,
    UnboundedAnchorError,
)
from .geometry import Box, Cube, Interval, Point, PointSet, rect_hull
from .scalars import NEG_INF, POS_INF, Scalar, as_scalar, midpoint

SubsetMask = int


class ClassKind(Enum):
    BOXES = "boxes"
    BOXES_NONDEGENERATE = "boxes-nondegenerate"
    CUBES = "cubes"
    DEGENERATE_BALLS = "degenerate"
    ANCHORED_DEGENERATE_BALLS = "anchored"
    AXIS_CUTS = "cuts"


@dataclass(frozen=True)
class ClassDescriptor:
    """A concept class instance: kind, ambient dimension, optional anchor."""

    kind: ClassKind
    dim: int
    anchor: Optional[Box] = None

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DomainError(f"class dimension must be a positive int: {self.dim!r}")
        if self.kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
            if self.anchor is None:
                raise AnchorMissingError("anchored class requires an anchor box")
            if self.anchor.dim != self.dim:
                raise DimensionMismatchError("anchor dimension mismatch")
            if not self.anchor.is_bounded:
                raise UnboundedAnchorError("anchor box must be bounded")
        elif self.anchor is not None:
            raise DomainError(f"class {self.kind.value} takes no anchor")


def boxes(dim: int, nondegenerate: bool = False) -> ClassDescriptor:
    kind = ClassKind.BOXES_NONDEGENERATE if nondegenerate else ClassKind.BOXES
    return ClassDescriptor(kind, dim)


def cubes(dim: int) -> ClassDescriptor:
    return ClassDescriptor(ClassKind.CUBES, dim)


def degenerate_balls(dim: int) -> ClassDescriptor:
    return ClassDescriptor(ClassKind.DEGENERATE_BALLS, dim)


def anchored(anchor: Box) -> ClassDescriptor:
    return ClassDescriptor(ClassKind.ANCHORED_DEGENERATE_BALLS, anchor.dim, anchor)


def origin_anchored(dim: int) -> ClassDescriptor:
    """Degenerate balls through the origin (anchor = the single point 0)."""
    zero = [0] * dim
    return ClassDescriptor(
        ClassKind.ANCHORED_DEGENERATE_BALLS, dim, Box.from_bounds(zero, zero)
    )


@dataclass(frozen=True)
class AxisCut:
    """The lower half-space {x : x[axis] <= threshold}."""

    axis: int
    threshold: Scalar

    def __post_init__(self):
        if not isinstance(self.axis, int) or self.axis < 0:
            raise DomainError(f"cut axis must be a nonnegative int: {self.axis!r}")
        object.__setattr__(self, "threshold", as_scalar(self.threshold))

    def contains(self, point) -> bool:
        return point[self.axis] <= self.threshold


@dataclass(frozen=True)
class CarveWitness:
    """A feasible carve: the concept realizing exactly the requested trace."""

    descriptor: ClassDescriptor
    mask: SubsetMask
    concept: object  # Box | Cube | AxisCut

    def contains(self, point) -> bool:
        return self.concept.contains(point)


def _trace_mask(concept, ps: PointSet) -> int:
    m = 0
    for i, p in enumerate(ps.points):
        if concept.contains(p):
            m |= 1 << i
    return m


def _concept_in_class(concept, descriptor: ClassDescriptor) -> bool:
    kind = descriptor.kind
    if kind in (ClassKind.BOXES, ClassKind.BOXES_NONDEGENERATE):
        if not isinstance(concept, Box) or concept.dim != descriptor.dim:
            return False
        if kind is ClassKind.BOXES_NONDEGENERATE:
            return all(iv.lo < iv.hi for iv in concept.intervals)
        return True
    if kind is ClassKind.CUBES:
        return isinstance(concept, Cube) and concept.dim == descriptor.dim
    if kind is ClassKind.DEGENERATE_BALLS:
        return (
            isinstance(concept, Box)
            and concept.dim == descriptor.dim
            and concept.is_degenerate_ball
        )
    if kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
        return (
            isinstance(concept, Box)
            and concept.dim == descriptor.dim
            and concept.is_degenerate_ball
            and concept.contains_box(descriptor.anchor)
        )
    if kind is ClassKind.AXIS_CUTS:
        return isinstance(concept, AxisCut) and 0 <= concept.axis < descriptor.dim
    raise DomainError(f"unknown class kind {kind!r}")


def _checked(concept, ps: PointSet, mask: int, descriptor: ClassDescriptor) -> CarveWitness:
    # Internal postcondition, enforced on every feasible return.
    if not _concept_in_class(concept, descriptor):
        raise RuntimeError(f"decider produced a concept outside its class: {concept!r}")
    got = _trace_mask(concept, ps)
    if got != mask:
        raise RuntimeError(
            f"decider witness has wrong trace: wanted {mask:#x}, got {got:#x}"
        )
    return CarveWitness(descriptor, mask, concept)


def _split(ps: PointSet, mask: int) -> Tuple[Tuple[Point, ...], Tuple[Point, ...]]:
    inc, exc = [], []
    for i, p in enumerate(ps.points):
        (inc if mask >> i & 1 else exc).append(p)
    return tuple(inc), tuple(exc)


# ---------------------------------------------------------------------------
# boxes


def _far_low_box(ps: PointSet) -> Box:
    mins = [min(p[i] for p in ps.points) for i in range(ps.dim)]
    return Box.from_bounds([m - 2 for m in mins], [m - 1 for m in mins])


def carve_box(
    ps: PointSet, mask: SubsetMask, nondegenerate: bool = False
) -> Optional[Box]:
    """Feasible iff the rectangular hull of S' meets S exactly in S'."""
    inc, exc = _split(ps, mask)
    if not inc:
        return _far_low_box(ps)
    hull = rect_hull(inc)
    for q in exc:
        if hull.contains(q):
            return None
    if nondegenerate and any(iv.lo == iv.hi for iv in hull.intervals):
        if exc:
            slack = min(
                max(
                    max(iv.lo - x, x - iv.hi)
                    for iv, x in zip(hull.intervals, q)
                )
                for q in exc
            )
            eps = as_scalar(Fraction(slack, 2))
        else:
            eps = 1
        hull = Box.from_bounds(
            [iv.lo - eps for iv in hull.intervals],
            [iv.hi + eps for iv in hull.intervals],
        )
    return hull


# ---------------------------------------------------------------------------
# the cover search shared by degenerate balls and cubes

_LOW, _HIGH = 0, 1


def _cover(exc, lo, hi, at_edge: bool, max_width: Optional[Scalar]):
    """Commit (axis, side) thresholds of hull [lo, hi] excluding every point of exc.

    The two rules are the module docstring's: ``at_edge`` commits a side at
    the hull edge (degenerate balls), else at the excluded point (cubes);
    an axis closes both sides only when their gap exceeds ``max_width``,
    and never when it is None (degenerate balls).  Depth-first search
    branching on the point with the fewest viable options (axis by axis,
    low before high).  Returns the tightest committed thresholds
    ``(hi_min, lo_max)`` per axis, or None.
    """
    dim = len(lo)
    options = []
    for q in exc:
        opts = []
        for i in range(dim):
            if q[i] < lo[i]:
                opts.append((i, _LOW, lo[i] if at_edge else q[i]))
            if q[i] > hi[i]:
                opts.append((i, _HIGH, hi[i] if at_edge else q[i]))
        if not opts:
            return None
        options.append(opts)

    order = sorted(range(len(exc)), key=lambda j: (len(options[j]), j))
    hi_min = [None] * dim
    lo_max = [None] * dim

    def dfs(remaining) -> bool:
        if not remaining:
            return True
        best_j, best_viable = None, None
        for j in remaining:
            viable = []
            for opt in options[j]:
                i, s, v = opt
                if s == _HIGH:
                    t = lo_max[i]
                    if t is None or max_width is not None and v - t > max_width:
                        viable.append(opt)
                else:
                    t = hi_min[i]
                    if t is None or max_width is not None and t - v > max_width:
                        viable.append(opt)
            if not viable:
                return False
            if best_viable is None or len(viable) < len(best_viable):
                best_j, best_viable = j, viable
                if len(viable) == 1:
                    break
        for i, s, v in best_viable:
            if s == _HIGH:
                prev, hi_min[i] = hi_min[i], v
            else:
                prev, lo_max[i] = lo_max[i], v
            # only (i, s) tightened, so only it can exclude more points
            rest = []
            for j in remaining:
                if j != best_j:
                    for a, t, u in options[j]:
                        if a == i and t == s and (u >= v if s == _HIGH else u <= v):
                            break
                    else:
                        rest.append(j)
            if dfs(rest):
                return True
            if s == _HIGH:
                hi_min[i] = prev
            else:
                lo_max[i] = prev
        return False

    if not dfs(order):
        return None
    return hi_min, lo_max


# ---------------------------------------------------------------------------
# degenerate balls (optionally anchored)


def carve_degenerate(
    ps: PointSet, mask: SubsetMask, anchor: Optional[Box] = None
) -> Optional[Box]:
    """Cover search with every committed side at the hull edge.

    A degenerate ball containing hull(S' + anchor) can close at most one
    side per axis; closing the low side at the hull minimum excludes exactly
    the points strictly below it, and dually.
    """
    dim = ps.dim
    inc, exc = _split(ps, mask)
    if not inc and anchor is None:
        if not exc:
            return Box.full_space(dim)
        top = max(q[0] for q in exc)
        ivals = [Interval(top + 1, POS_INF)] + [
            Interval.full_line() for _ in range(dim - 1)
        ]
        return Box(tuple(ivals))

    axes = list(zip(*inc)) or [()] * dim
    if anchor is None:
        lo, hi = [min(a) for a in axes], [max(a) for a in axes]
    else:  # the hull must contain the anchor box too
        lo = [min((*a, iv.lo)) for a, iv in zip(axes, anchor.intervals)]
        hi = [max((*a, iv.hi)) for a, iv in zip(axes, anchor.intervals)]
    found = _cover(exc, lo, hi, at_edge=True, max_width=None)
    if found is None:
        return None
    hi_min, lo_max = found
    return Box(tuple(
        Interval(lo[i], POS_INF) if lo_max[i] is not None
        else Interval(NEG_INF, hi[i]) if hi_min[i] is not None
        else Interval.full_line()
        for i in range(dim)
    ))


# ---------------------------------------------------------------------------
# cubes


_EMPTY_TRACE = object()  # sentinel: empty subset, any faraway cube works


def _cube_search(ps: PointSet, mask: SubsetMask):
    """Decision core for cubes: the cover search with sides at the points.

    Feasible results are either the _EMPTY_TRACE sentinel or a tuple
    (lo, hi, hi_min, lo_max, max_width) with the subset hull and the tightest
    exclusion threshold committed per (axis, side).
    """
    inc, exc = _split(ps, mask)
    if not inc:
        return _EMPTY_TRACE
    axes = list(zip(*inc))
    lo, hi = [min(a) for a in axes], [max(a) for a in axes]
    max_width = max(h - l for h, l in zip(hi, lo))  # = 2 * R0
    found = _cover(exc, lo, hi, at_edge=False, max_width=max_width)
    if found is None:
        return None
    return (lo, hi) + found + (max_width,)


def carve_cube(ps: PointSet, mask: SubsetMask) -> Optional[Cube]:
    """Cover search with every committed side at the excluded point.

    Containment of S' forces 2r >= every hull width; excluding a point via
    (axis, high) forces center + r below that point's coordinate, and dually.
    An axis carrying both thresholds forces 2r strictly below their gap, so
    the radius sits between half the widest hull side and half the least
    such gap, and each center coordinate between its two bounds.
    """
    dim = ps.dim
    found = _cube_search(ps, mask)
    if found is None:
        return None
    if found is _EMPTY_TRACE:
        mins0 = min(p[0] for p in ps.points)
        center = [as_scalar(mins0 - 2)] + [0] * (dim - 1)
        return Cube(tuple(center), Fraction(1, 2))
    lo, hi, hi_min, lo_max, max_width = found

    r0 = Fraction(max_width, 2)
    pair_bounds = [
        Fraction(hi_min[i] - lo_max[i], 2)
        for i in range(dim)
        if hi_min[i] is not None and lo_max[i] is not None
    ]
    if pair_bounds:
        r = midpoint(r0, min(pair_bounds))
    else:
        r = as_scalar(r0)
    center = []
    for i in range(dim):
        c_lo = hi[i] - r
        if lo_max[i] is not None and lo_max[i] + r > c_lo:
            c_lo = lo_max[i] + r
        c_hi = lo[i] + r
        if hi_min[i] is not None and hi_min[i] - r < c_hi:
            c_hi = hi_min[i] - r
        center.append(midpoint(c_lo, c_hi))
    return Cube(tuple(center), r)


# ---------------------------------------------------------------------------
# axis cuts


def carve_axis_cut(ps: PointSet, mask: SubsetMask) -> Optional[AxisCut]:
    """Feasible iff some axis strictly separates S' below from the rest."""
    inc, exc = _split(ps, mask)
    for i in range(ps.dim):
        top = max(p[i] for p in inc) if inc else None
        bottom = min(q[i] for q in exc) if exc else None
        if top is None:
            return AxisCut(i, bottom - 1)
        if bottom is None:
            return AxisCut(i, top)
        if top < bottom:
            return AxisCut(i, midpoint(top, bottom))
    return None


# ---------------------------------------------------------------------------
# dispatch


def _decide(
    ps: PointSet,
    mask: SubsetMask,
    descriptor: ClassDescriptor,
    want_witness: bool = True,
):
    if ps.dim != descriptor.dim:
        raise DimensionMismatchError(
            f"set dimension {ps.dim} != class dimension {descriptor.dim}"
        )
    n = len(ps)
    if not isinstance(mask, int) or not 0 <= mask < (1 << n):
        raise DomainError(f"mask {mask!r} out of range for {n} points")

    kind = descriptor.kind
    if kind is ClassKind.BOXES:
        return carve_box(ps, mask, nondegenerate=False)
    if kind is ClassKind.BOXES_NONDEGENERATE:
        return carve_box(ps, mask, nondegenerate=True)
    if kind is ClassKind.CUBES:
        if want_witness:
            return carve_cube(ps, mask)
        return _cube_search(ps, mask)
    if kind is ClassKind.DEGENERATE_BALLS:
        return carve_degenerate(ps, mask, anchor=None)
    if kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
        return carve_degenerate(ps, mask, anchor=descriptor.anchor)
    if kind is ClassKind.AXIS_CUTS:
        return carve_axis_cut(ps, mask)
    raise DomainError(f"unknown class kind {kind!r}")


def carve(
    ps: PointSet, mask: SubsetMask, descriptor: ClassDescriptor
) -> Optional[CarveWitness]:
    """Decide one mask; return a validated witness or None (infeasible)."""
    concept = _decide(ps, mask, descriptor)
    if concept is None:
        return None
    return _checked(concept, ps, mask, descriptor)


def carve_feasible(ps: PointSet, mask: SubsetMask, descriptor: ClassDescriptor) -> bool:
    """Feasibility only (still exact; skips witness construction/validation)."""
    return _decide(ps, mask, descriptor, want_witness=False) is not None
