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

Every class decides on the integer image of S (``PointSet.scaled``: the
coordinates times their least common denominator L; anchor endpoints are
scaled by L too, exactly).  A positive uniform scale keeps every comparison,
every width and every gap, so the verdicts, and the branching order of the
cover search, are those on S itself.  Each class splits into a search,
which stops at that integer verdict (``carve_feasible`` never builds a
concept), and a build step used by ``carve``, which maps the result back:
a hull bound is looked up as the point's own coordinate object, while
midpoints, radii and slacks are divided by L.  The re-check of a built
concept (``_trace_mask``) runs on the original rationals, one difference
of the per-axis prefix bitmasks (``PointSet.axis_prefix``) per axis.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
from .geometry import Box, Cube, Interval, PointSet
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
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
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
        if not isinstance(self.axis, int) or isinstance(self.axis, bool) or self.axis < 0:
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
    """The mask of the points of ps that concept contains, on the original rationals.

    For a box, cube or cut it is read off ``ps.axis_prefix``: per axis, the
    points between the concept's two bounds are one difference of prefix
    masks.  Any other concept, or one of another dimension, is tested point
    by point (which raises on a dimension mismatch).
    """
    if isinstance(concept, AxisCut) and concept.axis < ps.dim:
        values, prefix = ps.axis_prefix[concept.axis]
        return prefix[bisect_right(values, concept.threshold)]
    if isinstance(concept, Box) and concept.dim == ps.dim:
        bounds = [(iv.lo, iv.hi) for iv in concept.intervals]
    elif isinstance(concept, Cube) and concept.dim == ps.dim:
        r = concept.radius
        bounds = [(c - r, c + r) for c in concept.center]
    else:
        m = 0
        for i, p in enumerate(ps.points):
            if concept.contains(p):
                m |= 1 << i
        return m
    m = (1 << len(ps)) - 1
    for (values, prefix), (lo, hi) in zip(ps.axis_prefix, bounds):
        if hi is not POS_INF:
            m &= prefix[bisect_right(values, hi)]
        if lo is not NEG_INF:
            m &= ~prefix[bisect_left(values, lo)]
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


def _split(ps: PointSet, mask: int) -> Tuple[list, list]:
    """The integer images (``ps.scaled``) of the points in and out of mask."""
    inc, exc = [], []
    for i, p in enumerate(ps.scaled[1]):
        (inc if mask >> i & 1 else exc).append(p)
    return inc, exc


def _own(ps: PointSet, axis: int, v, default=None):
    """The coordinate on axis of a point whose image is v, as that point's own
    scalar object (witnesses share it rather than hold a copy); ``default``
    when no point has that image."""
    den, image = ps.scaled
    if den == 1:
        return v
    for p, q in zip(ps.points, image):
        if q[axis] == v:
            return p[axis]
    return default


def _unscale(v: Scalar, den: int) -> Scalar:
    return v if den == 1 else as_scalar(Fraction(v, den))


_EMPTY_TRACE = object()  # sentinel: empty subset, built without a hull


# ---------------------------------------------------------------------------
# boxes


def _far_low_box(ps: PointSet) -> Box:
    mins = [min(p[i] for p in ps.points) for i in range(ps.dim)]
    return Box.from_bounds([m - 2 for m in mins], [m - 1 for m in mins])


def _box_search(ps: PointSet, mask: SubsetMask):
    """Decision core for boxes: the hull test on the integer image.

    Feasible results are _EMPTY_TRACE or ``(lo, hi, exc)``: the hull of the
    image of S' and the images of the excluded points.
    """
    inc, exc = _split(ps, mask)
    if not inc:
        return _EMPTY_TRACE
    axes = list(zip(*inc))
    lo, hi = [min(a) for a in axes], [max(a) for a in axes]
    for q in exc:
        for l, x, h in zip(lo, q, hi):
            if x < l or x > h:
                break
        else:
            return None
    return lo, hi, exc


def _box_build(ps: PointSet, found, nondegenerate: bool) -> Box:
    if found is _EMPTY_TRACE:
        return _far_low_box(ps)
    lo, hi, exc = found
    lows = [_own(ps, i, v) for i, v in enumerate(lo)]
    highs = [_own(ps, i, v) for i, v in enumerate(hi)]
    if nondegenerate and any(l == h for l, h in zip(lo, hi)):
        # inflate by half the least exclusion slack
        if exc:
            slack = min(
                max(max(l - x, x - h) for l, x, h in zip(lo, q, hi)) for q in exc
            )
            eps = as_scalar(Fraction(slack, 2 * ps.scaled[0]))
        else:
            eps = 1
        lows = [v - eps for v in lows]
        highs = [v + eps for v in highs]
    return Box.from_bounds(lows, highs)


def carve_box(
    ps: PointSet, mask: SubsetMask, nondegenerate: bool = False
) -> Optional[Box]:
    """Feasible iff the rectangular hull of S' meets S exactly in S'."""
    found = _box_search(ps, mask)
    return None if found is None else _box_build(ps, found, nondegenerate)


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


def _degenerate_search(ps: PointSet, mask: SubsetMask, anchor: Optional[Box]):
    """Decision core for degenerate balls: the cover search at the hull edges.

    Feasible results are _EMPTY_TRACE (empty subset, no anchor) or
    ``(lo, hi, hi_min, lo_max)``: the hull of the image of S' plus the
    scaled anchor, and the committed sides.
    """
    inc, exc = _split(ps, mask)
    if not inc and anchor is None:
        return _EMPTY_TRACE
    axes = list(zip(*inc)) or [()] * ps.dim
    if anchor is None:
        lo, hi = [min(a) for a in axes], [max(a) for a in axes]
    else:  # the hull must contain the anchor box too
        a_lo, a_hi = anchor.scaled(ps.scaled[0])
        lo = [min((*a, v)) for a, v in zip(axes, a_lo)]
        hi = [max((*a, v)) for a, v in zip(axes, a_hi)]
    found = _cover(exc, lo, hi, at_edge=True, max_width=None)
    return None if found is None else (lo, hi) + found


def _degenerate_build(ps: PointSet, found, anchor: Optional[Box]) -> Box:
    dim = ps.dim
    if found is _EMPTY_TRACE:
        top = max(p[0] for p in ps.points)
        return Box(
            (Interval(top + 1, POS_INF),)
            + tuple(Interval.full_line() for _ in range(dim - 1))
        )
    lo, hi, hi_min, lo_max = found
    # a hull edge that no point has is the anchor's (unanchored: never)
    sides = anchor.intervals if anchor is not None else [Interval.full_line()] * dim
    return Box(tuple(
        Interval(_own(ps, i, lo[i], sides[i].lo), POS_INF) if lo_max[i] is not None
        else Interval(NEG_INF, _own(ps, i, hi[i], sides[i].hi)) if hi_min[i] is not None
        else Interval.full_line()
        for i in range(dim)
    ))


def carve_degenerate(
    ps: PointSet, mask: SubsetMask, anchor: Optional[Box] = None
) -> Optional[Box]:
    """Cover search with every committed side at the hull edge.

    A degenerate ball containing hull(S' + anchor) can close at most one
    side per axis; closing the low side at the hull minimum excludes exactly
    the points strictly below it, and dually.
    """
    found = _degenerate_search(ps, mask, anchor)
    return None if found is None else _degenerate_build(ps, found, anchor)


# ---------------------------------------------------------------------------
# cubes


def _cube_search(ps: PointSet, mask: SubsetMask):
    """Decision core for cubes: the cover search with sides at the points.

    Feasible results are either the _EMPTY_TRACE sentinel or a tuple
    (lo, hi, hi_min, lo_max, max_width) with the hull of the image of S' and
    the tightest exclusion threshold committed per (axis, side).
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


def _cube_build(ps: PointSet, found) -> Cube:
    dim = ps.dim
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
    den = ps.scaled[0]
    return Cube(tuple(_unscale(c, den) for c in center), _unscale(r, den))


def carve_cube(ps: PointSet, mask: SubsetMask) -> Optional[Cube]:
    """Cover search with every committed side at the excluded point.

    Containment of S' forces 2r >= every hull width; excluding a point via
    (axis, high) forces center + r below that point's coordinate, and dually.
    An axis carrying both thresholds forces 2r strictly below their gap, so
    the radius sits between half the widest hull side and half the least
    such gap, and each center coordinate between its two bounds.
    """
    found = _cube_search(ps, mask)
    return None if found is None else _cube_build(ps, found)


# ---------------------------------------------------------------------------
# axis cuts


def _cut_search(ps: PointSet, mask: SubsetMask):
    """Decision core for axis cuts, on the integer image.

    Feasible results are ``(axis, top, bottom)`` for the first such axis:
    the images of the largest included and the least excluded coordinate,
    None for an empty side.
    """
    inc, exc = _split(ps, mask)
    for i in range(ps.dim):
        top = max(p[i] for p in inc) if inc else None
        bottom = min(q[i] for q in exc) if exc else None
        if top is None or bottom is None or top < bottom:
            return i, top, bottom
    return None


def _cut_build(ps: PointSet, found) -> AxisCut:
    i, top, bottom = found
    if top is None:
        return AxisCut(i, _own(ps, i, bottom) - 1)
    if bottom is None:
        return AxisCut(i, _own(ps, i, top))
    return AxisCut(i, _unscale(midpoint(top, bottom), ps.scaled[0]))


def carve_axis_cut(ps: PointSet, mask: SubsetMask) -> Optional[AxisCut]:
    """Feasible iff some axis strictly separates S' below from the rest."""
    found = _cut_search(ps, mask)
    return None if found is None else _cut_build(ps, found)


# ---------------------------------------------------------------------------
# dispatch


def _decide(ps: PointSet, mask: SubsetMask, descriptor: ClassDescriptor):
    """The integer verdict: None when infeasible, else what the build step needs."""
    if ps.dim != descriptor.dim:
        raise DimensionMismatchError(
            f"set dimension {ps.dim} != class dimension {descriptor.dim}"
        )
    n = len(ps)
    if not isinstance(mask, int) or not 0 <= mask < (1 << n):
        raise DomainError(f"mask {mask!r} out of range for {n} points")

    kind = descriptor.kind
    if kind in (ClassKind.BOXES, ClassKind.BOXES_NONDEGENERATE):
        return _box_search(ps, mask)
    if kind is ClassKind.CUBES:
        return _cube_search(ps, mask)
    if kind in (ClassKind.DEGENERATE_BALLS, ClassKind.ANCHORED_DEGENERATE_BALLS):
        return _degenerate_search(ps, mask, descriptor.anchor)
    if kind is ClassKind.AXIS_CUTS:
        return _cut_search(ps, mask)
    raise DomainError(f"unknown class kind {kind!r}")


def _build(ps: PointSet, found, descriptor: ClassDescriptor):
    """The concept of a feasible verdict, in the coordinates of ps."""
    kind = descriptor.kind
    if kind in (ClassKind.BOXES, ClassKind.BOXES_NONDEGENERATE):
        return _box_build(ps, found, kind is ClassKind.BOXES_NONDEGENERATE)
    if kind is ClassKind.CUBES:
        return _cube_build(ps, found)
    if kind is ClassKind.AXIS_CUTS:
        return _cut_build(ps, found)
    return _degenerate_build(ps, found, descriptor.anchor)


def carve(
    ps: PointSet, mask: SubsetMask, descriptor: ClassDescriptor
) -> Optional[CarveWitness]:
    """Decide one mask; return a validated witness or None (infeasible)."""
    found = _decide(ps, mask, descriptor)
    if found is None:
        return None
    return _checked(_build(ps, found, descriptor), ps, mask, descriptor)


def carve_feasible(ps: PointSet, mask: SubsetMask, descriptor: ClassDescriptor) -> bool:
    """Feasibility only: the integer verdict, no concept built or re-checked."""
    return _decide(ps, mask, descriptor) is not None
