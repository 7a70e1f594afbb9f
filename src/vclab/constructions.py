"""Witness constructions and structural maps between the concept classes.

Contents:

* recursive witness sets of maximum shatterable size for origin-anchored
  degenerate balls and for cubes (the cube witness lifts the anchored one
  by a pair of poles on a fresh axis);
* the anchor-collapse map sending an anchored-degenerate-ball problem at a
  bounded box F to one anchored at the origin, with exact transport of
  concepts in both directions;
* a perturbation routine making all coordinate projections injective while
  preserving shattering (verify-and-shrink with exact re-checking);
* extremal certificates: a point attaining each axis minimum and maximum,
  the count k of points chosen for exactly one of them, and the tie-robust
  list of points that are extremal on no axis (such a point can never be
  carved against, which refutes shattering outright);
* the downward projection: drop the widest axis of a cube-shattered set,
  remove the two poles on it, and re-anchor the rest at the poles' hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .carve import ClassDescriptor, ClassKind, anchored, cubes
from .errors import DomainError
from .geometry import Box, Interval, Point, PointSet, project, rect_hull
from .scalars import NEG_INF, POS_INF, Scalar, as_scalar, check_int
from .shatter import ShatterVerdict, is_shattered

DELTA_FLOOR = Fraction(1, 2**64)


# ---------------------------------------------------------------------------
# Witness constructions
# ---------------------------------------------------------------------------

_BASE_2D = ((-1, 1), (1, -1), (2, 1))


def origin_ball_witness(d: int) -> PointSet:
    """A set of floor(3d/2) points shattered by origin-anchored degenerate balls.

    d=1 is the single point (1); d=2 is a fixed 3-point set; even d is the
    product step stacking the (d-2)-witness against the 2-d base on disjoint
    axes; odd d appends the point (0, ..., 0, 1) to the (d-1)-witness.
    """
    check_int("dimension", d, 1)
    if d == 1:
        return PointSet.of([(1,)])
    if d == 2:
        return PointSet.of(_BASE_2D)
    if d % 2 == 0:
        s = origin_ball_witness(d - 2)
        pts = [p + (0, 0) for p in s.points]
        pts += [(0,) * (d - 2) + x for x in _BASE_2D]
        return PointSet.of(pts)
    s = origin_ball_witness(d - 1)
    pts = [p + (0,) for p in s.points]
    pts.append((0,) * (d - 1) + (1,))
    return PointSet.of(pts)


def cube_witness(d: int) -> PointSet:
    """A set of floor((3d+1)/2) points shattered by cubes.

    d=1 is {0, 1}; for d >= 2 the (d-1)-dimensional anchored witness A is
    embedded at height 0 and two poles (0,...,0,+-L) are added, with
    L = max(2 * max_a ||a||_inf, 1) so that A sits inside the ball of radius
    L/2 around the origin.
    """
    check_int("dimension", d, 1)
    if d == 1:
        return PointSet.of([(0,), (1,)])
    base = origin_ball_witness(d - 1)
    norm = max(max(abs(c) for c in p) for p in base.points)
    level = max(2 * norm, 1)
    pts = [p + (0,) for p in base.points]
    pts.append((0,) * (d - 1) + (level,))
    pts.append((0,) * (d - 1) + (-level,))
    return PointSet.of(pts)


# ---------------------------------------------------------------------------
# Anchor collapse / expansion
# ---------------------------------------------------------------------------


def _require_bounded_anchor(anchor: Box) -> None:
    if not anchor.is_bounded:
        raise DomainError("anchor box must be bounded")


def _collapse1(a: Scalar, b: Scalar, x: Scalar) -> Scalar:
    if x < a:
        return as_scalar(x - a)
    if x > b:
        return as_scalar(x - b)
    return 0


def collapse_anchor(anchor: Box, x: Point) -> Point:
    """Coordinatewise distance-to-interval map: values inside the anchor's
    interval go to 0, values outside keep their signed overshoot."""
    _require_bounded_anchor(anchor)
    if len(x) != anchor.dim:
        raise DomainError("point/anchor dimension mismatch")
    return tuple(
        _collapse1(iv.lo, iv.hi, c) for iv, c in zip(anchor.intervals, x)
    )


def collapse_anchor_points(anchor: Box, ps: PointSet) -> PointSet:
    """Collapse every point; raises if the images collide (not injective)."""
    return PointSet.of([collapse_anchor(anchor, p) for p in ps.points])


def collapse_anchor_box(anchor: Box, ball: Box) -> Box:
    """Image of a degenerate ball containing the anchor, under the collapse.

    Finite endpoints map through the same coordinatewise formula; infinite
    endpoints stay.  The image is a degenerate ball containing the origin.
    """
    _require_bounded_anchor(anchor)
    if ball.dim != anchor.dim:
        raise DomainError("ball/anchor dimension mismatch")
    if not ball.is_degenerate_ball:
        raise DomainError("expected a degenerate ball (each side open somewhere)")
    if not ball.contains_box(anchor):
        raise DomainError("ball must contain the anchor box")
    out = []
    for iv, aiv in zip(ball.intervals, anchor.intervals):
        lo = iv.lo if iv.lo is NEG_INF else _collapse1(aiv.lo, aiv.hi, iv.lo)
        hi = iv.hi if iv.hi is POS_INF else _collapse1(aiv.lo, aiv.hi, iv.hi)
        out.append(Interval(lo, hi))
    image = Box(tuple(out))
    assert image.is_degenerate_ball and image.contains((0,) * anchor.dim)
    return image


def expand_anchor_box(anchor: Box, ball: Box) -> Box:
    """Preimage of a degenerate ball containing the origin, under the collapse.

    A finite high endpoint e >= 0 pulls back to anchor.hi + e, a finite low
    endpoint e <= 0 to anchor.lo + e.  The preimage contains the anchor.
    """
    _require_bounded_anchor(anchor)
    if ball.dim != anchor.dim:
        raise DomainError("ball/anchor dimension mismatch")
    if not ball.is_degenerate_ball:
        raise DomainError("expected a degenerate ball (each side open somewhere)")
    if not ball.contains((0,) * anchor.dim):
        raise DomainError("ball must contain the origin")
    out = []
    for iv, aiv in zip(ball.intervals, anchor.intervals):
        lo = iv.lo if iv.lo is NEG_INF else as_scalar(aiv.lo + iv.lo)
        hi = iv.hi if iv.hi is POS_INF else as_scalar(aiv.hi + iv.hi)
        out.append(Interval(lo, hi))
    preimage = Box(tuple(out))
    assert preimage.is_degenerate_ball and preimage.contains_box(anchor)
    return preimage


# ---------------------------------------------------------------------------
# Perturbation to injective projections
# ---------------------------------------------------------------------------

def perturb_to_injective(ps: PointSet, descriptor: ClassDescriptor) -> PointSet:
    """Perturb a shattered set so every coordinate projection is injective.

    Verify-and-shrink: points are revisited one at a time; a candidate
    replacement at distance at most delta with fresh coordinates is accepted
    only if the whole set still shatters, otherwise delta is halved.  Every
    concept here tolerates a small enough outward fattening without catching
    excluded points, so some positive delta always works; hitting the floor
    2**-64 therefore signals a bug (or an astronomically tiny input scale)
    and raises rather than returning silently.  The input must shatter
    (``DomainError`` naming the first failing mask otherwise), and every
    check decides all 2^n masks, so more than ``DEFAULT_MASK_CAP`` points
    raise ``CapExceededError`` before any perturbation.
    """
    if descriptor.kind is ClassKind.AXIS_CUTS:
        raise DomainError(f"perturbation not supported for {descriptor.kind.value}")
    verdict = is_shattered(ps, descriptor, want_certificate=False)
    if not verdict.shattered:
        raise DomainError(
            f"input not shattered; first failing mask {verdict.failing_mask}"
        )
    n = len(ps)
    d = ps.dim
    pts = [tuple(p) for p in ps.points]
    delta = Fraction(1)

    def fresh_proposal(t: int, dl: Fraction) -> Point:
        new = list(pts[t])
        for j in range(d):
            others = {pts[i][j] for i in range(n) if i != t}
            if new[j] not in others:
                continue
            # n + 1 distinct candidates against at most n - 1 others: one is free
            for m in range(1, n + 2):
                cand = as_scalar(new[j] + dl / m)
                if cand not in others:
                    new[j] = cand
                    break
        return tuple(new)

    for t in range(n):
        collides = any(
            pts[t][j] in {pts[i][j] for i in range(n) if i != t} for j in range(d)
        )
        if not collides:
            continue
        while True:
            candidate = fresh_proposal(t, delta)
            trial = PointSet(d, tuple(candidate if i == t else p for i, p in enumerate(pts)))
            v = is_shattered(trial, descriptor, want_certificate=False)
            if v.shattered:
                pts[t] = candidate
                break
            delta /= 2
            if delta < DELTA_FLOOR:
                raise DomainError(
                    "perturbation step underflowed 2**-64 without success"
                )
    return PointSet(d, tuple(pts))


# ---------------------------------------------------------------------------
# Extremal certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalCertificate:
    """A point attaining each axis minimum and maximum, and the derived
    counting facts.

    ``low_reps`` and ``high_reps`` hold, per axis, the least point index
    attaining the axis minimum / maximum.  ``once_count`` counts the indices
    appearing exactly once among all 2d of them under that fixed tie-break;
    the counting bound it feeds (k <= d and #S <= d + k/2 for a set
    shattered by origin/box-anchored degenerate balls) is only sound for
    injective projections.  ``nonextremal`` lists the points attaining no
    axis minimum or maximum at all, which is tie-robust: such a point lies
    in the hull of the others, so no box-like (hull-monotone) concept carves
    "everyone else".
    """

    points: PointSet
    low_reps: Tuple[int, ...]
    high_reps: Tuple[int, ...]
    once_count: int
    nonextremal: Tuple[int, ...]


def extremal_certificate(ps: PointSet) -> ExtremalCertificate:
    n = len(ps)
    d = ps.dim
    low_reps = []
    high_reps = []
    attains = [False] * n  # attains some axis min or max (any choice)
    for j in range(d):
        col = [p[j] for p in ps.points]
        lo = min(col)
        hi = max(col)
        low_reps.append(col.index(lo))
        high_reps.append(col.index(hi))
        for i, c in enumerate(col):
            if c == lo or c == hi:
                attains[i] = True
    reps = low_reps + high_reps
    once = sum(1 for i in set(reps) if reps.count(i) == 1)
    nonextremal = tuple(i for i in range(n) if not attains[i])
    return ExtremalCertificate(
        ps,
        tuple(low_reps),
        tuple(high_reps),
        once,
        nonextremal,
    )


# ---------------------------------------------------------------------------
# Downward projection for cube-shattered sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DownwardProjection:
    axis: int
    pole_low: Point
    pole_high: Point
    projected: PointSet
    anchor: Box
    descriptor: ClassDescriptor
    verdict: ShatterVerdict


def cube_downward_projection(ps: PointSet) -> DownwardProjection:
    """Drop the widest axis of a cube-shattered set.

    Chooses the axis of maximum hull width (least index on ties), removes the
    two points attaining its min and max, projects the rest onto the other
    axes, and checks shattering by degenerate balls anchored at the hull of
    the two projected poles.  The input is checked first: it must have
    injective projections and be shattered by cubes (``DomainError`` naming
    the first failing mask otherwise), and more than ``DEFAULT_MASK_CAP``
    points raise ``CapExceededError``.  For such inputs the verdict is always
    positive.
    """
    n = len(ps)
    d = ps.dim
    if d < 2:
        raise DomainError("projection needs dimension at least 2")
    if n < 3:
        raise DomainError("projection needs at least 3 points")
    for j in range(d):
        if len({p[j] for p in ps.points}) != n:
            raise DomainError(
                "projections must be injective on every axis (perturb first)"
            )
    v = is_shattered(ps, cubes(d), want_certificate=False)
    if not v.shattered:
        raise DomainError(
            f"input not cube-shattered; first failing mask {v.failing_mask}"
        )
    hull = rect_hull(ps.points)
    widths = [iv.hi - iv.lo for iv in hull.intervals]
    axis = max(range(d), key=lambda j: (widths[j], -j))
    col = [p[axis] for p in ps.points]
    i_lo = col.index(min(col))
    i_hi = col.index(max(col))
    keep_axes = tuple(j for j in range(d) if j != axis)
    rest = tuple(i for i in range(n) if i not in (i_lo, i_hi))
    projected = project(ps.restrict(rest), keep_axes)
    pole_lo_img = tuple(ps.points[i_lo][j] for j in keep_axes)
    pole_hi_img = tuple(ps.points[i_hi][j] for j in keep_axes)
    anchor = rect_hull([pole_lo_img, pole_hi_img])
    descriptor = anchored(anchor)
    verdict = is_shattered(projected, descriptor)
    return DownwardProjection(
        axis=axis,
        pole_low=ps.points[i_lo],
        pole_high=ps.points[i_hi],
        projected=projected,
        anchor=anchor,
        descriptor=descriptor,
        verdict=verdict,
    )
