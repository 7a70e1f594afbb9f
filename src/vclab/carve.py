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

Every carve is decided first and built second, by one kernel per point set
and class: ``_kernel`` dispatches once on the class kind and returns
``(decide, build)``.  ``decide`` answers a mask in a few word operations
per axis; ``carve_feasible`` stops there.  ``build`` makes the witness of a
mask ``decide`` accepted, from the kernel's own state, and ends in
``_checked``, which re-validates it.  ``carve`` builds one kernel per call,
and ``is_shattered``, ``shattering_count`` and ``vc_lower_bound_on`` one per
scan.

Every decision reads one per-axis table, ``PointSet.axes``, built on the
integer image of S (``PointSet.scaled``: the coordinates times their least
common denominator L; a positive uniform scale keeps every comparison,
width and gap).  Per axis it holds the distinct image values in order,
their prefix bitmasks, and ``own``, the point's own coordinate for each
value, which witnesses share.

The order-driven classes are decided from the prefix bitmasks by one side
rule (``_sides``): per axis, the points strictly below hull(S') are the
largest prefix mask disjoint from S', and those strictly above it are the
complement of the least prefix mask containing S' (for an anchor, each also
strictly beyond the anchor's side).  A box carves S' when these sides
together exclude every other point; a degenerate ball when one side per
axis does; an axis cut when S' is itself a prefix mask.  The same prefix
masks list, per axis, every trace a concept's factor on that axis can
leave (``_factor_traces``); a product class carves exactly the ANDs of one
such trace per axis, which is how the order-type scans in ``search``
decide a whole config at once.

Cubes are decided by one window test (``_window``) on per-axis
``(values, prefix)`` tables, handed the hull of S' on each axis.
Containing S' forces 2r >= w, the widest side of hull(S'), and shrinking a
carving cube to r = w/2 keeps S' inside and excludes at least as much, so
the radius is fixed.  Each axis then slides a closed window of length w;
the points inside form a run of that axis's sorted values (``_runs``), and
S' is carved iff one run per axis intersects to exactly S'.  The kernel
runs it on ``PointSet.axes``; ``cube_scorer`` runs it on ``prefix_table``
of each of a set of integer columns and counts the carved subsets only up
to the miss that puts the count below a floor, which is all a hill-climb
step needs to know.  Every cube is a box, so the scorer sifts the masks
through boxes first (``_box_sieve``), once per order type: a mask no box
carves is a miss without a window test, and each mask a box carves keeps
its hulls for the window test, in a list to whose front a window miss
moves, so the order type tries it first next time.  Every hull of S' is
found one way, ``_hull_indices``: by the kernels, the box sieve and the box
and cube builders.

Degenerate-ball and cube witnesses come from one cover search (``_cover``)
over each excluded point's options: the sides, (axis, low) or (axis, high),
of hull(S') (plus anchor) that would exclude it.  Per axis only the
tightest committed threshold of each side matters.  A degenerate ball
commits a side at the hull edge, which excludes every point beyond it, so
its options are read off the kernel's own ``_sides`` masks; a cube commits
it at the point being excluded, on the integer image.  A degenerate ball
never closes both sides of an axis; a cube may, when their gap exceeds w.
The search runs only on accepted masks, so finding nothing is an internal
error.  A degenerate ball's committed side ends at ``own`` of the first
value past its side mask, or at the anchor's bound when that mask is the
anchor's own.  A cube's radius and centre are solved in integers, in
sixteenths of the image, and each is divided by 16L once.  Box witnesses
take the hull's ends from ``own``, and cut witnesses a prefix index.  The
degenerate-ball and box kernels each keep a dict of the ``Interval`` sides
they have made, keyed by what decides a side (its side mask, or the
hull's two indices), so each side is made, and validated, once per
kernel, and witnesses share it.  The re-check of a built concept
(``_trace_mask``) runs on the integer image, exactly: each finite bound b
becomes floor(b * L) when it bounds from above and ceil(b * L) when it
bounds from below, which keeps every comparison with an integer, and each
axis is then one difference of prefix bitmasks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import and_
from typing import Callable, List, Optional, Sequence, Set, Tuple

from .errors import DomainError
from .geometry import Box, Cube, Interval, PointSet, prefix_table
from .scalars import NEG_INF, POS_INF, Scalar, as_scalar, check_int, midpoint

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
        check_int("class dimension", self.dim, 1)
        if self.kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
            if self.anchor is None:
                raise DomainError("anchored class requires an anchor box")
            if self.anchor.dim != self.dim:
                raise DomainError("anchor dimension mismatch")
            if not self.anchor.is_bounded:
                raise DomainError("anchor box must be bounded")
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
        check_int("cut axis", self.axis, 0)
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
    """The mask of the points of ps that concept contains, exactly, on the
    integer image of ps (``ps.axes``: the coordinates times L).

    For a box, cube or cut each finite bound b becomes one int, once: an
    upper bound floor(b * L) and a lower bound ceil(b * L), since an integer
    x has x <= b * L iff x <= floor(b * L), and x >= b * L iff
    x >= ceil(b * L).  They are computed from numerators and denominators
    (a cube's c - r and c + r too), so no Fraction is built or compared.
    Per axis, the points between the two bounds are then one difference of
    prefix masks.  Any other concept, or one of another dimension, is tested
    point by point (which raises on a dimension mismatch).
    """
    den = ps.scaled[0]
    if isinstance(concept, AxisCut) and concept.axis < ps.dim:
        values, prefix, _ = ps.axes[concept.axis]
        t = concept.threshold
        return prefix[bisect_right(values, t.numerator * den // t.denominator)]
    m = (1 << len(ps)) - 1
    if isinstance(concept, Box) and concept.dim == ps.dim:
        for (values, prefix, _), iv in zip(ps.axes, concept.intervals):
            lo, hi = iv.lo, iv.hi
            if hi is not POS_INF:
                m &= prefix[bisect_right(values, hi.numerator * den // hi.denominator)]
            if lo is not NEG_INF:
                m &= ~prefix[bisect_left(values, -(-lo.numerator * den // lo.denominator))]
        return m
    if isinstance(concept, Cube) and concept.dim == ps.dim:
        rn, rd = concept.radius.numerator, concept.radius.denominator
        for (values, prefix, _), c in zip(ps.axes, concept.center):
            # c - r = (a - b) / q and c + r = (a + b) / q
            a, b, q = c.numerator * rd, rn * c.denominator, c.denominator * rd
            m &= prefix[bisect_right(values, (a + b) * den // q)]
            m &= ~prefix[bisect_left(values, -((b - a) * den // q))]
        return m
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


# ---------------------------------------------------------------------------
# the feasibility kernel


def _hull_indices(prefix: Tuple[int, ...], mask: SubsetMask) -> Tuple[int, int]:
    """``(a, b)`` for a nonempty mask on one axis (``prefix`` from
    ``PointSet.axes``): a is the largest index with ``prefix[a] & mask == 0``,
    b the least with ``prefix[b]`` a superset of mask.  ``own[a]`` and
    ``own[b - 1]`` are the ends of the hull of S'; ``prefix[a]`` holds the
    points strictly below it, and ``prefix[b]`` every point up to its top."""
    a = 0
    while not prefix[a + 1] & mask:
        a += 1
    b = a + 1
    while prefix[b] & mask != mask:
        b += 1
    return a, b


def _sides(ps: PointSet, anchor: Optional[Box]) -> Callable[[SubsetMask], List[Tuple[int, int]]]:
    """``sides(mask)``: per axis, the points strictly below and strictly
    above hull(S') (every point, for an empty S'), as two masks.  For an
    anchor each is ANDed with the points strictly below and above the
    anchor's side, read once here off the same prefix masks with the
    anchor's bounds on the integer image, as ``_trace_mask`` reads a box's;
    ``sides(0)`` is then these anchor sides alone."""
    full = (1 << len(ps)) - 1
    if anchor is None:
        fences = [(full, full)] * ps.dim
    else:
        den = ps.scaled[0]
        fences = [
            (prefix[bisect_left(values, -(-iv.lo.numerator * den // iv.lo.denominator))],
             full ^ prefix[bisect_right(values, iv.hi.numerator * den // iv.hi.denominator)])
            for (values, prefix, _), iv in zip(ps.axes, anchor.intervals)
        ]
    axes = [(prefix, low, high) for (_, prefix, _), (low, high) in zip(ps.axes, fences)]

    def sides(mask):
        if not mask:
            return fences
        out = []
        for prefix, low, high in axes:
            a, b = _hull_indices(prefix, mask)
            out.append((prefix[a] & low, (full ^ prefix[b]) & high))
        return out

    return sides


def _factor_traces(kind: ClassKind, prefix: Sequence[int], slot: int) -> Set[SubsetMask]:
    """The traces a concept's factor on one axis can leave, from that axis's
    prefix masks (``prefix[k]``: the points of the k smallest values, as in
    ``PointSet.axes``).  The concepts are products, so a concept's trace is
    the AND of one such trace per axis; an axis cut has one factor, so the
    cuts' traces are the union of the axes' lists.

    Boxes, nondegenerate boxes and cubes on a line (intervals): every run
    ``prefix[r] ^ prefix[l]``.  Degenerate balls (half-lines and the line):
    every prefix and every complement of a prefix.  Origin-anchored balls
    (half-lines through the origin, with ``prefix[slot]`` the points below
    it and none at it): the prefixes from ``prefix[slot]`` up and the
    complements of those up to it.  Axis cuts: the prefixes.  Only the
    anchored rule reads ``slot``.
    """
    full = prefix[-1]
    if kind is ClassKind.AXIS_CUTS:
        return set(prefix)
    if kind is ClassKind.DEGENERATE_BALLS:
        return {*prefix, *(full ^ p for p in prefix)}
    if kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
        return {*prefix[slot:], *(full ^ p for p in prefix[:slot + 1])}
    return {p ^ q for l, p in enumerate(prefix) for q in prefix[l:]}


def _union(pairs: List[Tuple[int, int]], mask: SubsetMask) -> int:
    for below, above in pairs:
        mask |= below | above
    return mask


def _window(
    tables: Sequence[Tuple[Sequence[int], ...]],
    mask: SubsetMask,
    full: int,
    hulls: Sequence[Tuple[int, int]],
) -> bool:
    """The cube window test of a nonempty mask on per-axis ``(values,
    prefix)`` tables (as ``prefix_table`` makes them), given its hull on
    each axis (``_hull_indices``): the widest side w of the hull, and one
    run per axis (``_runs``) whose intersection is exactly S'."""
    w = max(v[b - 1] - v[a] for (v, _), (a, b) in zip(tables, hulls))
    reach = {full}
    for (v, prefix), (a, b) in zip(tables, hulls):
        runs = _runs(v, prefix, a, b - 1, w)
        reach = {m & o for m in reach for o in runs}
    return mask in reach


def _runs(values: Sequence[int], prefix: Sequence[int], s: int, t: int, w: int) -> List[int]:
    """The cube window rule on one axis: the points a closed window of
    length w can hold together with values s..t (indices into the distinct
    ``values``; ``prefix`` as in ``prefix_table``), as bitmasks.

    The window holds a run l..r of values iff
    ``values[r] - values[l] <= w < values[r + 1] - values[l - 1]``
    (missing neighbours are -inf/+inf).  For a fixed left end the shortest
    such run reaching t dominates the longer ones, so only it is kept.
    """
    out = []
    last = len(values) - 1
    for l in range(s, -1, -1):
        if values[t] - values[l] > w:
            break
        # extend while the window cannot clear values[l - 1] and
        # values[r + 1] at once; values[l - 1] < values[l] keeps
        # values[r] - values[l] <= w
        r = t
        if l:
            while r < last and values[r + 1] - values[l - 1] <= w:
                r += 1
        out.append(prefix[r + 1] ^ prefix[l])
    return out


# masks the cube scorer's memo holds before it is cleared: an order type
# counts its box-carved masks and an axis table its 2^n masks, so every
# injective order type of 4 points in the plane (4!^2 = 576 of them, at
# most 10 box-carved masks each, over 4! axis tables) fits.  The cube search
# keeps one scorer per thread across calls for every (dim, n) whose dim axis
# tables fit this bound, so it holds that thread's memo over all of them; the
# memo exceeds it by at most the tables of the last order type sieved.  A
# search whose tables exceed it scores with a scorer of its own, dropped at
# return
BOX_MEMO_MASKS = 1 << 13


def _axis_hulls(prefix: Tuple[int, ...]) -> Tuple[List[Tuple[int, int]], List[int]]:
    """One axis's hull ``(a, b)`` of every mask (``_hull_indices``) and its
    run ``prefix[b] ^ prefix[a]``, the points of that axis's slab of the
    hull, both indexed by mask (the empty mask gets ``(0, 0)`` and 0)."""
    hulls = [(0, 0)] + [_hull_indices(prefix, mask) for mask in range(1, prefix[-1] + 1)]
    return hulls, [prefix[b] ^ prefix[a] for a, b in hulls]


def _box_sieve(
    axes: Sequence[Tuple[List[Tuple[int, int]], List[int]]], full: int
) -> Tuple[List[SubsetMask], List[Tuple[SubsetMask, Tuple[Tuple[int, int], ...]]]]:
    """The masks the cube scorer tests (neither empty nor full nor a
    singleton), split by boxes, from ``_axis_hulls`` of each axis: the
    masks no box carves, in increasing order, and each mask a box carves,
    in increasing order, as ``(mask, its hull per axis)``.  A box carves S'
    iff the AND over axes of the runs of its hull is S' itself.  Every cube
    is a box, so a mask no box carves is no cube's trace."""
    box = axes[0][1]
    for _, runs in axes[1:]:
        box = list(map(and_, box, runs))
    hulls = list(zip(*[axis for axis, _ in axes]))
    missed: List[SubsetMask] = []
    carved: List[Tuple[SubsetMask, Tuple[Tuple[int, int], ...]]] = []
    for mask in range(3, full):
        if mask & (mask - 1):
            if box[mask] == mask:
                carved.append((mask, hulls[mask]))
            else:
                missed.append(mask)
    return missed, carved


def cube_scorer() -> Callable[[Sequence[Sequence[int]], int], int]:
    """A bounded count of the subsets cubes carve: ``score(columns, floor)``
    is the exact number when that is at least floor, and floor - 1
    otherwise; a floor above 2^n counts as 2^n, and floor 0 decides every
    mask.  ``columns[axis][point]`` are integer coordinates of distinct
    points; projections may tie.

    A score of 2^n - k has k missed masks, so a pass stops at its
    (2^n - floor + 1)-th miss.  The empty set, the full set and every
    singleton count without a test (a faraway cube, the bounding cube, a
    small cube around the point).  The other masks are split by boxes first
    (``_box_sieve``), once per order type: the scorer keys a memo on the
    per-axis prefix masks of ``prefix_table`` of each column, which are
    the whole order type, ties included, and builds each axis's hull table
    (``_axis_hulls``) once per prefix masks, which many order types share.
    Every cube is a box, so each mask no box carves is a miss without a
    test, and a pass whose box misses already exceed what its floor allows
    stops before any window test.  Each mask a box carves is decided by the
    cube kernel's window test (``_window``), handed the hull the memo holds
    for it.  An order type holds its box-carved masks and an axis table its
    2^n; once the memo holds ``BOX_MEMO_MASKS`` masks it is cleared before
    the next order type is sieved, so its size does not grow with the
    number of calls, whatever the number of points or dimensions of the
    columns.  The memo lives as long as the scorer: ``random_cube_search``
    keeps one scorer per thread across calls whose axis tables fit the
    bound, so the memo is per thread and shared by every such search that
    thread runs.

    An order type keeps its box-carved masks in a list, and a window miss
    moves its mask to the front, so the order type tries it first next
    time, whatever order types were scored in between.  A single-coordinate
    move of a hill climb seldom changes which mask fails, so the miss that
    settles a rejected move is usually the first mask tried.  The order
    changes only how soon a pass stops, never what it returns.
    """
    boxed = {}  # per-axis prefix masks -> (box misses, [(box-carved mask, hulls)])
    axis_memo = {}  # one axis's prefix masks -> _axis_hulls(prefix)
    stored = 0  # masks held in boxed and axis_memo

    def score(columns: Sequence[Sequence[int]], floor: int) -> int:
        nonlocal stored
        full = (1 << len(columns[0])) - 1
        axes = [prefix_table(col) for col in columns]
        order = tuple([prefix for _, prefix in axes])
        entry = boxed.get(order)
        if entry is None:
            if stored >= BOX_MEMO_MASKS:
                boxed.clear()
                axis_memo.clear()
                stored = 0
            for prefix in order:
                if prefix not in axis_memo:
                    axis_memo[prefix] = _axis_hulls(prefix)
                    stored += full + 1
            missed, carved = _box_sieve([axis_memo[prefix] for prefix in order], full)
            entry = boxed[order] = len(missed), carved
            stored += len(carved)
        misses, carved = entry
        # misses an exact score >= floor can have; a floor above 2^n counts as 2^n
        slack = max(full + 1 - floor, 0)
        if misses > slack:
            return full - slack
        # moving the k-th mask to the front keeps the masks after it where
        # the iteration expects them
        for k, (mask, hulls) in enumerate(carved):
            if not _window(axes, mask, full, hulls):
                carved.insert(0, carved.pop(k))
                misses += 1
                if misses > slack:
                    return full - slack
        return full + 1 - misses

    return score


# ---------------------------------------------------------------------------
# boxes


def _far_low_box(ps: PointSet) -> Box:
    mins = [min(p[i] for p in ps.points) for i in range(ps.dim)]
    return Box.from_bounds([m - 2 for m in mins], [m - 1 for m in mins])


def _box_build(ps: PointSet, mask: SubsetMask, nondegenerate: bool, made: dict) -> Box:
    """The hull of S' as a box, each side made once per kernel: ``made``
    maps ``(axis, a, b)`` (``_hull_indices``) to ``[own[a], own[b - 1]]``.
    A nondegenerate box inflates a hull with a single-point side, and makes
    its own sides."""
    if not mask:
        return _far_low_box(ps)
    box = []
    for i, (_, prefix, own) in enumerate(ps.axes):
        a, b = _hull_indices(prefix, mask)
        iv = made.get((i, a, b))
        if iv is None:
            iv = made[i, a, b] = Interval(own[a], own[b - 1])
        box.append(iv)
    if nondegenerate and any(iv.lo == iv.hi for iv in box):
        lows = [iv.lo for iv in box]
        highs = [iv.hi for iv in box]
        # inflate by half the least exclusion slack
        exc = [p for i, p in enumerate(ps.points) if not mask >> i & 1]
        if exc:
            slack = min(
                max(max(l - x, x - h) for l, x, h in zip(lows, q, highs)) for q in exc
            )
            eps = as_scalar(Fraction(slack, 2))
        else:
            eps = 1
        return Box.from_bounds([v - eps for v in lows], [v + eps for v in highs])
    return Box(tuple(box))


# ---------------------------------------------------------------------------
# the cover search shared by degenerate balls and cubes

_LOW, _HIGH = 0, 1


def _cover(options, dim: int, max_width: Scalar):
    """Commit (axis, side) thresholds that exclude every point outside S'.

    ``options[j]`` lists the sides ``(axis, side, threshold)`` that can
    exclude the j-th such point, axis by axis (at most one per axis, as the
    point lies on one side of a hull).  An axis closes both sides only when
    their thresholds' gap exceeds ``max_width``.  Cubes commit a side at the
    excluded point, with the widest hull side as ``max_width`` (a singleton
    hull has width 0).  Degenerate balls commit a side at the hull edge, so
    it excludes every point that has it: each option carries threshold 0
    and ``max_width`` is 0, so the gap is never positive and an axis never
    closes both sides.  Depth-first search branching on the point with the
    fewest viable options, in list order.  Returns the tightest committed
    thresholds ``(hi_min, lo_max)`` per axis, or None.
    """
    order = sorted(range(len(options)), key=lambda j: (len(options[j]), j))
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
                    if t is None or v - t > max_width:
                        viable.append(opt)
                else:
                    t = hi_min[i]
                    if t is None or t - v > max_width:
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


def _degenerate_build(
    ps: PointSet, mask: SubsetMask, anchor: Optional[Box], sides, fences, made: dict
) -> Box:
    """The witness of a mask the kernel accepts: the cover search over the
    options that the kernel's ``sides`` (from ``_sides``) give each
    excluded point, each committed side at the edge of hull(S') plus anchor
    (a point's own coordinate, or the anchor's bound).

    The kernel reads ``fences = sides(0)`` once and keeps ``made``, which
    maps ``(axis, side, side mask)`` to the side it commits, so each side
    is made once per kernel; ``made[None]`` is the kernel's full line."""
    dim = ps.dim
    line = made[None]
    if not mask and anchor is None:
        top = ps.axes[0][2][-1]  # the largest coordinate on axis 0
        return Box((Interval(top + 1, POS_INF),) + (line,) * (dim - 1))
    pairs = sides(mask)
    options = [
        [(i, _LOW if below >> j & 1 else _HIGH, 0)
         for i, (below, above) in enumerate(pairs) if (below | above) >> j & 1]
        for j in range(len(ps)) if not mask >> j & 1
    ]
    found = _cover(options, dim, max_width=0)
    if found is None:
        raise RuntimeError(f"cover search found no witness for accepted mask {mask:#x}")
    hi_min, lo_max = found
    full = (1 << len(ps)) - 1
    box = []
    for i, ((_, prefix, own), (below, above), (low, high)) in enumerate(
        zip(ps.axes, pairs, fences)
    ):
        # a committed side ends at the first value past its mask, or at the
        # anchor's bound when the mask is the anchor's own (S' reaches no further)
        if lo_max[i] is not None:
            iv = made.get((i, _LOW, below))
            if iv is None:
                lo = own[prefix.index(below)] if below != low else anchor.intervals[i].lo
                iv = made[i, _LOW, below] = Interval(lo, POS_INF)
        elif hi_min[i] is not None:
            iv = made.get((i, _HIGH, above))
            if iv is None:
                hi = own[prefix.index(full ^ above) - 1] if above != high else anchor.intervals[i].hi
                iv = made[i, _HIGH, above] = Interval(NEG_INF, hi)
        else:
            iv = line
        box.append(iv)
    return Box(tuple(box))


# ---------------------------------------------------------------------------
# cubes


def _cube_build(ps: PointSet, mask: SubsetMask) -> Cube:
    """The witness of a mask the kernel accepts: the cover search at the
    excluded points of the image of S', then a radius and centre between
    the bounds that search committed, solved in integers.

    Containment of S' forces 2r >= every hull width; excluding a point via
    (axis, high) forces center + r below that point's coordinate, and dually.
    An axis carrying both thresholds forces 2r strictly below their gap, so
    the radius sits midway between W/2, half the widest hull side W, and
    g/2, half the least such gap g: 8r = 2(W + g), or 8r = 4W when no axis
    closes both sides.  Each center coordinate sits midway between its two
    bounds, so 16c is their sum in eighths.  Every quantity is an integer
    on the image, and each coordinate is divided by 16L once.
    """
    dim = ps.dim
    if not mask:
        mins0 = min(p[0] for p in ps.points)
        center = [as_scalar(mins0 - 2)] + [0] * (dim - 1)
        return Cube(tuple(center), Fraction(1, 2))
    lo, hi = [], []
    for values, prefix, _ in ps.axes:
        a, b = _hull_indices(prefix, mask)
        lo.append(values[a])
        hi.append(values[b - 1])
    exc = [p for i, p in enumerate(ps.scaled[1]) if not mask >> i & 1]
    max_width = max(h - l for h, l in zip(hi, lo))
    options = [
        [(i, _LOW if x < l else _HIGH, x) for i, (x, l, h) in enumerate(zip(q, lo, hi))
         if not l <= x <= h]
        for q in exc
    ]
    found = _cover(options, dim, max_width)
    if found is None:
        raise RuntimeError(f"cover search found no witness for accepted mask {mask:#x}")
    hi_min, lo_max = found

    gaps = [u - t for u, t in zip(hi_min, lo_max) if u is not None and t is not None]
    r8 = 2 * (max_width + min(gaps)) if gaps else 4 * max_width
    den = ps.scaled[0]
    center = []
    for l, h, u, t in zip(lo, hi, hi_min, lo_max):
        c_lo = 8 * h - r8 if t is None else max(8 * h - r8, 8 * t + r8)
        c_hi = 8 * l + r8 if u is None else min(8 * l + r8, 8 * u - r8)
        center.append(Fraction(c_lo + c_hi, 16 * den))
    return Cube(tuple(center), Fraction(r8, 8 * den))


# ---------------------------------------------------------------------------
# axis cuts


def _cut_build(ps: PointSet, mask: SubsetMask) -> AxisCut:
    """The cut of the first axis on which mask is a prefix mask."""
    for i, (_, prefix, own) in enumerate(ps.axes):
        if mask in prefix:
            break
    k = prefix.index(mask)
    if k == 0:
        return AxisCut(i, own[0] - 1)
    if k == len(own):
        return AxisCut(i, own[-1])
    return AxisCut(i, midpoint(own[k - 1], own[k]))


# ---------------------------------------------------------------------------
# dispatch


def _check_mask(ps: PointSet, mask: SubsetMask) -> None:
    n = len(ps)
    check_int("mask", mask, 0)
    if mask >> n:
        raise DomainError(f"mask {mask!r} out of range for {n} points")


def _kernel(
    ps: PointSet, descriptor: ClassDescriptor
) -> Tuple[Callable[[SubsetMask], bool], Callable[[SubsetMask], CarveWitness]]:
    """The class's ``(decide, build)`` on the masks of ps, from one dispatch
    on its kind, with its tables built once here (see the module docstring).

    ``decide(mask)`` is the verdict.  A box carves S' when the sides from
    ``_sides`` together exclude every other point.  A degenerate ball is a
    depth-first search over the axes for one side each that together
    exclude every point outside S'; when one side excludes nothing still
    uncovered, it takes the other without branching.  A cube is the window
    test ``_window``; an axis cut looks its mask up among the prefix masks.
    ``build(mask)`` is the validated witness of a mask ``decide`` accepted;
    a degenerate ball's builder shares the kernel's ``sides`` and reads its
    fences ``sides(0)`` once, and the degenerate and box builders each keep
    a dict of the sides they have made, which lives as long as the kernel.  The
    order-type scans in ``search`` run no kernel: they read each config's
    carved masks off per-row lists of ``_factor_traces``.
    """
    if ps.dim != descriptor.dim:
        raise DomainError(
            f"set dimension {ps.dim} != class dimension {descriptor.dim}"
        )
    kind = descriptor.kind
    full = (1 << len(ps)) - 1
    if kind is ClassKind.CUBES:
        tables = [(values, prefix) for values, prefix, _ in ps.axes]
        decide = lambda mask: not mask or _window(  # a faraway cube
            tables, mask, full, [_hull_indices(prefix, mask) for _, prefix in tables]
        )
        make = lambda mask: _cube_build(ps, mask)
    elif kind is ClassKind.AXIS_CUTS:
        decide = frozenset(m for _, prefix, _ in ps.axes for m in prefix).__contains__
        make = lambda mask: _cut_build(ps, mask)
    elif kind in (ClassKind.BOXES, ClassKind.BOXES_NONDEGENERATE):
        sides = _sides(ps, None)
        decide = lambda mask: _union(sides(mask), mask) == full
        nondegenerate = kind is ClassKind.BOXES_NONDEGENERATE
        made = {}
        make = lambda mask: _box_build(ps, mask, nondegenerate, made)
    elif kind in (ClassKind.DEGENERATE_BALLS, ClassKind.ANCHORED_DEGENERATE_BALLS):
        anchor, dim = descriptor.anchor, ps.dim
        sides = _sides(ps, anchor)

        def decide(mask):
            pairs = sides(mask)
            if _union(pairs, mask) != full:
                return False

            def covers(i, rest):
                if not rest:
                    return True
                if i == dim:
                    return False
                below, above = pairs[i]
                below &= rest
                above &= rest
                if not below:
                    return covers(i + 1, rest ^ above)
                if not above:
                    return covers(i + 1, rest ^ below)
                return covers(i + 1, rest ^ below) or covers(i + 1, rest ^ above)

            return covers(0, full ^ mask)

        fences = sides(0)
        made = {None: Interval.full_line()}
        make = lambda mask: _degenerate_build(ps, mask, anchor, sides, fences, made)
    else:
        raise DomainError(f"unknown class kind {kind!r}")
    return decide, lambda mask: _checked(make(mask), ps, mask, descriptor)


def carve(
    ps: PointSet, mask: SubsetMask, descriptor: ClassDescriptor
) -> Optional[CarveWitness]:
    """Decide one mask; return a validated witness or None (infeasible)."""
    decide, build = _kernel(ps, descriptor)
    _check_mask(ps, mask)
    return build(mask) if decide(mask) else None


def carve_feasible(ps: PointSet, mask: SubsetMask, descriptor: ClassDescriptor) -> bool:
    """Feasibility only: the kernel's verdict, no concept built or re-checked."""
    decide, _ = _kernel(ps, descriptor)
    _check_mask(ps, mask)
    return decide(mask)
