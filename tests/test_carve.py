"""Carve deciders: frozen examples, witness validity, class closure rules."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given

from vclab import (
    AxisCut,
    Box,
    ClassDescriptor,
    ClassKind,
    Cube,
    DomainError,
    PointSet,
    anchored,
    boxes,
    carve,
    carve_feasible,
    cubes,
    degenerate_balls,
    origin_anchored,
)
from vclab.serialize import canonical_dumps, concept_to_json

from conftest import instances


def mask_of(indices, n=None):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def trace(concept, ps):
    m = 0
    for i, p in enumerate(ps.points):
        if concept.contains(p):
            m |= 1 << i
    return m


# ---------------------------------------------------------------------------
# frozen box examples
# ---------------------------------------------------------------------------


def test_box_carve_two_of_three():
    ps = PointSet.of([(0, 0), (1, 1), (2, 0)])
    w = carve(ps, mask_of([0, 2]), boxes(2))
    assert w is not None
    assert trace(w.concept, ps) == mask_of([0, 2])


def test_box_carve_middle_point_infeasible():
    ps = PointSet.of([(0,), (1,), (2,)])
    assert carve(ps, mask_of([0, 2]), boxes(1)) is None
    assert carve_feasible(ps, mask_of([0, 2]), boxes(1)) is False


def test_box_carve_empty_mask_feasible():
    ps = PointSet.of([(0,), (1,), (2,)])
    w = carve(ps, 0, boxes(1))
    assert w is not None and trace(w.concept, ps) == 0


def test_box_full_mask_contains_hull():
    ps = PointSet.of([(-1, 1), (2, -1), (0, 0)])
    w = carve(ps, 0b111, boxes(2))
    assert w is not None
    for p in ps.points:
        assert w.concept.contains(p)


def test_nondegenerate_singletons_need_inflation():
    ps = PointSet.of([(0,), (1,), (2,)])
    strict = boxes(1, nondegenerate=True)
    w = carve(ps, mask_of([1]), strict)
    assert w is not None
    iv = w.concept.intervals[0]
    assert iv.lo < iv.hi  # genuinely two-dimensional family member
    assert trace(w.concept, ps) == mask_of([1])


# ---------------------------------------------------------------------------
# frozen anchored examples
# ---------------------------------------------------------------------------


def test_anchored_d1_single_point_excluded():
    ps = PointSet.of([(1,)])
    w = carve(ps, 0, origin_anchored(1))
    assert w is not None
    assert w.concept.contains((0,))
    assert not w.concept.contains((1,))


def test_anchored_d1_cannot_exclude_both_sides():
    ps = PointSet.of([(-1,), (1,)])
    assert carve(ps, 0, origin_anchored(1)) is None


def test_anchored_d2_witness_set_mask():
    ps = PointSet.of([(-1, 1), (1, -1), (2, 1)])
    w = carve(ps, mask_of([0, 2]), origin_anchored(2))
    assert w is not None
    assert w.concept.contains((0, 0))
    assert w.concept.is_degenerate_ball
    assert trace(w.concept, ps) == mask_of([0, 2])


def test_anchored_concept_must_cover_anchor():
    anchor = Box.from_bounds([0, 0], [1, 1])
    ps = PointSet.of([(Fraction(1, 2), Fraction(1, 2))])
    # the only member containing the anchor also contains its interior point
    assert carve(ps, 0, anchored(anchor)) is None


# ---------------------------------------------------------------------------
# frozen cube examples
# ---------------------------------------------------------------------------


def test_cube_carve_isolates_one_of_two():
    ps = PointSet.of([(0, 0), (3, 0)])
    w = carve(ps, mask_of([0]), cubes(2))
    assert w is not None
    assert isinstance(w.concept, Cube)
    assert trace(w.concept, ps) == mask_of([0])


def test_cube_convexity_infeasible_d1():
    ps = PointSet.of([(0,), (1,), (2,)])
    assert carve(ps, mask_of([0, 2]), cubes(1)) is None


def test_cube_full_mask_on_witness_triple():
    ps = PointSet.of([(1, 0), (0, 2), (0, -2)])
    w = carve(ps, 0b111, cubes(2))
    assert w is not None
    assert w.concept.radius >= 2  # poles are 4 apart on one axis
    assert trace(w.concept, ps) == 0b111
    # the documented hand witness also validates
    assert all(Cube((Fraction(1, 2), 0), 2).contains(p) for p in ps.points)


def test_degenerate_needs_side_at_infinity():
    ps = PointSet.of([(0,), (2,)])
    w = carve(ps, mask_of([0]), degenerate_balls(1))
    assert w is not None
    assert w.concept.is_degenerate_ball
    ps3 = PointSet.of([(0,), (1,), (2,)])
    assert carve(ps3, mask_of([1]), degenerate_balls(1)) is None


# ---------------------------------------------------------------------------
# frozen axis-cut examples
# ---------------------------------------------------------------------------


def test_cut_examples():
    ps = PointSet.of([(0, 0), (1, 1)])
    w = carve(ps, mask_of([0]), ClassDescriptor(ClassKind.AXIS_CUTS, 2))
    assert w is not None and isinstance(w.concept, AxisCut)
    full = carve(PointSet.of([(0, 1), (1, 0)]), 0b11, ClassDescriptor(ClassKind.AXIS_CUTS, 2))
    assert full is not None
    assert carve(ps, mask_of([1]), ClassDescriptor(ClassKind.AXIS_CUTS, 2)) is None


def test_cut_empty_mask_always_feasible_downward_closed():
    ps = PointSet.of([(5, 5), (6, 6)])
    w = carve(ps, 0, ClassDescriptor(ClassKind.AXIS_CUTS, 2))
    assert w is not None and trace(w.concept, ps) == 0


# ---------------------------------------------------------------------------
# cross-cutting witness properties
# ---------------------------------------------------------------------------


@given(instances(max_dim=3, max_n=5))
def test_carve_witness_always_revalidates(inst):
    ps, desc, mask = inst
    w = carve(ps, mask, desc)
    if w is not None:
        assert trace(w.concept, ps) == mask
        assert w.mask == mask


@given(instances(max_dim=2, max_n=4))
def test_feasibility_matches_witness_presence(inst):
    ps, desc, mask = inst
    assert carve_feasible(ps, mask, desc) == (carve(ps, mask, desc) is not None)


def test_mask_out_of_range_rejected():
    ps = PointSet.of([(0,), (1,)])
    with pytest.raises(DomainError):
        carve(ps, 1 << 2, boxes(1))
    with pytest.raises(DomainError):
        carve(ps, -1, boxes(1))


def test_descriptor_dimension_must_match_points():
    ps = PointSet.of([(0, 0)])
    with pytest.raises(Exception):
        carve(ps, 1, boxes(1))


def test_anchored_radius_large_cube_contains_degenerate_trace():
    # a degenerate-ball carve implies a cube carve on bounded point sets
    rng = random.Random(7)
    for _ in range(50):
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-5, 5) for _ in range(d)))
        ps = PointSet.of(sorted(pts))
        mask = rng.randrange(1 << n)
        if carve_feasible(ps, mask, degenerate_balls(d)):
            assert carve_feasible(ps, mask, cubes(d))


# ---------------------------------------------------------------------------
# witness bytes of the cover-search deciders
# ---------------------------------------------------------------------------


def _tied_point_set(rng, d, n, rational):
    # coordinates from a small range, so most axes carry ties
    pts = set()
    while len(pts) < n:
        if rational:
            pts.add(tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(d)))
        else:
            pts.add(tuple(rng.randint(-3, 3) for _ in range(d)))
    return PointSet.of(sorted(pts))


def _rational_anchor(rng, d):
    lo = [Fraction(rng.randint(-6, 6), 3) for _ in range(d)]
    return anchored(Box.from_bounds(lo, [x + Fraction(rng.randint(0, 6), 4) for x in lo]))


def test_cover_search_witness_bytes_are_pinned():
    # Which feasible side assignment the search reaches first decides the
    # witness, so these bytes pin the branching order of the cover search.
    rng = random.Random(4242)
    h = hashlib.sha256()
    makers = (degenerate_balls, origin_anchored, lambda d: _rational_anchor(rng, d), cubes)
    for make in makers:
        for k in range(40):
            d, n = rng.randint(1, 4), rng.randint(1, 7)
            ps = _tied_point_set(rng, d, n, rational=k % 3 == 2)
            desc = make(d)
            for mask in range(1 << n):
                w = carve(ps, mask, desc)
                h.update(canonical_dumps(None if w is None else concept_to_json(w.concept)).encode())
    assert h.hexdigest() == "eb14cb87a81005a3273d5886bb4be386fd6ce904e89099491de5e316f6ff0947"
