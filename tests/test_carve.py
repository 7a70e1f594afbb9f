"""Carve deciders: frozen examples, witness validity, class closure rules."""

import hashlib
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given

from vclab import (
    NEG_INF,
    POS_INF,
    AxisCut,
    Box,
    ClassDescriptor,
    ClassKind,
    Cube,
    DomainError,
    Interval,
    PointSet,
    anchored,
    boxes,
    carve,
    carve_feasible,
    cube_witness,
    cubes,
    degenerate_balls,
    is_shattered,
    origin_anchored,
    origin_ball_witness,
)
from vclab.carve import _HIGH, _LOW, _cover, _kernel, _trace_mask
from vclab.geometry import prefix_table
from vclab.oracles import cube_feasible_unpruned, trace_set
from vclab.scalars import as_scalar, midpoint
from vclab.serialize import canonical_dumps, concept_to_json

from conftest import instances

carve_module = importlib.import_module("vclab.carve")


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


@pytest.mark.parametrize("mask", [True, False, 1.0], ids=["true", "false", "float"])
def test_mask_given_as_bool_or_float_rejected(mask):
    ps = PointSet.of([(0,), (1,)])
    with pytest.raises(DomainError, match="mask must be an int"):
        carve(ps, mask, boxes(1))
    with pytest.raises(DomainError, match="mask must be an int"):
        carve_feasible(ps, mask, boxes(1))


@pytest.mark.parametrize("build", [
    lambda: ClassDescriptor(ClassKind.BOXES, True),
    lambda: PointSet(True, ((0,), (1,))),
    lambda: AxisCut(True, 0),
    lambda: AxisCut(False, 0),
], ids=["descriptor-dim", "point-set-dim", "cut-axis-true", "cut-axis-false"])
def test_boolean_dimension_or_axis_rejected(build):
    with pytest.raises(DomainError):
        build()


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
    if n > (13 if rational else 7) ** d:
        raise ValueError(f"{n} distinct points do not fit in the {d}-dimensional range")
    pts = set()
    while len(pts) < n:
        if rational:
            pts.add(tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(d)))
        else:
            pts.add(tuple(rng.randint(-3, 3) for _ in range(d)))
    return PointSet.of(sorted(pts))


def test_tied_point_set_refuses_more_points_than_its_range_holds():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        _tied_point_set(rng, 1, 8, rational=False)
    with pytest.raises(ValueError):
        _tied_point_set(rng, 1, 14, rational=True)
    assert len(_tied_point_set(rng, 1, 7, rational=False)) == 7
    assert len(_tied_point_set(rng, 1, 13, rational=True)) == 13


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


def _cuts(d):
    return ClassDescriptor(ClassKind.AXIS_CUTS, d)


def _fraction_point_set(rng, d, n):
    # denominators up to 12 over small numerators: common denominators up to
    # 27 720, and ties on most axes (0, 1/2 = 2/4 = 3/6, ...)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(d)))
    return PointSet.of(sorted(pts))


def test_box_and_cut_witness_bytes_are_pinned():
    # Digest taken with the deciders comparing the rationals themselves;
    # deciding on the integer image must build the very same concepts.
    rng = random.Random(1212)
    h = hashlib.sha256()
    for make in (boxes, lambda d: boxes(d, nondegenerate=True), _cuts):
        for _ in range(40):
            d, n = rng.randint(1, 4), rng.randint(1, 7)
            ps = _fraction_point_set(rng, d, n)
            desc = make(d)
            for mask in range(1 << n):
                w = carve(ps, mask, desc)
                h.update(canonical_dumps(None if w is None else concept_to_json(w.concept)).encode())
    assert h.hexdigest() == "7a4c198efdcd7de9006a6a5ea692a859cc1875a91a27333f0c00c1e8e5a90393"


# ---------------------------------------------------------------------------
# the integer image and the per-axis prefix masks
# ---------------------------------------------------------------------------


def test_scaled_image_is_integral_and_order_preserving():
    ps = PointSet.of([(Fraction(1, 2), 3), (Fraction(-2, 3), Fraction(5, 4))])
    den, image = ps.scaled
    assert den == 12
    assert image == ((6, 36), (-8, 15))
    assert all(type(c) is int for p in image for c in p)
    integral = PointSet.of([(0, 1), (2, -3)])
    assert integral.scaled == (1, integral.points)


def test_axes_are_the_prefix_tables_of_the_integer_image():
    ps = PointSet.of([(1, 0), (0, 0), (1, Fraction(1, 2)), (Fraction(-2, 3), 4)])
    den = ps.scaled[0]
    assert den == 6
    for axis, (values, prefix, own) in enumerate(ps.axes):
        column = [p[axis] for p in ps.points]
        reference_values, reference_prefix = prefix_table(column)  # on the rationals
        assert prefix == reference_prefix
        assert all(type(v) is int for v in values)
        assert values == tuple(v * den for v in reference_values)
        for k, x in enumerate(own):
            assert any(x is c for c in column)
            assert x == Fraction(values[k], den)


def test_axes_are_cached_and_own_is_values_when_integral():
    ps = PointSet.of([(1, 0), (0, 0), (1, Fraction(1, 2))])
    assert ps.axes is ps.axes  # kept, not recomputed
    (xs, xmask, _), (ys, ymask, yown) = ps.axes
    assert xs == (0, 2) and xmask == (0, 0b010, 0b111)
    assert ys == (0, 1) and ymask == (0, 0b011, 0b111) and yown == (0, Fraction(1, 2))
    whole = PointSet.of([(1, 0), (0, 2)])
    assert all(own is values for values, _, own in whole.axes)  # L = 1


def test_cached_tables_leave_equality_and_hash_alone():
    a, b = PointSet.of([(Fraction(1, 3),), (1,)]), PointSet.of([(Fraction(1, 3),), (1,)])
    a.scaled, a.axes
    assert a == b and hash(a) == hash(b)


def test_a_second_cube_scan_builds_no_new_prefix_table(monkeypatch):
    import vclab.geometry as geometry

    built = []
    table = geometry.prefix_table

    def counting_table(column):
        built.append(column)
        return table(column)

    monkeypatch.setattr(geometry, "prefix_table", counting_table)
    monkeypatch.setattr(carve_module, "prefix_table", counting_table)
    ps = PointSet.of([(Fraction(1, 2), 0), (1, Fraction(1, 3)), (2, 1)])
    first = [m for m in range(8) if _kernel(ps, cubes(2))[0](m)]
    assert len(built) == 2  # one table per axis
    assert [m for m in range(8) if _kernel(ps, cubes(2))[0](m)] == first
    assert len(built) == 2


def _large_denominator_point_set(rng, d, n):
    # three large prime denominators: L up to about 6.6e16
    pts = set()
    while len(pts) < n:
        pts.add(tuple(
            Fraction(rng.randint(-10**7, 10**7), rng.choice((999_983, 1_000_003, 65_537)))
            for _ in range(d)
        ))
    return PointSet.of(sorted(pts))


def test_trace_mask_matches_pointwise_membership():
    # The reference is concept.contains on the original rationals.
    rng = random.Random(77)
    for k in range(200):
        d, n = rng.randint(1, 4), rng.randint(1, 8)
        make = _large_denominator_point_set if k % 4 == 3 else _fraction_point_set
        ps = make(rng, d, n)
        coords = [c for p in ps.points for c in p]
        step = Fraction(1, 3 * ps.scaled[0])  # a third of one lattice step

        def value():
            shape = rng.randrange(4)
            if shape == 0:  # exactly on a coordinate: ties
                return rng.choice(coords)
            if shape == 1:  # strictly inside one lattice step of a coordinate
                return rng.choice(coords) + rng.choice((-step, step))
            if shape == 2:  # negative and not integral: floor and ceil below 0
                return -(rng.randint(0, 8) + Fraction(rng.randint(1, 5), 6))
            return Fraction(rng.randint(-8, 8), rng.randint(1, 6))

        concepts = [AxisCut(i, value()) for i in range(d)]
        for _ in range(8):
            sides = []
            for _ in range(d):
                lo, hi = sorted((value(), value()))
                shape = rng.randrange(4)  # bounded, ray up, ray down, line
                sides.append(Interval(
                    NEG_INF if shape in (2, 3) else lo,
                    POS_INF if shape in (1, 3) else hi,
                ))
            concepts.append(Box(tuple(sides)))
            center = rng.choice((ps.points[0], tuple(value() for _ in range(d))))
            radius = rng.choice((0, step, abs(value())))
            concepts.append(Cube(center, radius))
        for concept in concepts:
            assert _trace_mask(concept, ps) == trace(concept, ps), concept


def test_trace_mask_compares_no_fractions(monkeypatch):
    ps = PointSet.of([(Fraction(1, 3), Fraction(-5, 4)), (Fraction(7, 2), 2), (-1, Fraction(2, 9))])
    concepts = [
        Box.from_bounds([Fraction(-2, 3), Fraction(-5, 4)], [Fraction(7, 2), Fraction(1, 5)]),
        Box((Interval(Fraction(1, 3), POS_INF), Interval(NEG_INF, Fraction(2, 9)))),
        Cube((Fraction(1, 3), Fraction(-1, 2)), Fraction(3, 4)),
        Cube((Fraction(7, 2), 2), 0),
        AxisCut(1, Fraction(2, 9)),
        AxisCut(0, Fraction(-1, 7)),
    ]
    want = [trace(c, ps) for c in concepts]
    compared = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        method = getattr(Fraction, name)

        def counting(a, b, method=method, name=name):
            compared.append(name)
            return method(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    assert [_trace_mask(c, ps) for c in concepts] == want
    assert compared == []


def test_trace_mask_falls_back_on_a_dimension_mismatch():
    ps = PointSet.of([(0, 0), (1, 1)])
    with pytest.raises(DomainError, match="point/box dimension mismatch"):
        _trace_mask(Box.from_bounds([0], [1]), ps)
    with pytest.raises(DomainError, match="point/cube dimension mismatch"):
        _trace_mask(Cube((0, 0, 0), 1), ps)
    with pytest.raises(IndexError):
        _trace_mask(AxisCut(2, 0), ps)


def _scaled_descriptor(desc, den):
    if desc.anchor is None:
        return desc
    return anchored(Box.from_bounds(
        [iv.lo * den for iv in desc.anchor.intervals],
        [iv.hi * den for iv in desc.anchor.intervals],
    ))


@pytest.mark.parametrize("make", [
    boxes,
    lambda d: boxes(d, nondegenerate=True),
    cubes,
    degenerate_balls,
    origin_anchored,
    lambda d: _rational_anchor(random.Random(d), d),
    _cuts,
], ids=["boxes", "boxes-nondegenerate", "cubes", "degenerate", "d0", "anchored", "cuts"])
def test_feasible_on_rationals_matches_integer_image_and_oracle(make):
    rng = random.Random(31)
    for _ in range(12):
        d, n = rng.randint(1, 3), rng.randint(1, 5)
        ps = _fraction_point_set(rng, d, n)
        desc = make(d)
        den, image = ps.scaled
        integral = PointSet(d, image)
        integral_desc = _scaled_descriptor(desc, den)
        if desc.kind is ClassKind.CUBES:
            oracle = {m for m in range(1 << n) if cube_feasible_unpruned(ps, m)}
        else:
            oracle = trace_set(ps, desc)
        for mask in range(1 << n):
            feasible = carve_feasible(ps, mask, desc)
            assert feasible == carve_feasible(integral, mask, integral_desc)
            assert feasible == (mask in oracle)


# ---------------------------------------------------------------------------
# the feasibility kernel
# ---------------------------------------------------------------------------

# class makers, each called as make(rng, d)
KERNEL_CLASSES = {
    "boxes": lambda rng, d: boxes(d),
    "boxes-nondegenerate": lambda rng, d: boxes(d, nondegenerate=True),
    "cubes": lambda rng, d: cubes(d),
    "degenerate": lambda rng, d: degenerate_balls(d),
    "d0": lambda rng, d: origin_anchored(d),
    "anchored": _rational_anchor,
    "cuts": lambda rng, d: _cuts(d),
}


def _oracle(ps, desc):
    if desc.kind is ClassKind.CUBES:
        return {m for m in range(1 << len(ps)) if cube_feasible_unpruned(ps, m)}
    return trace_set(ps, desc)


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
def test_kernel_matches_witness_search_and_oracle_on_every_mask(name):
    make = KERNEL_CLASSES[name]
    rng = random.Random("kernel-" + name)
    n_max = 6 if name == "cubes" else 7  # the cube oracle tries (2d)^|S - S'| sides
    for k in range(100):
        d, n = rng.randint(1, 4), rng.randint(1, n_max)
        ps = _tied_point_set(rng, d, n, rational=k % 2 == 1)
        desc = make(rng, d)
        decide = _kernel(ps, desc)[0]
        oracle = _oracle(ps, desc)
        for mask in range(1 << n):
            feasible = decide(mask)
            assert feasible == (carve(ps, mask, desc) is not None), (ps, desc, mask)
            assert feasible == (mask in oracle), (ps, desc, mask)
            assert feasible == carve_feasible(ps, mask, desc)


def test_degenerate_carve_decides_infeasible_masks_without_the_cover_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cover search ran on an infeasible mask")

    monkeypatch.setattr(carve_module, "_cover", refuse)
    ps3 = PointSet.of([(0,), (1,), (2,)])
    assert carve(ps3, mask_of([1]), degenerate_balls(1)) is None
    assert carve(PointSet.of([(-1,), (1,)]), 0, origin_anchored(1)) is None
    anchor = anchored(Box.from_bounds([0, 0], [1, 1]))
    assert carve(PointSet.of([(Fraction(1, 2), Fraction(1, 2))]), 0, anchor) is None


def test_cover_search_failing_on_an_accepted_mask_is_an_internal_error(monkeypatch):
    ps = PointSet.of([(0,), (2,)])
    assert carve(ps, mask_of([0]), degenerate_balls(1)) is not None
    monkeypatch.setattr(carve_module, "_cover", lambda *args, **kwargs: None)
    with pytest.raises(RuntimeError, match="no witness"):
        carve(ps, mask_of([0]), degenerate_balls(1))


def test_cube_cover_search_finds_a_witness_on_exactly_the_accepted_masks():
    # the kernel decides cubes by the window rule, the builder by the cover
    # search with sides at the excluded points: the two must agree
    rng = random.Random("cube-cover")
    for k in range(120):
        d, n = rng.randint(1, 4), rng.randint(1, 7)
        ps = _tied_point_set(rng, d, n, rational=k % 2 == 1)
        decide = _kernel(ps, cubes(d))[0]
        assert decide(0)
        for mask in range(1, 1 << n):
            inc = [p for i, p in enumerate(ps.scaled[1]) if mask >> i & 1]
            exc = [p for i, p in enumerate(ps.scaled[1]) if not mask >> i & 1]
            axes = list(zip(*inc))
            lo, hi = [min(a) for a in axes], [max(a) for a in axes]
            width = max(h - l for h, l in zip(hi, lo))
            options = [
                [(i, _LOW if x < l else _HIGH, x) for i, (x, l, h) in enumerate(zip(q, lo, hi))
                 if not l <= x <= h]
                for q in exc
            ]
            found = _cover(options, d, width)
            assert decide(mask) == (found is not None), (ps, mask)


def test_cube_cover_search_failing_on_an_accepted_mask_is_an_internal_error(monkeypatch):
    ps = PointSet.of([(0, 0), (3, 0)])
    assert carve(ps, mask_of([0]), cubes(2)) is not None
    monkeypatch.setattr(carve_module, "_cover", lambda *args, **kwargs: None)
    with pytest.raises(RuntimeError, match="no witness"):
        carve(ps, mask_of([0]), cubes(2))
    assert carve(ps, 0, cubes(2)) is not None  # the empty trace needs no search


def test_cube_carve_decides_infeasible_masks_without_the_cover_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cover search ran on an infeasible mask")

    monkeypatch.setattr(carve_module, "_cover", refuse)
    assert carve(PointSet.of([(0,), (1,), (2,)]), mask_of([0, 2]), cubes(1)) is None
    ps = PointSet.of([(0, 0), (2, 2), (1, 1)])
    assert carve(ps, mask_of([0, 1]), cubes(2)) is None


# ---------------------------------------------------------------------------
# witness building: integer cube witnesses, sides made once per kernel
# ---------------------------------------------------------------------------


def _fraction_cube_witness(ps, mask):
    # the cube witness as solved over Fractions before the integer formula;
    # kept as the reference the builder must reproduce exactly
    lo, hi = [], []
    for values, prefix, _ in ps.axes:
        a, b = carve_module._hull_indices(prefix, mask)
        lo.append(values[a])
        hi.append(values[b - 1])
    exc = [p for i, p in enumerate(ps.scaled[1]) if not mask >> i & 1]
    max_width = max(h - l for h, l in zip(hi, lo))
    options = [
        [(i, _LOW if x < l else _HIGH, x) for i, (x, l, h) in enumerate(zip(q, lo, hi))
         if not l <= x <= h]
        for q in exc
    ]
    hi_min, lo_max = _cover(options, ps.dim, max_width)
    r0 = Fraction(max_width, 2)
    pair_bounds = [
        Fraction(hi_min[i] - lo_max[i], 2)
        for i in range(ps.dim)
        if hi_min[i] is not None and lo_max[i] is not None
    ]
    r = midpoint(r0, min(pair_bounds)) if pair_bounds else as_scalar(r0)
    center = []
    for i in range(ps.dim):
        c_lo = hi[i] - r
        if lo_max[i] is not None and lo_max[i] + r > c_lo:
            c_lo = lo_max[i] + r
        c_hi = lo[i] + r
        if hi_min[i] is not None and hi_min[i] - r < c_hi:
            c_hi = hi_min[i] - r
        center.append(midpoint(c_lo, c_hi))
    den = ps.scaled[0]
    unscale = lambda v: v if den == 1 else as_scalar(Fraction(v, den))
    return Cube(tuple(unscale(c) for c in center), unscale(r))


def _cube_reference_sets():
    rng = random.Random("integer-cube-witness")
    for k in range(200):
        d = rng.randint(1, 5)
        # an integer line holds only 7 tied coordinates
        yield _tied_point_set(rng, d, rng.randint(1, 7 if d == 1 else 8), rational=k % 2 == 1)
    for d in range(2, 7):
        for scale in (1, Fraction(3, 7), Fraction(22, 5)):
            shift = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(d)]
            points = cube_witness(d).points
            yield PointSet.of([[c * scale + v for c, v in zip(p, shift)] for p in points])


def test_integer_cube_witness_is_the_fraction_formula():
    checked = 0
    for ps in _cube_reference_sets():
        decide, build = _kernel(ps, cubes(ps.dim))
        for mask in range(1, 1 << len(ps)):
            if decide(mask):
                got, want = build(mask).concept, _fraction_cube_witness(ps, mask)
                assert got == want, (ps, mask)
                assert canonical_dumps(concept_to_json(got)) == canonical_dumps(concept_to_json(want))
                checked += 1
    assert checked > 5000


def _rational_image(ps, rng):
    scales = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(ps.dim)]
    return PointSet.of([[c * s for c, s in zip(p, scales)] for p in ps.points])


@pytest.mark.parametrize("name", ["degenerate", "d0", "anchored", "boxes"])
def test_equal_sides_are_one_object_within_a_certificate(name):
    rng = random.Random(name)
    for d in range(2, 6):
        if name == "boxes":
            ps, desc = _rational_image(cube_witness(d), rng), boxes(d)
        elif name == "anchored":
            # expanded about the anchor [-1, 0]^d, whose collapse it undoes
            points = _rational_image(origin_ball_witness(d), rng).points
            ps = PointSet.of([[c if c > 0 else c - 1 if c < 0 else Fraction(-1, 2) for c in p]
                              for p in points])
            desc = anchored(Box.from_bounds([-1] * d, [0] * d))
        else:
            ps = _rational_image(origin_ball_witness(d), rng)
            desc = degenerate_balls(d) if name == "degenerate" else origin_anchored(d)
        cert = is_shattered(ps, desc).certificate
        assert cert is not None and cert.validate()
        made = set()
        for i in range(d):
            sides = {}
            for w in cert.witnesses:
                iv = w.concept.intervals[i]
                assert sides.setdefault(iv, iv) is iv, (name, d, i, iv)
                made.add(id(iv))
        if name != "boxes":
            m = [len(values) for values, _, _ in ps.axes]
            assert len(made) <= sum(2 * k + 1 for k in m) <= d * (2 * max(m) + 1)
