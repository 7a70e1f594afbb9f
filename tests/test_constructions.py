"""Witness constructions, anchor transport maps, perturbation, certificates."""

from fractions import Fraction

import pytest

from vclab import (
    Box,
    DomainError,
    Interval,
    PointSet,
    boxes,
    collapse_anchor,
    collapse_anchor_box,
    collapse_anchor_points,
    cube_downward_projection,
    cube_witness,
    cubes,
    expand_anchor_box,
    extremal_certificate,
    is_shattered,
    origin_anchored,
    origin_ball_witness,
    perturb_to_injective,
)
from vclab.scalars import NEG_INF, POS_INF

UNIT = Box.from_bounds([0], [1])
UNIT2 = Box.from_bounds([0, 0], [1, 1])


# ---------------------------------------------------------------------------
# witness families
# ---------------------------------------------------------------------------


def test_origin_witness_sizes():
    assert [len(origin_ball_witness(d)) for d in range(1, 7)] == [1, 3, 4, 6, 7, 9]


def test_origin_witness_d2_frozen():
    assert origin_ball_witness(2).points == ((-1, 1), (1, -1), (2, 1))


def test_origin_witness_shattered_small_dims():
    for d in range(1, 5):
        assert is_shattered(origin_ball_witness(d), origin_anchored(d)).shattered


def test_origin_witness_generates_at_d16():
    w = origin_ball_witness(16)
    assert len(w) == 24
    assert w.dim == 16


def test_cube_witness_sizes():
    assert [len(cube_witness(d)) for d in range(1, 6)] == [2, 3, 5, 6, 8]


def test_cube_witness_d2_frozen():
    assert cube_witness(2).points == ((1, 0), (0, 2), (0, -2))


def test_cube_witness_d3_has_far_poles():
    pts = cube_witness(3).points
    last_axis = sorted(p[2] for p in pts)
    assert last_axis[0] == -4 and last_axis[-1] == 4


def test_cube_witness_shattered_small_dims():
    for d in range(1, 4):
        assert is_shattered(cube_witness(d), cubes(d)).shattered


def test_cube_witness_generates_at_d16():
    w = cube_witness(16)
    assert len(w) == 24
    assert w.dim == 16


# ---------------------------------------------------------------------------
# anchor transport
# ---------------------------------------------------------------------------


def test_collapse_point_map():
    assert collapse_anchor(UNIT, (3,)) == (2,)
    assert collapse_anchor(UNIT, (-2,)) == (-2,)
    assert collapse_anchor(UNIT, (Fraction(1, 2),)) == (0,)


def test_collapse_box_frozen_examples():
    img = collapse_anchor_box(UNIT, Box.from_bounds([NEG_INF], [3]))
    assert (img.intervals[0].lo, img.intervals[0].hi) == (NEG_INF, 2)

    wide = Box.from_bounds([-2, NEG_INF], [POS_INF, 5])
    img2 = collapse_anchor_box(UNIT2, wide)
    assert [(iv.lo, iv.hi) for iv in img2.intervals] == [(-2, POS_INF), (NEG_INF, 4)]
    assert img2.contains((0, 0))
    assert img2.is_degenerate_ball


def test_expand_box_frozen_example():
    anchor = Box.from_bounds([2], [3])
    pre = expand_anchor_box(anchor, Box.from_bounds([0], [POS_INF]))
    assert (pre.intervals[0].lo, pre.intervals[0].hi) == (2, POS_INF)


def test_collapse_requires_anchor_containment():
    with pytest.raises(DomainError, match="ball must contain the anchor box"):
        collapse_anchor_box(UNIT, Box.from_bounds([2], [POS_INF]))
    with pytest.raises(DomainError):
        collapse_anchor_box(UNIT, Box.from_bounds([2], [5]))  # bounded: not a member


def test_expand_requires_zero():
    with pytest.raises(DomainError, match="ball must contain the origin"):
        expand_anchor_box(UNIT, Box.from_bounds([1], [POS_INF]))


def test_collapse_after_expand_is_identity():
    anchor = Box(
        (Interval(Fraction(-1, 2), 1), Interval(2, 3))
    )
    d0 = Box.from_bounds([-3, NEG_INF], [POS_INF, Fraction(7, 2)])
    round_trip = collapse_anchor_box(anchor, expand_anchor_box(anchor, d0))
    assert [(iv.lo, iv.hi) for iv in round_trip.intervals] == [
        (iv.lo, iv.hi) for iv in d0.intervals
    ]


def test_collapse_points_requires_injectivity():
    anchor = UNIT
    ps = PointSet.of([(Fraction(1, 4),), (Fraction(3, 4),)])  # both collapse to 0
    with pytest.raises(DomainError):
        collapse_anchor_points(anchor, ps)


# ---------------------------------------------------------------------------
# perturbation to injective projections
# ---------------------------------------------------------------------------


def test_perturb_keeps_injective_inputs_fixed():
    ps = PointSet.of([(0, 0), (1, 1)])
    out = perturb_to_injective(ps, boxes(2))
    assert out.points == ps.points


def test_perturb_fixes_cube_witness_ties():
    for d in (2, 3):
        w = cube_witness(d)
        out = perturb_to_injective(w, cubes(d))
        assert len(out) == len(w)
        for j in range(d):
            assert len({p[j] for p in out.points}) == len(out)
        assert is_shattered(out, cubes(d)).shattered


def test_perturb_fixes_origin_witness_ties():
    w = origin_ball_witness(2)
    out = perturb_to_injective(w, origin_anchored(2))
    assert len(out) == 3
    for j in range(2):
        assert len({p[j] for p in out.points}) == 3
    assert is_shattered(out, origin_anchored(2)).shattered


def test_perturb_rejects_unshattered_input():
    ps = PointSet.of([(0,), (1,), (2,)])
    with pytest.raises(DomainError, match="input not shattered; first failing mask 5$"):
        perturb_to_injective(ps, boxes(1))


# ---------------------------------------------------------------------------
# extremal certificates
# ---------------------------------------------------------------------------


def test_extremal_certificate_frozen_example():
    cert = extremal_certificate(origin_ball_witness(2))
    assert (cert.low_reps, cert.high_reps) == ((0, 1), (2, 0))
    assert cert.once_count == 2
    assert cert.nonextremal == ()


@pytest.mark.parametrize("build", [origin_ball_witness, cube_witness])
@pytest.mark.parametrize("d", [True, 2.0], ids=["bool", "float"])
def test_witness_dimension_given_as_bool_or_float_is_refused(build, d):
    with pytest.raises(DomainError, match="must be an int"):
        build(d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_extremal_counting_bound_spares_a_shattered_injective_set(d):
    ps = perturb_to_injective(origin_ball_witness(d), origin_anchored(d))
    assert all(len(set(col)) == len(ps) for col in zip(*ps.points))
    k = extremal_certificate(ps).once_count
    assert k <= d and 2 * len(ps) <= 2 * d + k


def test_extremal_counting_bound_refutes_an_injective_pair_on_the_line():
    ps = PointSet.of([(1,), (2,)])
    cert = extremal_certificate(ps)
    assert cert.once_count == 2  # k = 2 >= d + 1 breaks the bound
    assert not is_shattered(ps, origin_anchored(1)).shattered


def test_extremal_once_counts_by_dimension():
    got = [extremal_certificate(origin_ball_witness(d)).once_count for d in range(1, 7)]
    assert got == [0, 2, 3, 4, 5, 6]


def test_extremal_bounds_on_witnesses():
    for d in range(1, 7):
        ps = origin_ball_witness(d)
        cert = extremal_certificate(ps)
        assert cert.once_count <= d
        assert 2 * len(ps) <= 2 * d + cert.once_count


def test_interior_point_obstructs_box_shattering():
    ps = PointSet.of([(0, 0), (2, 0), (1, 1), (1, -1), (1, 0)])  # center interior
    cert = extremal_certificate(ps)
    assert cert.nonextremal == (4,)
    mask = 0b01111  # everything except the interior point
    from vclab import carve_feasible

    assert not carve_feasible(ps, mask, boxes(2))


# ---------------------------------------------------------------------------
# downward projection of cube configurations
# ---------------------------------------------------------------------------


def test_downward_projection_on_witnesses():
    for d in (2, 3, 4):
        t = perturb_to_injective(cube_witness(d), cubes(d))
        dp = cube_downward_projection(t)
        assert dp.projected.dim == d - 1
        assert len(dp.projected) == len(t) - 2
        assert dp.descriptor.anchor is not None
        assert dp.verdict.shattered


def test_downward_projection_structure():
    t = perturb_to_injective(cube_witness(3), cubes(3))
    dp = cube_downward_projection(t)
    # poles are the extremes of the dropped axis
    axis_vals = [p[dp.axis] for p in t.points]
    assert dp.pole_low[dp.axis] == min(axis_vals)
    assert dp.pole_high[dp.axis] == max(axis_vals)
    # anchor is the hull of the two projected poles
    for j, iv in enumerate(dp.anchor.intervals):
        keep = [k for k in range(t.dim) if k != dp.axis]
        lo = min(dp.pole_low[keep[j]], dp.pole_high[keep[j]])
        hi = max(dp.pole_low[keep[j]], dp.pole_high[keep[j]])
        assert (iv.lo, iv.hi) == (lo, hi)


def test_downward_projection_requires_injective_axes():
    with pytest.raises(DomainError):
        cube_downward_projection(cube_witness(2))  # tied coordinates
