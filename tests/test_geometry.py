"""Point sets, intervals, boxes, and cubes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from vclab import (
    NEG_INF,
    POS_INF,
    Box,
    Cube,
    DomainError,
    Interval,
    PointSet,
    project,
    rect_hull,
)

from conftest import point_sets


def test_point_set_requires_distinct_points():
    with pytest.raises(DomainError):
        PointSet.of([(0, 0), (0, 0)])


def test_point_set_rejects_mixed_dimension():
    with pytest.raises(DomainError, match="has 2 coordinates, expected 1"):
        PointSet.of([(0,), (0, 1)])


def test_point_set_rejects_floats():
    with pytest.raises(DomainError):
        PointSet.of([(0.5,)])


def test_interval_membership_and_degeneracy():
    iv = Interval(0, 1)
    assert iv.contains(0) and iv.contains(1) and iv.contains(Fraction(1, 2))
    assert not iv.contains(2)
    ray = Interval(NEG_INF, 3)
    assert ray.contains(-(10**9)) and not ray.contains(4)
    with pytest.raises(DomainError):
        Interval(1, 0)


def test_box_membership():
    b = Box.from_bounds([0, NEG_INF], [1, 5])
    assert b.contains((0, -100))
    assert b.contains((1, 5))
    assert not b.contains((2, 0))
    assert not b.contains((0, 6))


def test_box_degeneracy_flags():
    assert Box.from_bounds([NEG_INF], [3]).is_degenerate_ball
    assert Box.from_bounds([0, NEG_INF], [POS_INF, 1]).is_degenerate_ball
    assert not Box.from_bounds([0, 0], [1, POS_INF]).is_degenerate_ball
    assert Box((Interval.full_line(),) * 2).is_degenerate_ball


def _random_interval(rng):
    # small ranges and frequent infinite ends, so containment often holds
    lo = NEG_INF if rng.random() < 0.3 else Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
    if rng.random() < 0.3:
        return Interval(lo, POS_INF)
    base = Fraction(rng.randint(-4, 4), 2) if lo is NEG_INF else lo
    return Interval(lo, base + Fraction(rng.randint(0, 6), 2))


def test_class_checks_agree_with_the_per_interval_definitions():
    rng = random.Random("box-class-checks")
    seen = set()
    for _ in range(3000):
        d = rng.randint(1, 3)
        a = Box(tuple(_random_interval(rng) for _ in range(d)))
        b = Box(tuple(_random_interval(rng) for _ in range(d)))
        # a degenerate side is unbounded in at least one direction
        want = all(iv.lo is NEG_INF or iv.hi is POS_INF for iv in a.intervals)
        assert a.is_degenerate_ball == want
        want = all(x.lo <= y.lo and y.hi <= x.hi for x, y in zip(a.intervals, b.intervals))
        assert a.contains_box(b) == want, (a, b)
        assert a.contains_box(a)
        seen.add((a.is_degenerate_ball, want))
        with pytest.raises(DomainError, match="box/box dimension mismatch"):
            a.contains_box(Box(b.intervals + (Interval.full_line(),)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_cube_membership_is_closed_sup_ball():
    c = Cube((0, 0), 1)
    assert c.contains((1, 1)) and c.contains((-1, 0))
    assert not c.contains((1, Fraction(3, 2)))
    with pytest.raises(DomainError):
        Cube((0, 0), -1)


@given(point_sets(max_dim=3, max_n=6))
def test_rect_hull_is_smallest_containing_box(ps):
    hull = rect_hull(ps)
    assert all(hull.contains(p) for p in ps.points)
    for j, iv in enumerate(hull.intervals):
        assert any(p[j] == iv.lo for p in ps.points)
        assert any(p[j] == iv.hi for p in ps.points)


def test_rect_hull_frozen_example():
    ps = PointSet.of([(-1, 1), (2, -1), (0, 0)])
    hull = rect_hull(ps)
    assert [(iv.lo, iv.hi) for iv in hull.intervals] == [(-1, 2), (-1, 1)]


def test_project_drops_axes():
    ps = PointSet.of([(1, 2, 3), (4, 5, 6)])
    q = project(ps, (0, 2))
    assert q.points == ((1, 3), (4, 6))
    assert q.dim == 2


def test_project_collision_is_rejected():
    ps = PointSet.of([(0, 1), (0, 2)])
    with pytest.raises(DomainError, match="distinct points collide after projection"):
        project(ps, (0,))


@pytest.mark.parametrize("keep", [[True], [False], (0, True)])
def test_project_refuses_bool_axes(keep):
    ps = PointSet.of([(1, 2, 3), (4, 5, 6)])
    with pytest.raises(DomainError, match="projection axis .* out of range"):
        project(ps, keep)
