"""Independent enumeration oracles versus the production deciders."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from vclab import (
    ClassDescriptor,
    ClassKind,
    DomainError,
    Interval,
    PointSet,
    boxes,
    carve_feasible,
    cubes,
)
from vclab.oracles import _axis_traces, cube_feasible_unpruned, oracle_feasible, trace_set

from conftest import instances, random_descriptor, random_point_set
from oracle_reference import axis_traces, cube_feasible_grid


def test_oracle_rejects_cubes():
    ps = PointSet.of([(0, 0)])
    with pytest.raises(DomainError):
        trace_set(ps, cubes(2))


def test_nondegenerate_needs_strictly_interior_endpoints():
    # isolating the middle of three collinear points requires endpoints
    # strictly between samples; the oracle grid must contain midpoints
    ps = PointSet.of([(0,), (1,), (2,)])
    strict = boxes(1, nondegenerate=True)
    assert oracle_feasible(ps, 0b010, strict)
    assert carve_feasible(ps, 0b010, strict)


def test_oracle_count_boxes_three_collinear():
    ps = PointSet.of([(0,), (1,), (2,)])
    assert len(trace_set(ps, boxes(1))) == 7  # all but {0,2}


def test_trace_set_is_downward_closed_for_cuts():
    ps = PointSet.of([(0, 1), (1, 0), (2, 2)])
    traces = trace_set(ps, ClassDescriptor(ClassKind.AXIS_CUTS, 2))
    assert 0 in traces
    # axis cuts realize exactly prefixes per axis plus the empty set
    for t in traces:
        assert t < 8


@given(instances(max_dim=3, max_n=5))
@settings(max_examples=120)
def test_decider_matches_oracle(inst):
    ps, desc, mask = inst
    if desc.kind is ClassKind.CUBES:
        want = cube_feasible_unpruned(ps, mask)
    else:
        want = mask in trace_set(ps, desc)
    assert carve_feasible(ps, mask, desc) == want


def test_decider_matches_oracle_pool():
    rng = random.Random(41)
    checked = 0
    for _ in range(600):
        d = rng.randint(1, 3)
        n = rng.randint(1, 6)
        ps = random_point_set(rng, d, n)
        desc = random_descriptor(rng, d)
        mask = rng.randrange(1 << n)
        got = carve_feasible(ps, mask, desc)
        if desc.kind is ClassKind.CUBES:
            want = cube_feasible_unpruned(ps, mask)
        else:
            want = oracle_feasible(ps, mask, desc)
        assert got == want, (ps, desc, mask)
        checked += 1
    assert checked == 600


def test_cube_grid_oracle_is_sound():
    # the grid oracle never claims feasibility the decider denies, and it
    # recognizes every feasible instance on small integer configurations
    rng = random.Random(99)
    agreements = 0
    for _ in range(300):
        d = rng.randint(1, 2)
        n = rng.randint(1, 4)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-4, 4) for _ in range(d)))
        ps = PointSet.of(sorted(pts))
        mask = rng.randrange(1 << n)
        grid = cube_feasible_grid(ps, mask)
        dfs = carve_feasible(ps, mask, cubes(d))
        if grid:
            assert dfs
        if dfs:
            assert grid  # complete on this grid-aligned family
        agreements += grid == dfs
    assert agreements == 300


def _scalar(v: Fraction):
    return int(v) if v.denominator == 1 else v


def test_axis_traces_match_the_per_interval_reference():
    # halves in -3..3, so most axes carry ties; anchors have a bound on a
    # coordinate or are a single point, and the per-value masks must leave
    # exactly the traces of the per-interval membership loop
    rng = random.Random(2525)
    kinds = [k for k in ClassKind if k is not ClassKind.CUBES]
    seen = {"tie": 0, "bound_on_coordinate": 0, "point_anchor": 0}
    for kind in kinds:
        for n in range(1, 8):
            for _ in range(12):
                coords = [_scalar(Fraction(rng.randint(-6, 6), 2)) for _ in range(n)]
                seen["tie"] += len(set(coords)) < n
                anchor_iv = None
                if kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
                    lo = rng.choice(coords + [_scalar(Fraction(rng.randint(-8, 8), 3))])
                    hi = rng.choice([lo, max(coords), lo + Fraction(rng.randint(1, 4), 4)])
                    hi = _scalar(Fraction(max(lo, hi)))
                    anchor_iv = Interval(lo, hi)
                    seen["bound_on_coordinate"] += lo in coords or hi in coords
                    seen["point_anchor"] += lo == hi
                got = _axis_traces(coords, kind, anchor_iv)
                assert got == axis_traces(coords, kind, anchor_iv), (kind, coords, anchor_iv)
    assert all(count > 10 for count in seen.values()), seen
