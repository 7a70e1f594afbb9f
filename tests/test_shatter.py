"""Shattering verdicts, certificates, coefficients, and the growth bound."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import vclab
from vclab import (
    Box,
    CapExceededError,
    CarveWitness,
    ClassDescriptor,
    ClassKind,
    DomainError,
    PointSet,
    ShatteringCertificate,
    boxes,
    carve,
    cube_witness,
    cubes,
    degenerate_balls,
    is_shattered,
    origin_anchored,
    origin_ball_witness,
    sauer_shelah_bound,
    shattering_count,
    vc_lower_bound_on,
)
from vclab.shatter import _mask_order

carve_module = importlib.import_module("vclab.carve")


@given(st.integers(min_value=1, max_value=6))
def test_mask_order_is_permutation(n):
    order = _mask_order(n)
    assert sorted(order) == list(range(1 << n))


def test_mask_order_prioritizes_singletons():
    order = _mask_order(3)
    head = order[: 3 + 3 + 1]
    singles = {0b001, 0b010, 0b100}
    co_singles = {0b110, 0b101, 0b011}
    assert singles <= set(head)
    assert co_singles <= set(head) or 0 in head  # cheap shapes come first


def test_witness_set_is_shattered_with_full_certificate():
    ps = origin_ball_witness(2)
    verdict = is_shattered(ps, origin_anchored(2))
    assert verdict.shattered
    cert = verdict.certificate
    assert cert is not None
    assert len(cert.witnesses) == 8
    assert cert.validate()
    for mask in range(8):
        w = cert.witness_for(mask)
        got = 0
        for i, p in enumerate(ps.points):
            if w.concept.contains(p):
                got |= 1 << i
        assert got == mask


def test_not_shattered_reports_the_failing_mask():
    ps = PointSet.of([(0,), (1,), (2,)])
    verdict = is_shattered(ps, boxes(1))
    assert not verdict.shattered
    assert verdict.failing_mask == 0b101  # the unique infeasible mask
    assert verdict.certificate is None


def test_cap_guards_exponential_blowup():
    ps = PointSet.of([(0,), (1,), (2,)])
    with pytest.raises(CapExceededError):
        is_shattered(ps, boxes(1), cap=2)


def test_shattering_count_boxes_three_collinear():
    ps = PointSet.of([(0,), (1,), (2,)])
    rep = shattering_count(ps, boxes(1))
    assert rep.realized == 7
    assert rep.total_masks == 8
    with_masks = shattering_count(ps, boxes(1), include_masks=True)
    assert with_masks.feasible_masks is not None
    assert len(with_masks.feasible_masks) == 7
    assert 0b101 not in with_masks.feasible_masks


def test_shattering_count_cuts():
    ps = PointSet.of([(0, 1), (1, 0)])
    rep = shattering_count(ps, ClassDescriptor(ClassKind.AXIS_CUTS, 2))
    assert rep.realized == 4  # {}, {0}, {1}, full — cuts shatter this pair


def test_shattered_set_realizes_all_masks():
    ps = origin_ball_witness(3)
    rep = shattering_count(ps, origin_anchored(3))
    assert rep.realized == rep.total_masks == 16


def test_vc_lower_bound_on_collinear_triple():
    ps = PointSet.of([(0,), (1,), (2,)])
    bound = vc_lower_bound_on(ps, boxes(1))
    assert bound.size == 2
    assert len(bound.indices) == 2
    assert bound.certificate.validate()
    assert set(bound.indices) <= {0, 1, 2}


def test_vc_lower_bound_full_on_witness():
    ps = origin_ball_witness(2)
    bound = vc_lower_bound_on(ps, origin_anchored(2))
    assert bound.size == 3
    assert bound.indices == (0, 1, 2)


def test_vc_lower_bound_builds_witnesses_only_for_the_certificate(monkeypatch):
    import vclab.shatter as shatter

    ps = PointSet.of([(0,), (1,), (2,), (3,)])
    calls = []
    kernel = shatter._kernel

    def counting_kernel(ps, descriptor):
        decide, build = kernel(ps, descriptor)
        return decide, lambda mask: calls.append(mask) or build(mask)

    monkeypatch.setattr(shatter, "_kernel", counting_kernel)
    bound = vc_lower_bound_on(ps, boxes(1))
    assert bound.size == 2
    assert len(calls) == len(set(calls)) == 1 << bound.size  # not 2^4
    assert bound.certificate.validate()


def test_vc_lower_bound_refuses_a_projected_witness_with_the_wrong_trace(monkeypatch):
    import vclab.shatter as shatter

    ps = PointSet.of([(0,), (1,), (2,), (3,)])
    kernel = shatter._kernel

    def misplaced_kernel(ps, descriptor):
        decide, build = kernel(ps, descriptor)
        # a box of the class that misses every point: right class, wrong trace
        return decide, lambda mask: CarveWitness(descriptor, mask, build(0).concept)

    monkeypatch.setattr(shatter, "_kernel", misplaced_kernel)
    with pytest.raises(RuntimeError, match="wrong trace"):
        vc_lower_bound_on(ps, boxes(1))


def _scan_with_carve(ps, desc):
    """(failing mask, masks checked) of a per-mask ``carve`` scan in canonical order."""
    for checked, mask in enumerate(_mask_order(len(ps)), 1):
        if carve(ps, mask, desc) is None:
            return mask, checked
    return None, 1 << len(ps)


def test_scan_verdict_matches_a_per_mask_carve_scan():
    rng = random.Random(606)
    descs = (boxes, degenerate_balls, origin_anchored, lambda d: ClassDescriptor(ClassKind.AXIS_CUTS, d))
    seen = set()
    for _ in range(120):
        d, n = rng.randint(1, 3), rng.randint(1, 6)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(d)))
        ps = PointSet.of(sorted(pts))
        desc = rng.choice(descs)(d)
        fast = is_shattered(ps, desc, want_certificate=False)
        slow = is_shattered(ps, desc, want_certificate=True)
        want_mask, want_checked = _scan_with_carve(ps, desc)
        for verdict in (fast, slow):
            assert verdict.shattered == (want_mask is None)
            assert (verdict.failing_mask, verdict.masks_checked) == (want_mask, want_checked)
        seen.add(fast.shattered)
    assert seen == {True, False}
    for d in (1, 2, 3):  # shattered witnesses
        ps = origin_ball_witness(d)
        assert is_shattered(ps, origin_anchored(d), want_certificate=False).masks_checked == 1 << len(ps)


def test_shattering_count_on_degenerate_balls_skips_the_cover_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cover search ran in a feasibility scan")

    ps = PointSet.of([(0, 2, 1), (1, 0, 2), (2, 1, 0), (3, 3, 3), (-1, 4, 1)])
    want = shattering_count(ps, degenerate_balls(3), include_masks=True)
    monkeypatch.setattr(carve_module, "_cover", refuse)
    got = shattering_count(ps, degenerate_balls(3), include_masks=True)
    assert got == want
    assert 0 < got.realized < got.total_masks


def test_shattering_count_on_cubes_skips_the_cover_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cover search ran in a feasibility scan")

    ps = PointSet.of([(0, 2), (1, 0), (2, 3), (3, 1), (1, 1)])
    want = shattering_count(ps, cubes(2), include_masks=True)
    monkeypatch.setattr(carve_module, "_cover", refuse)
    got = shattering_count(ps, cubes(2), include_masks=True)
    assert got == want
    assert 0 < got.realized < got.total_masks
    assert is_shattered(cube_witness(2), cubes(2), want_certificate=False).shattered


@pytest.mark.parametrize("scan", [
    lambda ps, desc: is_shattered(ps, desc, want_certificate=True),
    vc_lower_bound_on,
], ids=["is_shattered", "vc_lower_bound_on"])
@pytest.mark.parametrize("make", [boxes, cubes, origin_anchored])
def test_certificate_scans_build_the_kernel_once(monkeypatch, scan, make):
    import vclab.shatter as shatter

    calls = []
    kernel = carve_module._kernel

    def counting_kernel(*args):
        calls.append(args)
        return kernel(*args)

    # carve() reads the module's own binding, the scans their imported one
    monkeypatch.setattr(carve_module, "_kernel", counting_kernel)
    monkeypatch.setattr(shatter, "_kernel", counting_kernel)
    ps = origin_ball_witness(2)
    out = scan(ps, make(2))
    assert out.certificate is not None and out.certificate.validate()
    assert len(calls) == 1


def test_anchored_certificate_computes_the_sides_once(monkeypatch):
    calls = []
    sides = carve_module._sides
    monkeypatch.setattr(carve_module, "_sides", lambda *args: calls.append(1) or sides(*args))
    verdict = is_shattered(origin_ball_witness(4), origin_anchored(4))
    assert verdict.certificate is not None and verdict.certificate.validate()
    assert len(calls) == 1  # one kernel per scan; every witness shares its sides


def _shattered_pair():
    ps = PointSet.of([(0,), (1,)])
    cert = is_shattered(ps, cubes(1)).certificate
    assert cert.validate()
    return ps, cert


def test_certificate_rejects_witnesses_outside_its_class():
    ps, cert = _shattered_pair()
    boxed = tuple(carve(ps, m, boxes(1)) for m in range(4))
    # box witnesses filed under the cube class, and then relabelled as cubes
    assert not ShatteringCertificate(ps, cubes(1), boxed).validate()
    relabelled = tuple(CarveWitness(cubes(1), w.mask, w.concept) for w in boxed)
    assert not ShatteringCertificate(ps, cubes(1), relabelled).validate()
    # cube witnesses are cubes, but a certificate of boxes must carry box witnesses
    assert not ShatteringCertificate(ps, boxes(1), cert.witnesses).validate()


@pytest.mark.parametrize("entry", [None, "witness", 0])
def test_certificate_with_an_entry_that_is_not_a_witness_is_invalid(entry):
    ps, cert = _shattered_pair()
    for mask in range(4):
        witnesses = list(cert.witnesses)
        witnesses[mask] = cert.witnesses[mask].concept if entry == "witness" else entry
        assert not ShatteringCertificate(ps, cubes(1), tuple(witnesses)).validate()


def test_certificate_rejects_a_bound_moved_less_than_one_lattice_step_across_a_point():
    ps = PointSet.of([
        (Fraction(1, 3), Fraction(-2, 7)),
        (Fraction(1, 2), Fraction(3, 5)),
        (Fraction(-5, 6), Fraction(1, 7)),
    ])
    cert = is_shattered(ps, boxes(2)).certificate
    assert cert.validate()
    step = Fraction(1, 3 * ps.scaled[0])  # a third of one step of the integer image
    full = 0b111
    (x_lo, x_hi), (y_lo, y_hi) = [(iv.lo, iv.hi) for iv in cert.witness_for(full).concept.intervals]
    assert (x_hi, y_lo) == (Fraction(1, 2), Fraction(-2, 7))  # hull edges on points 1 and 0

    def with_full_witness(lows, highs):
        witnesses = list(cert.witnesses)
        witnesses[full] = CarveWitness(boxes(2), full, Box.from_bounds(lows, highs))
        return ShatteringCertificate(ps, boxes(2), tuple(witnesses))

    assert with_full_witness([x_lo, y_lo], [x_hi + step, y_hi]).validate()
    assert with_full_witness([x_lo, y_lo - step], [x_hi, y_hi]).validate()
    assert not with_full_witness([x_lo, y_lo], [x_hi - step, y_hi]).validate()
    assert not with_full_witness([x_lo, y_lo + step], [x_hi, y_hi]).validate()


def test_every_public_name_resolves():
    missing = [name for name in vclab.__all__ if not hasattr(vclab, name)]
    assert missing == []
    assert len(set(vclab.__all__)) == len(vclab.__all__)


def test_sauer_bound_exact_rational():
    bound = sauer_shelah_bound(2, 3)
    assert isinstance(bound, Fraction)
    assert Fraction(1662, 100) < bound < Fraction(1663, 100)
    assert bound > 7  # the realized coefficient of boxes on 3 collinear points


def test_sauer_bound_monotone_in_n():
    assert sauer_shelah_bound(3, 5) < sauer_shelah_bound(3, 9)


def test_sauer_bound_domain():
    with pytest.raises(DomainError):
        sauer_shelah_bound(0, 3)
    with pytest.raises(DomainError):
        sauer_shelah_bound(4, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sauer_shelah_bound(True, 2),
        lambda: sauer_shelah_bound(2, 3.0),
        lambda: is_shattered(PointSet.of([(0,)]), boxes(1), cap=True),
        lambda: shattering_count(PointSet.of([(0,)]), boxes(1), cap=20.0),
    ],
    ids=["bound-vc-bool", "bound-n-float", "cap-bool", "cap-float"],
)
def test_bools_and_floats_given_as_ints_are_refused(call):
    with pytest.raises(DomainError, match="must be an int"):
        call()


def test_certificate_refuses_points_and_class_of_different_dimension():
    ps = PointSet.of([(0,), (1,)])
    witnesses = is_shattered(ps, boxes(1)).certificate.witnesses
    with pytest.raises(DomainError, match="set dimension 1 != class dimension 2"):
        ShatteringCertificate(ps, boxes(2), witnesses)


def test_cube_shattering_d1_pair():
    ps = PointSet.of([(0,), (1,)])
    assert is_shattered(ps, cubes(1)).shattered
