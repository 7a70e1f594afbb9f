"""Exhaustive order-type search, symmetry reduction, and randomized search."""

import ast
import gc
import hashlib
import inspect
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from importlib import import_module
from itertools import permutations, product
from math import factorial, lcm
from types import SimpleNamespace

import pytest

from vclab import (
    BudgetExceededError,
    CapExceededError,
    ClassDescriptor,
    ClassKind,
    DomainError,
    OrderConfig,
    PointSet,
    anchored,
    boxes,
    canonical_dumps,
    class_paper_vc,
    carve_feasible,
    cube_witness,
    cubes,
    degenerate_balls,
    enumerate_order_types,
    exact_vc_ordinal,
    is_shattered,
    max_shattering_coefficient,
    origin_anchored,
    perturb_to_injective,
    random_cube_search,
    resolve_even_degenerate,
    shattering_count,
)
from vclab import search as search_module
from vclab import shatter as shatter_module
from vclab.carve import _axis_hulls, _box_sieve, _kernel, cube_scorer
from vclab.geometry import prefix_table
from vclab.oracles import cube_feasible_unpruned, trace_set
from vclab.search import (
    EnumerationCounters,
    _axis_rows,
    _carved,
    _draw_other,
    _lower,
    _RowImages,
    _RowTraces,
    _order_key,
    _search_trials,
    _shattered,
)
from vclab.serialize import (
    cube_search_report_to_json,
    max_coefficient_report_to_json,
    order_config_to_json,
    point_set_to_json,
)

import order_reference
from conftest import random_point_set
from order_reference import _canonical, _relabel_sorted, rank_realization, transform_ranks

# the module: ``from vclab import carve`` binds the package's carve function
carve_module = import_module("vclab.carve")

# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_counts_small():
    assert sum(1 for _ in enumerate_order_types(1, 1)) == 1
    c = EnumerationCounters()
    assert sum(1 for _ in enumerate_order_types(2, 2, counters=c)) == 1
    assert c.examined == 2  # relabel slice halves the raw space


def test_enumerate_is_deterministic():
    a = [cfg.ranks for cfg in enumerate_order_types(3, 2)]
    b = [cfg.ranks for cfg in enumerate_order_types(3, 2)]
    assert a == b
    assert len(a) == len(set(a))


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_order_types(4, 2, budget=10))


def test_symmetry_orbits_collapse_to_one_representative():
    # every symmetry image of a representative canonicalizes back to it
    rng = random.Random(5)
    for n, dim, with_origin in [(3, 2, False), (4, 2, False), (3, 3, False), (2, 3, False), (3, 2, True)]:
        m = n + (1 if with_origin else 0)
        for cfg in enumerate_order_types(n, dim, with_origin):
            for _ in range(10):
                axis_order = rng.sample(range(dim), dim)
                reflect = [rng.random() < 0.5 for _ in range(dim)]
                point_order = rng.sample(range(n), n)
                moved = OrderConfig(
                    n, dim, with_origin,
                    transform_ranks(cfg.ranks, m, axis_order, reflect, point_order),
                )
                assert _canonical(moved.ranks, m, True) == cfg.ranks
                # realized sets of a transformed config have identical box verdicts
                mask = rng.randrange(1 << n)
                perm_mask = 0
                for new_i, old_i in enumerate(point_order):
                    if mask >> old_i & 1:
                        perm_mask |= 1 << new_i
                assert carve_feasible(
                    cfg.realize(), mask, boxes(dim)
                ) == carve_feasible(moved.realize(), perm_mask, boxes(dim))


# the group's one choice: reflect axes (every class but axis cuts) or not
SYMMETRY_VARIANTS = {"default": True, "no-reflect": False}


def _raw_configs(n, dim, with_origin, sliced=True):
    """Raw configs in scan order, axis 0 restricted to the relabel slice
    unless ``sliced`` is False."""
    m = n + (1 if with_origin else 0)
    others = list(permutations(range(m), n))
    for first in _axis_rows(n, with_origin) if sliced else others:
        for rest in product(others, repeat=dim - 1):
            yield (first,) + rest


DIFFERENTIAL_CELLS = [
    (n, dim, with_origin, variant)
    for n, dim, with_origin in [
        (3, 2, False), (4, 2, True), (5, 2, False), (4, 3, False), (3, 3, True), (3, 4, False)
    ]
    for variant in sorted(SYMMETRY_VARIANTS)
]


def _least_image(rows, images):
    """The least image, when ``rows`` bounds it from above, found as the
    cube search's order key finds it: each row ``_lower`` returns is
    written, with sentinel rows after it, until none comes back.  Every
    step lowers the rows to a prefix of an image followed by sentinels, so
    d * d! * 2^d steps bound the loop; one more fails instead of hanging."""
    rows = list(rows)
    d = len(rows)
    sentinel = (len(images[0][0][0]) + 1,)
    cap = d * factorial(d) * 2 ** d + 1
    for _ in range(cap):
        found = _lower(rows, images)
        if found is None:
            return tuple(rows)
        k, row = found
        rows[k:] = [row] + [sentinel] * (d - k - 1)
    raise AssertionError(f"no least image after {cap} steps")


def _check_minimality_search(n, dim, with_origin, reflect):
    # a sliced matrix is its own image: the minimality test is one call, and
    # the loop lowers it to the least image; an unsliced one is not, so the
    # loop starts from sentinel rows, as the cube search's order key does.
    # Relabeling points keeps the orbit, so an unsliced matrix's least image
    # is that of its relabeling into the slice.
    m = n + (1 if with_origin else 0)
    table = _RowImages(m, reflect)
    least = {}
    for mat in _raw_configs(n, dim, with_origin):
        images = [table[row] for row in mat]
        least[mat] = _canonical(mat, m, reflect)
        assert (not _lower(list(mat), images)) == (least[mat] == mat), mat
        assert _least_image(list(mat), images) == least[mat], mat
    for mat in _raw_configs(n, dim, with_origin, sliced=False):
        images = [table[row] for row in mat]
        assert _least_image([(n + 1,)] * dim, images) == least[_relabel_sorted(mat)], mat


@pytest.mark.parametrize("n,dim,with_origin,variant", DIFFERENTIAL_CELLS)
def test_pruned_minimality_test_matches_full_canonical_form(n, dim, with_origin, variant):
    _check_minimality_search(n, dim, with_origin, SYMMETRY_VARIANTS[variant])


@pytest.mark.parametrize("n,dim,with_origin,variant", DIFFERENTIAL_CELLS)
def test_minimality_search_reads_its_rows_and_returns_a_lowering_image_row(
    n, dim, with_origin, variant
):
    # the search writes nothing; what it returns is row k of an image whose
    # rows 0..k-1 are those of the argument, below the argument's row k
    reflect = SYMMETRY_VARIANTS[variant]
    m = n + (1 if with_origin else 0)
    table = _RowImages(m, reflect)
    lowered = 0
    for mat in _raw_configs(n, dim, with_origin):
        rows = list(mat)
        found = _lower(rows, [table[row] for row in mat])
        assert rows == list(mat), mat
        if found is None:
            assert _canonical(mat, m, reflect) == mat
            continue
        lowered += 1
        k, row = found
        assert row < mat[k], (mat, found)
        images = {
            _relabel_sorted(transform_ranks(mat, m, tau, refl))
            for tau in permutations(range(dim))
            for refl in (product((False, True), repeat=dim) if reflect else [(False,) * dim])
        }
        assert any(img[:k] == mat[:k] and img[k] == row for img in images), (mat, found)
    assert lowered


@pytest.mark.parametrize("variant", sorted(SYMMETRY_VARIANTS))
@pytest.mark.parametrize("dim,with_origin", [(1, False), (3, False), (2, True), (4, True)])
def test_pruned_minimality_test_on_a_single_point(dim, with_origin, variant):
    # one point: an image row is a 1-tuple, however the point is relabeled
    _check_minimality_search(1, dim, with_origin, SYMMETRY_VARIANTS[variant])


@pytest.mark.parametrize("variant", sorted(SYMMETRY_VARIANTS))
@pytest.mark.parametrize(
    "n,dim,with_origin", [(3, 2, False), (4, 2, False), (3, 2, True), (2, 3, True)]
)
def test_enumeration_emits_one_representative_per_orbit(n, dim, with_origin, variant):
    reflect = SYMMETRY_VARIANTS[variant]
    m = n + (1 if with_origin else 0)
    orbits = {_canonical(mat, m, reflect) for mat in _raw_configs(n, dim, with_origin, False)}
    emitted = [cfg.ranks for cfg in enumerate_order_types(n, dim, with_origin, reflect)]
    assert len(emitted) == len(orbits)
    assert set(emitted) == orbits


def _sliced_images(mat, m, reflect):
    """Every group image of ``mat``, its points relabeled into the slice
    (axis-0 ranks ascending): each member of its orbit that the raw scan meets."""
    d = len(mat)
    for axes in permutations(range(d)):
        for flips in product((False, True), repeat=d) if reflect else [(False,) * d]:
            rows = [
                tuple(m - 1 - v for v in mat[a]) if flip else mat[a]
                for a, flip in zip(axes, flips)
            ]
            order = sorted(range(len(mat[0])), key=rows[0].__getitem__)
            yield tuple(tuple(row[i] for i in order) for row in rows)


def _reference_scan(n, dim, with_origin, reflect):
    """Every raw config of the level in order, with the brute-force verdict.

    The first config met of each orbit gets every group element applied
    once, and each member of its orbit is mapped to the orbit's least image;
    a config is kept when it is that image."""
    m = n + (1 if with_origin else 0)
    least = {}
    scan = []
    for mat in _raw_configs(n, dim, with_origin):
        if mat not in least:
            orbit = set(_sliced_images(mat, m, reflect))
            low = min(orbit)
            least.update(dict.fromkeys(orbit, low))
        scan.append((mat, least[mat] == mat))
    return scan


@pytest.mark.parametrize(
    "n,dim,with_origin,variant",
    DIFFERENTIAL_CELLS + [(5, 3, False, "default"), (4, 4, False, "default")],
)
def test_orderly_generation_matches_brute_force_scan(n, dim, with_origin, variant):
    reflect = SYMMETRY_VARIANTS[variant]
    scan = _reference_scan(n, dim, with_origin, reflect)
    counters = EnumerationCounters()
    emitted = [
        cfg.ranks
        for cfg in enumerate_order_types(n, dim, with_origin, reflect, counters=counters)
    ]
    assert emitted == [mat for mat, keep in scan if keep]
    assert (counters.examined, counters.emitted) == (len(scan), len(emitted))


@pytest.mark.parametrize(
    "n,dim,with_origin,variant",
    [
        pytest.param(4, 3, False, "default", id="4-3-False"),
        pytest.param(3, 3, True, "default", id="3-3-True"),
        (4, 3, False, "no-reflect"),
    ],
)
def test_budget_overrun_matches_per_config_charging(n, dim, with_origin, variant):
    # every budget, a limit inside a skipped block included, stops the scan
    # as if its configs were examined one by one: same emissions, count and
    # message as the raw scan
    reflect = SYMMETRY_VARIANTS[variant]
    scan = _reference_scan(n, dim, with_origin, reflect)
    kept = [mat for mat, keep in scan if keep]
    kept_before = [0]
    for _, keep in scan:
        kept_before.append(kept_before[-1] + keep)
    for budget in range(len(scan) + 1):
        counters = EnumerationCounters()
        emitted, message = [], None
        try:
            for cfg in enumerate_order_types(
                n, dim, with_origin, reflect, budget=budget, counters=counters
            ):
                emitted.append(cfg.ranks)
        except BudgetExceededError as err:
            message = str(err)
        assert emitted == kept[:kept_before[budget]], budget
        assert counters.examined == budget
        if budget < len(scan):
            assert message == f"examined {budget} raw configurations; budget {budget}"
        else:
            assert message is None


def test_budget_caps_what_one_call_examines_on_counters_that_hold_counts():
    counters = EnumerationCounters(examined=100, emitted=7)
    emitted = []
    with pytest.raises(
        BudgetExceededError, match=r"^examined 5 raw configurations; budget 5$"
    ):
        for cfg in enumerate_order_types(3, 2, budget=5, counters=counters):
            emitted.append(cfg)
    assert len(emitted) == 2
    assert (counters.examined, counters.emitted) == (105, 9)


def test_non_canonical_prefixes_skip_their_completions(monkeypatch):
    calls = []

    def counting(rows, images):
        calls.append(len(rows))
        return _lower(rows, images)

    monkeypatch.setattr(search_module, "_lower", counting)
    counters = EnumerationCounters()
    assert sum(1 for _ in enumerate_order_types(5, 3, counters=counters)) == 335
    assert counters.examined == 14400
    assert len(calls) < 14400 / 4
    assert {1, 2, 3} <= set(calls)  # every prefix length is tested


def _breaks_least_image_conditions(mat, m, reflect):
    """Whether rows 1.. of ``mat`` fail to ascend or, with reflections, one
    of them exceeds its reflection."""
    rest = mat[1:]
    return any(a > b for a, b in zip(rest, rest[1:])) or (
        reflect and any(row > tuple(m - 1 - v for v in row) for row in rest)
    )


@pytest.mark.parametrize("n,dim,with_origin,variant", DIFFERENTIAL_CELLS)
def test_least_images_have_ascending_self_least_rows(n, dim, with_origin, variant):
    # the lemma behind the row screen of the enumeration, on the reference:
    # a group element that leaves axis 0 alone keeps the point labels, so
    # the least image cannot be lowered by swapping two rows 1.. or by
    # reflecting one of them
    reflect = SYMMETRY_VARIANTS[variant]
    m = n + (1 if with_origin else 0)
    for mat in _raw_configs(n, dim, with_origin):
        least = _canonical(mat, m, reflect)
        assert not _breaks_least_image_conditions(least, m, reflect), (mat, least)


def test_rows_that_break_a_least_image_condition_are_never_tested(monkeypatch):
    tested = []

    def recording(rows, images):
        tested.append(tuple(rows))
        return _lower(rows, images)

    monkeypatch.setattr(search_module, "_lower", recording)
    counters = EnumerationCounters()
    assert sum(1 for _ in enumerate_order_types(5, 3, counters=counters)) == 335
    assert (counters.examined, counters.emitted) == (14400, 335)
    assert not [mat for mat in tested if _breaks_least_image_conditions(mat, 5, True)]
    assert len(tested) <= 1100  # 2 881 with every row tested


@pytest.mark.parametrize("value", ["no", None, 0, 1, 2])
@pytest.mark.parametrize("flag", ["with_origin", "reflect"])
def test_non_bool_flags_are_refused_before_any_work(monkeypatch, flag, value):
    monkeypatch.setattr(
        search_module, "_enumerate", lambda *a: pytest.fail("enumeration started")
    )
    with pytest.raises(DomainError, match=flag):
        enumerate_order_types(3, 2, **{flag: value})
    if flag == "with_origin":
        with pytest.raises(DomainError, match=flag):
            OrderConfig(1, 1, value, ((0,),))


@pytest.mark.parametrize(
    "args",
    [
        (2, 1, False, ((True, False),)),
        (True, 1, False, ((0,),)),
        (1, True, False, ((0,),)),
        (0, 1, False, ((),)),
        (1, 0, False, ()),
    ],
    ids=["ranks", "n", "dim", "n0", "dim0"],
)
def test_order_config_refuses_booleans(args):
    with pytest.raises(DomainError):
        OrderConfig(*args)
    assert OrderConfig(2, 1, False, ((1, 0),)).ranks == ((1, 0),)


def test_with_origin_adds_anchor_rank():
    counters = EnumerationCounters()
    cfgs = list(enumerate_order_types(1, 1, with_origin=True, counters=counters))
    # one point and the origin on a line: the point lies above the origin
    # (ranks (1,), origin rank 0) or below it (ranks (0,), origin rank 1);
    # reflection maps one onto the other, so two raw configs, one orbit
    assert (counters.examined, counters.emitted) == (2, 1)
    assert [(cfg.ranks, cfg.with_origin) for cfg in cfgs] == [(((0,),), True)]
    assert cfgs[0].origin_rank(0) == 1
    ps = cfgs[0].realize()
    assert ps.points == ((-1,),)  # realized away from the origin


# the rank-matrix path of the order-type scans: (descriptor, n, with_origin, reflect)
RANK_MATRIX_CELLS = {
    "boxes-d2-n4": (boxes(2), 4, False, True),
    "boxes-nondegenerate-d2-n4": (boxes(2, nondegenerate=True), 4, False, True),
    "degenerate-d2-n4": (degenerate_balls(2), 4, False, True),
    "degenerate-d3-n5": (degenerate_balls(3), 5, False, True),
    "anchored-d2-n4": (origin_anchored(2), 4, True, True),
    "anchored-d3-n4": (origin_anchored(3), 4, True, True),
    "cuts-d3-n3": (ClassDescriptor(ClassKind.AXIS_CUTS, 3), 3, False, False),
    "cubes-d1-n3": (cubes(1), 3, False, True),
}


@pytest.mark.parametrize("cell", sorted(RANK_MATRIX_CELLS))
def test_rank_matrix_decisions_match_realized_sets_and_oracles(cell):
    # the scans read each config's carved masks off its rows' trace lists;
    # they must be the masks the kernel accepts on the realized PointSet and
    # those of the independent oracles, and the verdict must be 2^n of them
    desc, n, with_origin, reflect = RANK_MATRIX_CELLS[cell]
    full = (1 << n) - 1
    table = _RowTraces(desc.kind, with_origin)
    for config in enumerate_order_types(n, desc.dim, with_origin, reflect):
        if with_origin:  # the closed form names the one rank the row leaves free
            for axis, row in enumerate(config.ranks):
                assert set(range(n + 1)) - set(row) == {config.origin_rank(axis)}
        entries = [table[row] for row in config.ranks]
        carved = _carved(desc.kind, [traces for traces, _ in entries], full)
        # the OR of the rows' co-singleton bitmasks names exactly the carved co-singletons
        cosingles = 0
        for _, bits in entries:
            cosingles |= bits
        assert cosingles == sum(1 << j for j in range(n) if full ^ 1 << j in carved)
        assert _shattered(desc.kind, entries, full) == (len(carved) == 1 << n)
        ps = config.realize()
        decide = _kernel(ps, desc)[0]
        assert carved == set(filter(decide, range(1 << n))), config
        if desc.kind is ClassKind.CUBES:  # trace_set leaves cubes to their own oracle
            oracle = set(filter(lambda mask: cube_feasible_unpruned(ps, mask), range(1 << n)))
        else:
            oracle = trace_set(ps, desc)
        assert carved == oracle, config
    # the scans' path shares nothing with the oracles
    homes = {getattr(value, "__module__", None) for value in vars(search_module).values()}
    assert "vclab.oracles" not in homes


def test_order_type_scans_run_no_carve_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the order-type scans ran the carve kernel")

    for module in (carve_module, shatter_module):
        monkeypatch.setattr(module, "_kernel", no_kernel)
    assert exact_vc_ordinal(ClassKind.DEGENERATE_BALLS, 2).vc_exact == 3
    assert exact_vc_ordinal(ClassKind.ANCHORED_DEGENERATE_BALLS, 2).vc_exact == 3
    assert max_shattering_coefficient(ClassKind.BOXES, 2, 4).best_count == 16
    assert max_shattering_coefficient(ClassKind.AXIS_CUTS, 2, 3).best_count == 6


@pytest.mark.parametrize(
    "kind,dim,n",
    [
        (ClassKind.DEGENERATE_BALLS, 2, 4),
        (ClassKind.DEGENERATE_BALLS, 3, 5),
        (ClassKind.ANCHORED_DEGENERATE_BALLS, 2, 4),
        (ClassKind.BOXES, 2, 5),
    ],
)
def test_max_coefficient_counts_its_best_points_as_the_kernel_and_oracle_do(kind, dim, n):
    rep = max_shattering_coefficient(kind, dim, n)
    if kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
        desc = origin_anchored(dim)
    else:
        desc = ClassDescriptor(kind, dim)
    assert rep.best_count == shattering_count(rep.best_points, desc).realized
    assert rep.best_count == len(trace_set(rep.best_points, desc))


# ---------------------------------------------------------------------------
# ordinal soundness: verdicts depend only on per-axis ranks
# ---------------------------------------------------------------------------


def test_rank_realization_preserves_ordinal_verdicts():
    rng = random.Random(17)
    for _ in range(300):
        d = rng.randint(1, 3)
        n = rng.randint(1, 5)
        ps = random_point_set(rng, d, n)
        mask = rng.randrange(1 << n)
        for desc in (
            boxes(d),
            boxes(d, nondegenerate=True),
            degenerate_balls(d),
            ClassDescriptor(ClassKind.AXIS_CUTS, d),
        ):
            flat = rank_realization(ps)
            assert carve_feasible(ps, mask, desc) == carve_feasible(flat, mask, desc)
        flat0 = rank_realization(ps, with_origin=True)
        assert carve_feasible(ps, mask, origin_anchored(d)) == carve_feasible(
            flat0, mask, origin_anchored(d)
        )


# ---------------------------------------------------------------------------
# exact VC values (frozen, independently probed)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,dim,expected",
    [
        (ClassKind.ANCHORED_DEGENERATE_BALLS, 1, 1),
        (ClassKind.ANCHORED_DEGENERATE_BALLS, 2, 3),
        (ClassKind.BOXES, 1, 2),
        (ClassKind.BOXES, 2, 4),
        (ClassKind.AXIS_CUTS, 1, 1),
        (ClassKind.AXIS_CUTS, 2, 2),
        (ClassKind.AXIS_CUTS, 3, 3),
        (ClassKind.CUBES, 1, 2),
        (ClassKind.DEGENERATE_BALLS, 1, 2),
        (ClassKind.DEGENERATE_BALLS, 2, 3),
    ],
)
def test_exact_vc_frozen_table(kind, dim, expected):
    rep = exact_vc_ordinal(kind, dim)
    assert rep.vc_exact == expected
    assert rep.vc_lower_bound == expected
    assert len(rep.assumptions) == 2


def test_exact_vc_degenerate_d3_is_4_by_exhaustion():
    rep = exact_vc_ordinal(ClassKind.DEGENERATE_BALLS, 3)
    assert rep.vc_exact == 4
    top = rep.levels[-1]
    assert top.n == 5 and not top.shattered
    assert top.configs_examined == 14400
    assert top.configs_after_symmetry == 335


def test_exact_vc_witness_levels_realize():
    rep = exact_vc_ordinal(ClassKind.BOXES, 2)
    for lv in rep.levels:
        if lv.witness_points is not None:
            assert is_shattered(lv.witness_points, boxes(2)).shattered


def test_exact_vc_rejects_cubes_beyond_intervals():
    with pytest.raises(DomainError):
        exact_vc_ordinal(ClassKind.CUBES, 2)


def test_both_order_type_scans_refuse_cubes_in_the_plane_alike():
    with pytest.raises(DomainError) as vc:
        exact_vc_ordinal(ClassKind.CUBES, 2)
    with pytest.raises(DomainError) as coef:
        max_shattering_coefficient(ClassKind.CUBES, 2, 3)
    assert str(vc.value) == str(coef.value) == (
        "cubes is not order-driven in dimension 2; use the randomized cube search instead"
    )


@pytest.mark.parametrize("kind", ["boxes", None, 0])
def test_both_order_type_scans_refuse_a_kind_that_is_not_a_class_kind(kind):
    with pytest.raises(DomainError, match="must be a ClassKind"):
        exact_vc_ordinal(kind, 2)
    with pytest.raises(DomainError, match="must be a ClassKind"):
        max_shattering_coefficient(kind, 2, 3)


def test_exact_vc_budget_carries_partial_report():
    with pytest.raises(BudgetExceededError) as err:
        exact_vc_ordinal(ClassKind.BOXES, 2, budget=30)
    partial = err.value.report
    assert partial is not None
    assert partial.vc_exact is None
    assert partial.levels  # at least the completed levels are present
    # the refused config is not counted: the message agrees with the report
    assert partial.configs_examined == 30
    assert str(err.value) == "examined 30 raw configurations; budget 30"


@pytest.mark.parametrize(
    "call",
    [
        lambda: max_shattering_coefficient(ClassKind.BOXES, 2, 0),
        lambda: max_shattering_coefficient(ClassKind.BOXES, 2, -1),
        lambda: exact_vc_ordinal(ClassKind.BOXES, 2, n_max=0),
        lambda: exact_vc_ordinal(ClassKind.BOXES, 2, n_max=-2),
        lambda: resolve_even_degenerate(2, n_max=0),
    ],
    ids=["coef-n0", "coef-n-1", "vc-nmax0", "vc-nmax-2", "resolve-nmax0"],
)
def test_non_positive_sizes_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


BUDGETED_CALLS = {
    "enumerate": lambda budget: list(enumerate_order_types(3, 2, budget=budget)),
    "vc": lambda budget: exact_vc_ordinal(ClassKind.BOXES, 1, budget=budget),
    "coef": lambda budget: max_shattering_coefficient(ClassKind.BOXES, 2, 3, budget=budget),
    "resolve": lambda budget: resolve_even_degenerate(2, budget=budget),
}


@pytest.mark.parametrize("entry", sorted(BUDGETED_CALLS))
def test_negative_budget_raises_domain_error_before_any_work(entry, monkeypatch):
    def untouchable(*args):
        raise AssertionError("a config was examined")

    monkeypatch.setattr(search_module, "_lower", untouchable)
    with pytest.raises(DomainError, match="budget must be >= 0"):
        BUDGETED_CALLS[entry](-5)


@pytest.mark.parametrize("budget", [2.5, True, "3"], ids=["fraction", "bool", "str"])
@pytest.mark.parametrize("entry", sorted(BUDGETED_CALLS))
def test_non_int_budget_raises_domain_error(entry, budget):
    with pytest.raises(DomainError, match="budget must be an int"):
        BUDGETED_CALLS[entry](budget)


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(enumerate_order_types(2.5, 2)),
        lambda: list(enumerate_order_types(True, 2)),
        lambda: exact_vc_ordinal(ClassKind.BOXES, 1, n_max=2.5),
        lambda: exact_vc_ordinal(ClassKind.BOXES, 1, n_max=True),
        lambda: resolve_even_degenerate(2, n_max=2.5),
        lambda: max_shattering_coefficient(ClassKind.BOXES, 2, 2.5),
        lambda: max_shattering_coefficient(ClassKind.BOXES, 2, True),
    ],
    ids=["enumerate-n", "enumerate-n-bool", "vc-nmax", "vc-nmax-bool", "resolve-nmax",
         "coef-n", "coef-n-bool"],
)
def test_non_int_sizes_raise_domain_error(call):
    with pytest.raises(DomainError, match="must be an int"):
        call()


@pytest.mark.parametrize(
    "kwargs, error",
    [({"keep": -1}, DomainError), ({"keep": 0}, DomainError),
     ({"keep": True}, DomainError), ({"keep": 2.0}, DomainError),
     # the climb is the fixed CLIMB_STEPS: no climb_steps value is accepted
     ({"climb_steps": -1}, TypeError), ({"climb_steps": False}, TypeError),
     ({"climb_steps": 1.5}, TypeError)],
    ids=["keep-neg", "keep-zero", "keep-bool", "keep-float",
         "climb-neg", "climb-bool", "climb-float"],
)
def test_cube_search_refuses_ill_typed_keep_and_climb_steps(kwargs, error):
    with pytest.raises(error):
        random_cube_search(2, 4, 10, seed=1, **kwargs)


@pytest.mark.parametrize("value", [1.5, True, "16", -1], ids=["float", "bool", "str", "neg"])
def test_cube_search_refuses_ill_typed_coordinate_range(monkeypatch, value):
    # refused before any trial is scored: a fresh holder makes any scoring
    # reach the poisoned factory, whatever this thread's scorer holds
    monkeypatch.setattr(search_module, "_scorers", threading.local())
    monkeypatch.setattr(search_module, "cube_scorer", None)
    with pytest.raises(DomainError, match="coordinate_range"):
        random_cube_search(2, 4, 10, seed=1, coordinate_range=value)


@pytest.mark.parametrize("value", [1.5, True, -1], ids=["float", "bool", "neg"])
def test_cube_search_refuses_a_seed_that_is_not_an_int_at_least_zero(monkeypatch, value):
    monkeypatch.setattr(search_module, "_scorers", threading.local())
    monkeypatch.setattr(search_module, "cube_scorer", None)
    with pytest.raises(DomainError, match="seed"):
        random_cube_search(2, 4, 10, seed=value)


@pytest.mark.parametrize("value", [0, -2, True, 2.5], ids=["zero", "neg", "bool", "float"])
def test_cube_search_refuses_jobs_that_is_not_an_int_at_least_one(monkeypatch, value):
    monkeypatch.setattr(search_module, "_scorers", threading.local())
    monkeypatch.setattr(search_module, "cube_scorer", None)
    with pytest.raises(DomainError, match="jobs"):
        random_cube_search(2, 4, 10, seed=1, jobs=value)


def test_cube_search_refuses_a_range_too_small_for_injective_projections():
    random_cube_search(1, 3, 2, coordinate_range=1)
    with pytest.raises(DomainError, match="too small"):
        random_cube_search(1, 4, 2, coordinate_range=1)


def test_cube_search_find_that_fails_revalidation_is_an_internal_fault(monkeypatch):
    # every two points on a line are shattered, so the one trial finds one
    assert random_cube_search(1, 2, 1).shattered_found
    refused = SimpleNamespace(shattered=False)
    monkeypatch.setattr(search_module, "is_shattered", lambda *args, **kwargs: refused)
    with pytest.raises(RuntimeError, match="revalidation"):
        random_cube_search(1, 2, 1)


def test_cube_search_accepts_keep_one():
    rep = random_cube_search(2, 4, 10, seed=1, keep=1)
    assert len(rep.best) == 1


@pytest.mark.parametrize("entry", sorted(BUDGETED_CALLS))
def test_zero_budget_refuses_the_first_config(entry):
    with pytest.raises(BudgetExceededError) as err:
        BUDGETED_CALLS[entry](0)
    assert str(err.value) == "examined 0 raw configurations; budget 0"
    if entry != "enumerate":  # the bare enumerator attaches no report
        assert err.value.report.configs_examined == 0


ORDER_DRIVEN_CELLS = [
    (kind, dim) for kind in ClassKind if kind is not ClassKind.CUBES for dim in range(1, 6)
] + [(ClassKind.CUBES, 1)]


@pytest.mark.parametrize(
    "kind, dim", ORDER_DRIVEN_CELLS, ids=[f"{k.value}-d{d}" for k, d in ORDER_DRIVEN_CELLS]
)
def test_default_depth_is_one_past_the_published_value(kind, dim):
    with pytest.raises(BudgetExceededError) as err:
        exact_vc_ordinal(kind, dim, budget=0)
    assert err.value.report.n_max == class_paper_vc(kind, dim) + 1


def test_resolve_even_degenerate_d2():
    rep = resolve_even_degenerate(2)
    assert rep.definitive
    assert rep.value == 3
    assert rep.bracket == (3, 4)
    assert rep.within_bracket


def test_order_type_scans_refuse_bad_jobs_and_resolver_dims_before_any_work(monkeypatch):
    def untouchable(*args):
        raise AssertionError("a config was examined")

    monkeypatch.setattr(search_module, "_lower", untouchable)
    scans = (
        lambda jobs: exact_vc_ordinal(ClassKind.BOXES, 1, jobs=jobs),
        lambda jobs: max_shattering_coefficient(ClassKind.BOXES, 2, 3, jobs=jobs),
        lambda jobs: resolve_even_degenerate(2, jobs=jobs),
    )
    for scan, jobs in product(scans, (0, -3, True, 2.5)):
        with pytest.raises(DomainError, match="jobs"):
            scan(jobs)
    for dim in ("2", None):  # not a bare TypeError from comparing with 2
        with pytest.raises(DomainError, match="dim must be an int"):
            resolve_even_degenerate(dim)


def test_resolve_rejects_odd_dimension():
    with pytest.raises(DomainError):
        resolve_even_degenerate(3)


def test_max_coefficient_boxes_line():
    rep = max_shattering_coefficient(ClassKind.BOXES, 1, 3)
    assert rep.best_count == 7
    assert rep.best_points.dim == 1


def test_max_coefficient_budget_carries_partial_report():
    with pytest.raises(BudgetExceededError) as err:
        max_shattering_coefficient(ClassKind.BOXES, 2, 4, budget=3)
    partial = err.value.report
    assert str(err.value) == "examined 3 raw configurations; budget 3"
    assert (partial.configs_examined, partial.configs_after_symmetry) == (3, 3)
    # the best of the three scored configs; the full scan reaches 16
    assert partial.best_count == 13
    assert partial.best_config.ranks == ((0, 1, 2, 3), (0, 1, 3, 2))
    assert partial.best_points == partial.best_config.realize()
    full = max_shattering_coefficient(ClassKind.BOXES, 2, 4)
    assert (full.best_count, full.configs_examined) == (16, 24)
    # refused before any config is scored: no best
    with pytest.raises(BudgetExceededError) as err:
        max_shattering_coefficient(ClassKind.BOXES, 2, 4, budget=0)
    empty = err.value.report
    assert (empty.configs_examined, empty.configs_after_symmetry) == (0, 0)
    assert (empty.best_count, empty.best_config, empty.best_points) == (None,) * 3
    # both partial reports encode; an empty best is null
    encoded = max_coefficient_report_to_json(partial)
    assert encoded["best_config"] == order_config_to_json(partial.best_config)
    assert encoded["best_points"] == point_set_to_json(partial.best_points)
    encoded = max_coefficient_report_to_json(empty)
    assert encoded["best_config"] is None and encoded["best_points"] is None


def test_max_coefficient_cuts_pair():
    rep = max_shattering_coefficient(ClassKind.AXIS_CUTS, 1, 2)
    assert rep.best_count == 3  # empty set and the two prefixes


# ---------------------------------------------------------------------------
# randomized cube search
# ---------------------------------------------------------------------------


def test_cube_search_deterministic_across_jobs():
    a = random_cube_search(2, 4, 200, seed=11, jobs=1)
    b = random_cube_search(2, 4, 200, seed=11, jobs=2)
    assert a.evaluations == b.evaluations
    assert [(c.points.points, c.score, c.trial) for c in a.best] == [
        (c.points.points, c.score, c.trial) for c in b.best
    ]
    assert a.shattered_found == b.shattered_found


def test_cube_search_different_seeds_differ():
    a = random_cube_search(2, 4, 100, seed=1)
    b = random_cube_search(2, 4, 100, seed=2)
    assert [(c.points.points) for c in a.best] != [(c.points.points) for c in b.best]


def test_cube_search_positive_control_finds_shattered_pairs():
    rep = random_cube_search(1, 2, 50, seed=3)
    assert rep.shattered_found
    for cand in rep.shattered_found:
        assert is_shattered(cand.points, cubes(1)).shattered


def test_cube_search_negative_control_small():
    rep = random_cube_search(2, 4, 500, seed=2024)
    assert not rep.shattered_found
    assert rep.best[0].score < rep.best[0].total_masks
    assert "evidence" in rep.note


def test_cube_search_caps_the_point_count():
    # a full score decides every one of the 2^n masks; 21 points are refused up front
    with pytest.raises(CapExceededError):
        random_cube_search(2, 21, 1)


def _search_trials_peak(trials):
    gc.collect()  # so no collection of earlier tests' garbage runs inside the trace
    tracemalloc.start()
    try:
        # 4 points on a line: no trial is shattered and none climbs
        _search_trials((1, 4, 0, trials, 2024, 16, 8))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cube_search_memory_does_not_grow_with_trials():
    # only the local top candidates are held, not one per trial
    # the first run at the larger size pays the one-off interpreter allocations
    _search_trials_peak(4000)
    small = _search_trials_peak(400)
    assert _search_trials_peak(4000) <= 2 * small


def _injective_set(rng, dim, n):
    """Random integer points, distinct per axis, as the cube search draws them."""
    cols = [rng.sample(range(-20, 21), n) for _ in range(dim)]
    return [tuple(col[i] for col in cols) for i in range(n)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_order_key_is_the_canonical_form_of_the_rank_matrix(dim):
    # n = 1 reaches the row images' one-point getter (``tuple``)
    rng = random.Random(dim)
    for n in range(1, 8):
        for _ in range(12 if dim < 4 else 4):
            ps = PointSet.of(_injective_set(rng, dim, n))
            ranked = rank_realization(ps)
            mat = tuple(tuple(p[j] for p in ranked.points) for j in range(dim))
            assert _order_key(ps) == _canonical(mat, n, True), ps


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_order_key_ignores_relabeling_axis_permutation_and_reflection(dim):
    rng = random.Random(100 + dim)
    for n in range(1, 8):
        for _ in range(6):
            pts = _injective_set(rng, dim, n)
            key = _order_key(PointSet.of(pts))
            axes = rng.sample(range(dim), dim)
            signs = [rng.choice((1, -1)) for _ in range(dim)]
            moved = [tuple(s * p[a] for a, s in zip(axes, signs)) for p in pts]
            rng.shuffle(moved)
            assert _order_key(PointSet.of(moved)) == key, (pts, moved)


def test_order_reference_shares_nothing_with_the_search():
    # the brute-force references stay independent of what they check
    tree = ast.parse(inspect.getsource(order_reference))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "search" in name]
    homes = {getattr(value, "__module__", None) for value in vars(order_reference).values()}
    assert "vclab.search" not in homes
    assert search_module not in vars(order_reference).values()


def test_cube_search_keys_only_candidates_that_can_be_kept(monkeypatch):
    # the order key is a least-image search over the candidate's rank
    # matrix; a trial scoring below the local top 8 must not pay for one
    calls = []
    monkeypatch.setattr("vclab.search._order_key", lambda ps: calls.append(1) or _order_key(ps))
    _, best, _ = _search_trials((2, 4, 0, 300, 2024, 16, 8))
    assert len(best) == 8
    assert 8 <= len(calls) < 300


def test_cube_search_keys_each_kept_candidate_once(monkeypatch):
    # the merge sorts on the ranks the workers computed, not on fresh keys
    keyed = []
    monkeypatch.setattr("vclab.search._order_key", lambda ps: keyed.append(ps) or _order_key(ps))
    rep = random_cube_search(2, 4, 300, seed=2024, jobs=1)
    assert len({id(ps) for ps in keyed}) == len(keyed)
    assert all(any(c.points is ps for ps in keyed) for c in rep.best)


def test_cube_search_keeps_low_scores_while_its_top_is_not_full():
    # four points on a line score 11 of 16, below the climb threshold, yet
    # each of the first trials enters the top with its exact score
    rep = random_cube_search(1, 4, 5, seed=3, keep=3)
    assert [c.score for c in rep.best] == [11, 11, 11]


@pytest.mark.parametrize("seed", range(12))
def test_cube_search_top_keep_is_a_prefix_of_a_larger_top(seed):
    # a trial that ties the local top's worst score can still enter it: the
    # order key breaks the tie before the trial index does
    small = random_cube_search(2, 4, 60, seed=seed, keep=3)
    large = random_cube_search(2, 4, 60, seed=seed, keep=60)
    assert small.best == large.best[:3]
    assert small.evaluations == large.evaluations


def test_cube_search_report_shape():
    rep = random_cube_search(2, 3, 60, seed=4, keep=2)
    assert rep.trials == 60
    assert len(rep.best) <= 2
    assert rep.seed == 4
    assert rep.dim == 2 and rep.n == 3


# report digests and evaluation counts taken with per-mask scoring
# (2 + sum of carve_feasible over the proper masks)
PINNED_CUBE_SEARCHES = [
    ((2, 4, 300, 2024), 3500, "e8986c9c73b203fb63cf87b6dd9b7268284bde020f59222f00f6253ba3fa6f15"),
    ((3, 5, 60, 7), 166, "4112db5fe1ab0d2c8e3b4cef0e41174ab86d2fd22b79f11ff6d2716ac3f70e38"),
    ((1, 3, 50, 1), 850, "2b816d9cba752f19a5bb3047eabe0b806b60a1b9b3055072773699fcd185d3e9"),
]


@pytest.mark.parametrize(
    "args,evaluations,digest", PINNED_CUBE_SEARCHES, ids=["d2n4", "d3n5", "d1n3"]
)
def test_cube_search_report_bytes_are_pinned(args, evaluations, digest):
    dim, n, trials, seed = args
    rep = random_cube_search(dim, n, trials, seed=seed)
    text = canonical_dumps(cube_search_report_to_json(rep))
    assert rep.evaluations == evaluations
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    split = random_cube_search(dim, n, trials, seed=seed, jobs=2)
    assert canonical_dumps(cube_search_report_to_json(split)) == text


# ---------------------------------------------------------------------------
# whole-set and bounded cube scores
# ---------------------------------------------------------------------------


def _per_mask_score(ps):
    full = (1 << len(ps)) - 1
    return 2 + sum(carve_feasible(ps, m, cubes(ps.dim)) for m in range(1, full))


def _random_columns(rng, dim, n, spread):
    # distinct points; with a small spread the projections tie often
    while True:
        cols = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(dim)]
        if len({tuple(col[i] for col in cols) for i in range(n)}) == n:
            return cols


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cube_score_matches_per_mask_decider_and_oracle(dim):
    rng = random.Random(500 + dim)
    tied = 0
    for n in range(1, 7):
        for k in range(40):
            # half the sets have tied coordinates more often than not
            spread = n // 2 + 1 if k % 2 else 16
            cols = _random_columns(rng, dim, n, spread)
            tied += any(len(set(col)) < n for col in cols)
            ps = PointSet.of([tuple(col[i] for col in cols) for i in range(n)])
            score = cube_scorer()(cols, 0)
            assert score == _per_mask_score(ps), cols
            if k < 6 and (2 * dim) ** (n - 1) <= 1024:
                oracle = sum(cube_feasible_unpruned(ps, m) for m in range(1 << n))
                assert score == oracle, cols
    if dim > 1:
        assert tied > 40


def test_cube_score_small_and_shattered_sets():
    assert cube_scorer()([[5]], 0) == 2
    assert cube_scorer()([[0], [3], [-2]], 0) == 2
    assert cube_scorer()([[0, 1]], 0) == 4
    assert cube_scorer()([[0, 1, 2]], 0) == 7  # the middle point alone is cut out
    for dim in (2, 3):
        ps = perturb_to_injective(cube_witness(dim), cubes(dim))
        scale = lcm(*(Fraction(x).denominator for p in ps.points for x in p))
        cols = [[int(p[j] * scale) for p in ps.points] for j in range(dim)]
        assert all(len(set(col)) == len(ps) for col in cols)
        assert cube_scorer()(cols, 0) == 1 << len(ps)


def test_bounded_cube_score_is_exact_at_or_above_its_floor():
    rng = random.Random(1300)
    sets = []
    for dim in (1, 2, 3):
        for n in range(1, 8):
            for k in range(4):
                spread = n // 2 + 1 if k % 2 else 16  # half with tied projections
                sets.append(_random_columns(rng, dim, n, spread))
    calls = []
    for cols in sets:
        score = cube_scorer()(cols, 0)
        for floor in range((1 << len(cols[0])) + 2):
            got = cube_scorer()(cols, floor)
            assert got == score if score >= floor else got < floor, (cols, floor, got)
            calls.append((cols, floor, got))
    # the miss memory of a reused scorer changes no value
    rng.shuffle(calls)
    shared = cube_scorer()
    for cols, floor, got in calls:
        assert shared(cols, floor) == got, (cols, floor)


def test_bounded_cube_score_stops_at_the_miss_that_settles_it(monkeypatch):
    # a seeded plane set that misses one mask, late in increasing mask order
    rng = random.Random(2024)
    missed = []
    while len(missed) != 1 or missed[0] < 9:
        cols = [rng.sample(range(-16, 17), 4) for _ in range(2)]
        ps = PointSet.of(list(zip(*cols)))
        missed = [m for m in range(16) if not carve_feasible(ps, m, cubes(2))]
    runs = carve_module._runs
    calls = []
    monkeypatch.setattr(carve_module, "_runs", lambda *args: calls.append(1) or runs(*args))
    assert cube_scorer()(cols, 0) == 15
    exact = len(calls)
    assert exact == 2 * 10  # both axes of the ten masks that need a test
    del calls[:]
    assert cube_scorer()(cols, 16) < 16
    assert 0 < len(calls) < exact
    # a scorer that has seen the miss decides that one mask first
    scorer = cube_scorer()
    assert scorer(cols, 0) == 15
    del calls[:]
    assert scorer(cols, 16) < 16
    assert len(calls) == 2
    # and keeps it first, per order type, while other order types are scored
    scorer = cube_scorer()
    assert scorer(cols, 0) == 15
    assert scorer([[0, 1, 2], [0, 2, 1]], 0) == 8
    del calls[:]
    assert scorer(cols, 16) < 16
    assert len(calls) == 2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_sieve_misses_exactly_the_masks_no_box_carves(dim):
    rng = random.Random(2100 + dim)
    tied = 0
    for n in range(1, 8):
        full = (1 << n) - 1
        tested = [m for m in range(1, full) if m & (m - 1)]  # not empty, full or a singleton
        for k in range(12):
            spread = n // 2 + 1 if k % 2 else 16  # half with tied projections
            cols = _random_columns(rng, dim, n, spread)
            tied += any(len(set(col)) < n for col in cols)
            axes = [_axis_hulls(prefix_table(col)[1]) for col in cols]
            traces = trace_set(PointSet.of(list(zip(*cols))), boxes(dim))
            missed, carved = _box_sieve(axes, full)
            assert missed == [m for m in tested if m not in traces], cols
            assert [mask for mask, _ in carved] == [m for m in tested if m in traces], cols
            for mask, hulls in carved:
                # per axis: the distinct values below the mask's least, and up to its greatest
                on = [[col[i] for i in range(n) if mask >> i & 1] for col in cols]
                assert list(hulls) == [
                    (sum(v < min(x) for v in set(col)), sum(v <= max(x) for v in set(col)))
                    for col, x in zip(cols, on)
                ]
    if dim > 1:
        assert tied > 20


@pytest.mark.parametrize("rng_range", [0, 1, 2, 16])
def test_move_draw_is_the_choice_over_the_free_values(rng_range):
    span = range(-rng_range, rng_range + 1)
    sizes = sorted({*range(1, min(len(span), 5) + 1), len(span)})  # up to n = 2r + 1
    for n in sizes:
        for seed in range(150):
            others = random.Random(-seed).sample(span, n - 1)
            by_list, by_index = random.Random(seed), random.Random(seed)
            want = by_list.choice([v for v in span if v not in others])
            assert _draw_other(by_index, span, others) == want, (n, seed)
            assert by_index.getstate() == by_list.getstate()


def test_cube_scorer_memo_cleared_at_its_bound_changes_no_score(monkeypatch):
    rng = random.Random(2102)
    stream = []
    for dim in (1, 2, 3):
        for n in range(1, 8):
            for k in range(4):
                cols = _random_columns(rng, dim, n, n // 2 + 1 if k % 2 else 16)
                score = cube_scorer()(cols, 0)
                for floor in {0, score - 1, score, score + 1, 1 << n}:
                    stream.append((cols, floor, score))
    rng.shuffle(stream)
    sieve, bound = carve_module._box_sieve, carve_module.BOX_MEMO_MASKS
    sieved = []
    monkeypatch.setattr(carve_module, "_box_sieve", lambda *args: sieved.append(1) or sieve(*args))
    # at bound 0 each new order type clears the memo first: it holds one
    monkeypatch.setattr(carve_module, "BOX_MEMO_MASKS", 0)
    shared = cube_scorer()
    for cols, floor, score in stream:
        got = shared(cols, floor)
        assert got == score if score >= floor else got == floor - 1, (cols, floor, got)
    # two order types in turn are sieved again each time
    a, b = [[0, 1, 2], [0, 2, 1]], [[0, 1, 2], [1, 0, 2]]
    del sieved[:]
    for cols in (a, b, a, b):
        shared(cols, 0)
    assert len(sieved) == 4
    monkeypatch.setattr(carve_module, "BOX_MEMO_MASKS", bound)
    roomy = cube_scorer()
    del sieved[:]
    for cols in (a, b, a, b):
        roomy(cols, 0)
    assert len(sieved) == 2


def _cube_search_text(*args, **kwargs):
    return canonical_dumps(cube_search_report_to_json(random_cube_search(*args, **kwargs)))


def test_cube_search_report_does_not_depend_on_what_the_threads_scorer_holds(monkeypatch):
    searches = [(2, 4, 300, 2024), (3, 5, 100, 7)]  # the second clears the memo at its bound

    def texts(**kwargs):
        return [_cube_search_text(dim, n, trials, seed=seed, **kwargs)
                for dim, n, trials, seed in searches]

    cold = []
    for dim, n, trials, seed in searches:
        monkeypatch.setattr(search_module, "_scorers", threading.local())
        cold.append(_cube_search_text(dim, n, trials, seed=seed))
    # warmed by a search at another (dim, n), then also by itself
    assert texts() == cold
    assert texts() == cold
    assert texts(jobs=2) == cold
    with monkeypatch.context() as patch:
        # at bound 0 each new order type clears the memo first
        patch.setattr(carve_module, "BOX_MEMO_MASKS", 0)
        assert texts() == cold
    # threads that search at once, switching often, each keep their own scorer:
    # a shared one has its mask lists reordered, and its memo cleared, while
    # another thread reads them
    found = []
    start = threading.Barrier(6)

    def search():
        start.wait(timeout=60)
        found.append(texts())

    threads = [threading.Thread(target=search) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == [cold] * 6


def test_cube_search_repeated_sieves_no_order_type_again(monkeypatch):
    monkeypatch.setattr(search_module, "_scorers", threading.local())
    sieve = carve_module._box_sieve
    sieved = []
    monkeypatch.setattr(carve_module, "_box_sieve", lambda *args: sieved.append(1) or sieve(*args))
    first = _cube_search_text(2, 4, 300, seed=2024)
    assert sieved
    del sieved[:]
    assert _cube_search_text(2, 4, 300, seed=2024) == first
    assert not sieved


def test_cube_search_keeps_no_scorer_whose_axis_tables_exceed_the_bound(monkeypatch):
    monkeypatch.setattr(search_module, "_scorers", threading.local())
    assert 2 << 13 > carve_module.BOX_MEMO_MASKS
    gc.collect()
    tracemalloc.start()
    try:
        random_cube_search(2, 13, 2, seed=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 200_000
    assert not hasattr(search_module._scorers, "score")
