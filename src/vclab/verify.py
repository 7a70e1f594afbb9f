"""Reproduction suite: every headline quantity re-derived at desk scale.

Each item re-computes a claimed value or property with the exact engine and
compares against the expected statement; items 1-4 read theirs from
``class_paper_vc`` (re-exported here).  Items never weaken a check to make it
pass: when a stated expectation contradicts what exhaustive computation
proves, the item fails and its details say exactly what was found instead.

Item 4 is such a case: the expected size-5 lower-bound witness for
unanchored degenerate balls in dimension 3 does not exist — exhausting all
order types at n = 5 (full symmetry reduction, injective projections, which
is lossless for this class) finds no shattered configuration, so the true
value is 4, not 5.  The item reports the refutation rather than inventing a
witness.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Any, Callable, Dict, List, Optional, Tuple

from .carve import (
    ClassDescriptor,
    ClassKind,
    anchored,
    boxes,
    carve_feasible,
    cubes,
    degenerate_balls,
    origin_anchored,
)
from .constructions import (
    collapse_anchor_box,
    collapse_anchor_points,
    cube_downward_projection,
    cube_witness,
    expand_anchor_box,
    extremal_certificate,
    origin_ball_witness,
    perturb_to_injective,
)
from .errors import DomainError, VclabError
from .geometry import Box, Interval, PointSet, project
from .oracles import cube_feasible_unpruned, oracle_feasible
from .scalars import check_int
from .search import class_paper_vc, exact_vc_ordinal, random_cube_search, resolve_even_degenerate
from .shatter import is_shattered, sauer_shelah_bound, shattering_count

FAST_ITEMS = (1, 2, 5, 9)


@dataclass
class SuiteContext:
    # worker processes for item 11's random cube search; other items run in-process
    jobs: int = 1
    # (points, descriptor, published VC value) triples for the growth check
    coefficient_pool: List[Tuple[PointSet, ClassDescriptor, int]] = field(
        default_factory=list
    )
    # configurations verified as shattered by origin-anchored degenerate balls
    anchored_shattered_pool: List[PointSet] = field(default_factory=list)

    def add_coefficient(self, ps: PointSet, desc: ClassDescriptor) -> None:
        self.coefficient_pool.append((ps, desc, class_paper_vc(desc.kind, desc.dim)))


@dataclass(frozen=True)
class ItemResult:
    number: int
    name: str
    passed: bool
    seconds: float
    budget_seconds: Optional[float]
    details: Dict[str, Any]


@dataclass(frozen=True)
class VerificationReport:
    level: str
    items: Tuple[ItemResult, ...]
    all_passed: bool


# ---------------------------------------------------------------------------
# item implementations
# ---------------------------------------------------------------------------


def _item_1_cube_witnesses(ctx: SuiteContext):
    ok = True
    per_d = {}
    for d in range(1, 6):
        want = class_paper_vc(ClassKind.CUBES, d)
        w = cube_witness(d)
        verdict = is_shattered(w, cubes(d))
        good = (
            len(w) == want
            and verdict.shattered
            and verdict.certificate is not None
            and verdict.certificate.validate()
        )
        per_d[str(d)] = {
            "size": len(w),
            "expected_size": want,
            "shattered": verdict.shattered,
            "certificate_witnesses": 0
            if verdict.certificate is None
            else len(verdict.certificate.witnesses),
        }
        ok = ok and good
        ctx.add_coefficient(w, cubes(d))
    return ok, {"per_dimension": per_d}


def _item_2_anchored_witnesses(ctx: SuiteContext):
    ok = True
    per_d = {}
    for d in range(1, 7):
        want = class_paper_vc(ClassKind.ANCHORED_DEGENERATE_BALLS, d)
        w = origin_ball_witness(d)
        verdict = is_shattered(w, origin_anchored(d))
        good = (
            len(w) == want
            and verdict.shattered
            and verdict.certificate is not None
            and verdict.certificate.validate()
        )
        per_d[str(d)] = {
            "size": len(w),
            "expected_size": want,
            "shattered": verdict.shattered,
        }
        ok = ok and good
        ctx.add_coefficient(w, origin_anchored(d))
        if verdict.shattered:
            ctx.anchored_shattered_pool.append(w)
    return ok, {"per_dimension": per_d}


def _item_3_ordinal_vc_table(ctx: SuiteContext):
    cells = [
        (ClassKind.ANCHORED_DEGENERATE_BALLS, 1),
        (ClassKind.ANCHORED_DEGENERATE_BALLS, 2),
        (ClassKind.BOXES, 1),
        (ClassKind.BOXES, 2),
        (ClassKind.AXIS_CUTS, 1),
        (ClassKind.AXIS_CUTS, 2),
        (ClassKind.AXIS_CUTS, 3),
        (ClassKind.CUBES, 1),
    ]
    ok = True
    rows = []
    for kind, dim in cells:
        want = class_paper_vc(kind, dim)
        rep = exact_vc_ordinal(kind, dim)
        rows.append(
            {
                "kind": kind.value,
                "dim": dim,
                "expected": want,
                "computed": rep.vc_exact,
                "configs_examined": rep.configs_examined,
                "configs_after_symmetry": rep.configs_after_symmetry,
            }
        )
        ok = ok and rep.vc_exact == want
        for lv in rep.levels:
            if lv.witness_points is None:
                continue
            if kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
                ctx.add_coefficient(lv.witness_points, origin_anchored(dim))
                ctx.anchored_shattered_pool.append(lv.witness_points)
            else:
                ctx.add_coefficient(lv.witness_points, ClassDescriptor(kind, dim))
    return ok, {"table": rows}


def _item_4_degenerate_dimensions(ctx: SuiteContext):
    details: Dict[str, Any] = {}
    want1 = class_paper_vc(ClassKind.DEGENERATE_BALLS, 1)
    rep1 = exact_vc_ordinal(ClassKind.DEGENERATE_BALLS, 1)
    sub_d1 = rep1.vc_exact == want1
    details["d1"] = {"expected": want1, "computed": rep1.vc_exact}

    size3 = class_paper_vc(ClassKind.DEGENERATE_BALLS, 3)
    rep3 = exact_vc_ordinal(ClassKind.DEGENERATE_BALLS, 3)
    level5 = next((lv for lv in rep3.levels if lv.n == size3), None)
    witness5 = level5 is not None and level5.shattered
    details["d3"] = {
        "expected_witness_size": size3,
        "witness_found": witness5,
        "computed_vc_exact": rep3.vc_exact,
        "n5_configs_examined": 0 if level5 is None else level5.configs_examined,
        "n5_configs_after_symmetry": 0
        if level5 is None
        else level5.configs_after_symmetry,
        "note": (
            "expected a size-5 shattered configuration; exhaustive enumeration "
            "of all order types at n=5 (lossless for this class) finds none, "
            "so the exact value in dimension 3 is 4 and the published size-5 "
            "claim is refuted rather than reproduced"
        )
        if not witness5
        else "size-5 witness found",
    }

    res = resolve_even_degenerate(2)
    sub_d2 = res.definitive and res.within_bracket
    details["d2"] = {
        "bracket": list(res.bracket),
        "definitive": res.definitive,
        "value": res.value,
    }

    for rep, dim in ((rep1, 1), (rep3, 3), (res.search, 2)):
        for lv in rep.levels:
            if lv.witness_points is None:
                continue
            ctx.add_coefficient(lv.witness_points, degenerate_balls(dim))
            anchored_verdict = is_shattered(
                lv.witness_points, origin_anchored(dim), want_certificate=False
            )
            if anchored_verdict.shattered:
                ctx.anchored_shattered_pool.append(lv.witness_points)

    return sub_d1 and witness5 and sub_d2, details


def _item_5_downward_projection(ctx: SuiteContext):
    ok = True
    rows = []
    for d in (2, 3, 4):
        w = cube_witness(d)
        t = perturb_to_injective(w, cubes(d))
        dp = cube_downward_projection(t)
        rows.append(
            {
                "dim": d,
                "dropped_axis": dp.axis,
                "projected_size": len(dp.projected),
                "anchored_shattered": dp.verdict.shattered,
            }
        )
        ok = ok and dp.verdict.shattered
        ctx.add_coefficient(dp.projected, dp.descriptor)
    return ok, {"per_dimension": rows}


def _random_rational(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def _random_anchor(rng: random.Random, dim: int) -> Box:
    ivs = []
    for _ in range(dim):
        a = _random_rational(rng)
        b = a + Fraction(rng.randint(0, 5), rng.choice((1, 2, 3)))
        ivs.append(Interval(a, b))
    return Box(tuple(ivs))


def _contained(concept: Box, ps: PointSet) -> int:
    """The mask of the points of ps that concept contains, point by point."""
    return sum(1 << i for i, p in enumerate(ps.points) if concept.contains(p))


def _item_6_anchor_transport(ctx: SuiteContext):
    rng = random.Random(606)
    instances = 200
    failures = []
    for t in range(instances):
        d = rng.randint(1, 3)
        shift = tuple(_random_rational(rng, 4) for _ in range(d))
        anchor = Box(
            tuple(
                Interval(iv.lo + s, iv.hi + s)
                for iv, s in zip(_random_anchor(rng, d).intervals, shift)
            )
        )
        base = origin_ball_witness(d)
        # lift each base point through the collapse map's canonical section
        lifted = []
        for p in base.points:
            q = []
            for i, c in enumerate(p):
                iv = anchor.intervals[i]
                if c < 0:
                    q.append(iv.lo + c)
                elif c > 0:
                    q.append(iv.hi + c)
                else:
                    w = iv.hi - iv.lo
                    q.append(iv.lo + w * Fraction(rng.randint(0, 4), 4))
            lifted.append(tuple(q))
        ps = PointSet.of(lifted)
        desc = anchored(anchor)
        n = len(ps)
        try:
            collapsed = collapse_anchor_points(anchor, ps)  # refuses a non-injective collapse
            verdict = is_shattered(ps, desc)
            if not verdict.shattered:
                raise VclabError(f"lift not shattered (mask {verdict.failing_mask})")
            collapsed_verdict = is_shattered(collapsed, origin_anchored(d))
            if not collapsed_verdict.shattered:
                raise VclabError(
                    f"collapsed set lost mask {collapsed_verdict.failing_mask}"
                )
            for mask in range(1 << n):
                witness = verdict.certificate.witness_for(mask)
                if _contained(collapse_anchor_box(anchor, witness.concept), collapsed) != mask:
                    raise VclabError(f"image trace changed on mask {mask}")
                w0 = collapsed_verdict.certificate.witness_for(mask)
                if _contained(expand_anchor_box(anchor, w0.concept), ps) != mask:
                    raise VclabError(f"preimage trace changed on mask {mask}")
            ctx.add_coefficient(ps, desc)
        except VclabError as err:
            failures.append({"instance": t, "dim": d, "error": str(err)})
    return not failures, {
        "instances": instances,
        "failures": failures,
    }


def _scale_points(ps: PointSet, factor: Fraction) -> PointSet:
    return PointSet.of([tuple(c * factor for c in p) for p in ps.points])


def _item_7_perturbation(ctx: SuiteContext):
    # A set shattered by boxes: the diamond (each point extremal on one side)
    diamond = PointSet.of([(0, 1), (1, 0), (2, 1), (1, 2)])
    cases: List[Tuple[PointSet, ClassDescriptor]] = []
    k = 0
    while len(cases) < 100:
        scale = Fraction(k % 5 + 1, (k % 3) + 1)
        shift = (Fraction(k, 3), Fraction(-k, 5), Fraction(2 * k + 1, 7))
        family = k % 4
        if family == 0:
            base = cube_witness(2 + k % 2)
            d = base.dim
            ps = _scale_points(base, scale).translate(shift[:d])
            perm = list(permutations(range(d)))[k % math.factorial(d)]
            cases.append((project(ps, perm), cubes(d)))
        elif family == 1:
            base = origin_ball_witness(1 + k % 3)
            d = base.dim
            ps = _scale_points(base, scale)  # anchor at origin: no translation
            perm = list(permutations(range(d)))[k % math.factorial(d)]
            cases.append((project(ps, perm), origin_anchored(d)))
        elif family == 2:
            base = origin_ball_witness(1 + k % 3)
            d = base.dim
            ps = _scale_points(base, scale).translate(shift[:d])
            cases.append((ps, degenerate_balls(d)))
        else:
            ps = _scale_points(diamond, scale).translate(shift[:2])
            cases.append((ps, boxes(2)))
        k += 1
    failures = []
    per_kind: Dict[str, int] = {}
    for idx, (ps, desc) in enumerate(cases):
        per_kind[desc.kind.value] = per_kind.get(desc.kind.value, 0) + 1
        try:
            out = perturb_to_injective(ps, desc)
            if len(out) != len(ps):
                raise VclabError("size changed")
            for j in range(out.dim):
                if len({p[j] for p in out.points}) != len(out):
                    raise VclabError(f"projection {j} not injective")
            verdict = is_shattered(out, desc, want_certificate=False)
            if not verdict.shattered:
                raise VclabError("output not shattered")
            ctx.add_coefficient(out, desc)
        except VclabError as err:
            failures.append({"case": idx, "kind": desc.kind.value, "error": str(err)})
    return not failures, {
        "cases": len(cases),
        "per_kind": per_kind,
        "failures": failures,
    }


def _item_8_extremal_certificates(ctx: SuiteContext):
    pool = ctx.anchored_shattered_pool
    rows = []
    ok = bool(pool)
    for ps in pool:
        cert = extremal_certificate(ps)
        d = ps.dim
        n = len(ps)
        k = cert.once_count
        good = cert.nonextremal == () and k <= d and 2 * n <= 2 * d + k
        rows.append(
            {
                "dim": d,
                "n": n,
                "once_count": k,
                "nonextremal": list(cert.nonextremal),
                "bounds_hold": good,
            }
        )
        ok = ok and good
    return ok, {"pool_size": len(pool), "rows": rows}


def _item_9_oracle_equivalence(ctx: SuiteContext):
    rng = random.Random(909)
    instances = 1000
    per_kind: Dict[str, int] = {}
    mismatches = []
    kinds = ("boxes", "boxes-nondegenerate", "degenerate", "anchored", "cuts", "cubes")
    for t in range(instances):
        d = rng.randint(1, 3)
        n = rng.randint(1, 6)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(_random_rational(rng, 8) for _ in range(d)))
        ps = PointSet.of(sorted(pts))
        mask = rng.randrange(1 << n)
        token = kinds[t % len(kinds)]
        if token == "anchored":
            desc = anchored(_random_anchor(rng, d))
        else:
            desc = ClassDescriptor(ClassKind(token), d)
        got = carve_feasible(ps, mask, desc)
        if token == "cubes":
            want = cube_feasible_unpruned(ps, mask)
        else:
            want = oracle_feasible(ps, mask, desc)
        per_kind[token] = per_kind.get(token, 0) + 1
        if got != want:
            mismatches.append(
                {
                    "instance": t,
                    "kind": token,
                    "dim": d,
                    "mask": mask,
                    "decider": got,
                    "oracle": want,
                }
            )
    return not mismatches, {
        "instances": instances,
        "per_kind": per_kind,
        "mismatches": mismatches,
    }


def _item_10_growth_bound(ctx: SuiteContext):
    checked = 0
    skipped = 0
    violations = []
    for ps, desc, v in ctx.coefficient_pool:
        n = len(ps)
        if n < v:
            skipped += 1
            continue
        rep = shattering_count(ps, desc)
        bound = sauer_shelah_bound(v, n)
        checked += 1
        if rep.realized > bound:
            violations.append(
                {
                    "kind": desc.kind.value,
                    "dim": desc.dim,
                    "n": n,
                    "paper_vc": v,
                    "realized": rep.realized,
                    "bound": f"{bound.numerator}/{bound.denominator}",
                }
            )
    ok = checked > 0 and not violations
    return ok, {
        "pool_size": len(ctx.coefficient_pool),
        "checked": checked,
        "skipped_small_n": skipped,
        "violations": violations,
    }


def _item_11_negative_control(ctx: SuiteContext):
    rep = random_cube_search(2, 4, 100_000, seed=2024, jobs=ctx.jobs)
    found = len(rep.shattered_found)
    best_score = rep.best[0].score if rep.best else None
    return found == 0, {
        "trials": rep.trials,
        "evaluations": rep.evaluations,
        "shattered_found": found,
        "best_score": best_score,
        "total_masks": 16,
        "evidence_only": True,
        "note": rep.note,
    }


ITEMS: Tuple[Tuple[int, str, Optional[float], Callable], ...] = (
    (1, "cube-witness-lower-bounds", 60.0, _item_1_cube_witnesses),
    (2, "anchored-witness-lower-bounds", 60.0, _item_2_anchored_witnesses),
    (3, "exact-ordinal-vc-table", 600.0, _item_3_ordinal_vc_table),
    (4, "degenerate-ball-dimensions", 900.0, _item_4_degenerate_dimensions),
    (5, "cube-downward-projection", 300.0, _item_5_downward_projection),
    (6, "anchor-transport", None, _item_6_anchor_transport),
    (7, "injective-perturbation", None, _item_7_perturbation),
    (8, "extremal-certificates", None, _item_8_extremal_certificates),
    (9, "oracle-equivalence", None, _item_9_oracle_equivalence),
    (10, "growth-bound", None, _item_10_growth_bound),
    (11, "cube-negative-control", None, _item_11_negative_control),
)


def run_verification(level: str = "full", jobs: int = 1) -> VerificationReport:
    if level not in ("fast", "full"):
        raise DomainError(f"level must be 'fast' or 'full', got {level!r}")
    check_int("jobs", jobs, 1)
    ctx = SuiteContext(jobs=jobs)
    results: List[ItemResult] = []
    for number, name, budget, fn in ITEMS:
        if level == "fast" and number not in FAST_ITEMS:
            continue
        start = time.monotonic()
        passed, details = fn(ctx)
        elapsed = time.monotonic() - start
        if budget is not None and elapsed > budget:
            passed = False
            details = dict(details)
            details["budget_exceeded"] = {
                "budget_seconds": budget,
                "elapsed_seconds": round(elapsed, 3),
            }
        results.append(
            ItemResult(
                number=number,
                name=name,
                passed=passed,
                seconds=elapsed,
                budget_seconds=budget,
                details=details,
            )
        )
    return VerificationReport(
        level=level,
        items=tuple(results),
        all_passed=all(r.passed for r in results),
    )
