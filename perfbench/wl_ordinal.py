"""ordinal-exhaust: exact VC values by exhausting order types.

The item-3 and item-4 cells of ``verify-paper``, ``resolve_even_degenerate(2)``
and the maximum shattering coefficient of degenerate balls in d=3 at n=5, all
at jobs=1.  About 98% of the time is canonicalization inside ``search``; the
max-coefficient cell decides all 32 masks of every emitted configuration, so
``shatter``/``carve`` also run without early stop.  The work is fixed and
deterministic: the seed is only recorded.

Three ops, grouped as ``verify-paper`` groups them: the item-3 cells, the
item-4 cells with the d=2 resolver, and the max-coefficient cell.
"""

from __future__ import annotations

from vclab.carve import ClassKind
from vclab.search import exact_vc_ordinal, max_shattering_coefficient, resolve_even_degenerate
from vclab.serialize import (
    max_coefficient_report_to_json,
    resolve_report_to_json,
    vc_search_report_to_json,
)

from common import Op, sha

WORK_UNIT = "configs"

# (kind, dim, exact VC value proven by exhaustion): verify item 3, then item 4
ITEM3_CELLS = (
    (ClassKind.ANCHORED_DEGENERATE_BALLS, 1, 1),
    (ClassKind.ANCHORED_DEGENERATE_BALLS, 2, 3),
    (ClassKind.BOXES, 1, 2),
    (ClassKind.BOXES, 2, 4),
    (ClassKind.AXIS_CUTS, 1, 1),
    (ClassKind.AXIS_CUTS, 2, 2),
    (ClassKind.AXIS_CUTS, 3, 3),
    (ClassKind.CUBES, 1, 2),
)
ITEM4_CELLS = (
    (ClassKind.DEGENERATE_BALLS, 1, 2),
    # exhaustion proves 4; the published value is 5
    (ClassKind.DEGENERATE_BALLS, 3, 4),
)
# n=5 counters of the degenerate d=3 search: raw configs / orbit representatives
N5_EXAMINED, N5_EMITTED = 14400, 335
MAX_COEF_BEST = 30


def _check_cell(kind, dim, want, rep):
    if rep.vc_exact != want:
        return f"{kind.value} d={dim}: vc_exact {rep.vc_exact}, expected {want}"
    if kind is ClassKind.DEGENERATE_BALLS and dim == 3:
        lv = next((lv for lv in rep.levels if lv.n == 5), None)
        got = None if lv is None else (lv.configs_examined, lv.configs_after_symmetry)
        if got != (N5_EXAMINED, N5_EMITTED) or lv.shattered:
            return f"degenerate d=3 n=5 counters {got}, expected {(N5_EXAMINED, N5_EMITTED)}"
    return None


def _cells_op(label, cells, resolve):
    """One op over several cells, as one ``verify-paper`` item runs them."""

    def run():
        reps = [exact_vc_ordinal(kind, dim, jobs=1) for kind, dim, _ in cells]
        return reps, resolve_even_degenerate(2, jobs=1) if resolve else None

    def check(out):
        reps, res = out
        for (kind, dim, want), rep in zip(cells, reps):
            err = _check_cell(kind, dim, want, rep)
            if err:
                return err
        return _check_resolve(res) if resolve else None

    def digest(out):
        reps, res = out
        return sha([[vc_search_report_to_json(r) for r in reps], res and resolve_report_to_json(res)])

    def work(out):
        reps, res = out
        return sum(r.configs_examined for r in reps) + (res.search.configs_examined if res else 0)

    return Op(label, run, check, digest, work)


def _check_resolve(rep):
    if not (rep.definitive and rep.value == 3 and rep.within_bracket):
        return f"resolve_even_degenerate(2): value {rep.value}, definitive {rep.definitive}"
    return None


def _check_max_coef(rep):
    got = (rep.best_count, rep.configs_examined, rep.configs_after_symmetry)
    want = (MAX_COEF_BEST, N5_EXAMINED, N5_EMITTED)
    if got != want:
        return f"max coefficient (best, examined, emitted) {got}, expected {want}"
    return None


def setup(seed: int, size: str, workdir: str):
    item4 = ITEM4_CELLS if size == "full" else ITEM4_CELLS[:1]
    ops = [
        _cells_op("item-3 cells", ITEM3_CELLS, resolve=False),
        _cells_op("item-4 cells and resolve_even_degenerate(2)", item4, resolve=True),
    ]
    if size == "full":
        ops.append(
            Op(
                "max_shattering_coefficient(degenerate,3,5)",
                run=lambda: max_shattering_coefficient(ClassKind.DEGENERATE_BALLS, 3, 5, jobs=1),
                check=_check_max_coef,
                digest=lambda rep: sha(max_coefficient_report_to_json(rep)),
                work=lambda rep: rep.configs_examined,
            )
        )
    return ops
