"""Command-line interface.

Exit-code protocol (stable, for shell harnesses):

* 0 — success (feasible / shattered / all checks passed)
* 1 — usage error (bad flags or --anchor, malformed mask, dimension mismatch)
* 2 — I/O or input-parse error (unreadable file, floats in JSON, bad schema)
* 3 — well-formed but negative verdict (infeasible carve, not shattered)
* 4 — enumeration cap exceeded
* 5 — search budget exceeded (a partial report is still printed)
* 6 — verification suite ran and at least one item failed

Reports are JSON on stdout (optionally mirrored to ``--out``), printed with
two-space indentation and sorted keys: byte-identical to
``json.dumps(report, indent=2, sort_keys=True)``, written by
``serialize.pretty_dumps``.  Result payloads are deterministic for fixed
flags and seed — wall-clock timing lives outside the ``result`` subtree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from .carve import (
    ClassDescriptor,
    ClassKind,
    anchored,
    carve,
    cubes,
    degenerate_balls,
    origin_anchored,
)
from .constructions import cube_witness, origin_ball_witness
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DomainError,
    ParseError,
    VclabError,
)
from .geometry import PointSet
from .search import (
    VcSearchReport,
    exact_vc_ordinal,
    random_cube_search,
    resolve_even_degenerate,
)
from .serialize import (
    box_from_json,
    certificate_to_json,
    coefficient_to_json,
    cube_search_report_to_json,
    descriptor_to_json,
    format_mask,
    load_point_set,
    loads_exact,
    make_report,
    parse_mask,
    point_set_to_json,
    pretty_dumps,
    resolve_report_to_json,
    save_point_set,
    vc_lower_bound_to_json,
    vc_search_report_to_json,
    verdict_to_json,
    witness_to_json,
)
from .shatter import (
    DEFAULT_MASK_CAP,
    is_shattered,
    shattering_count,
    vc_lower_bound_on,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_CAP = 4
EXIT_BUDGET = 5
EXIT_VERIFY_FAILED = 6

CLASS_TOKENS = (
    "boxes",
    "boxes-nondegenerate",
    "cubes",
    "degenerate",
    "d0",
    "anchored",
    "cuts",
)

ORDINAL_TOKENS = ("boxes", "boxes-nondegenerate", "cubes", "degenerate", "d0", "cuts")


class UsageError(Exception):
    """Raised for bad flag combinations; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _default_jobs() -> int:
    env = os.environ.get("VCLAB_JOBS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"VCLAB_JOBS must be an integer, got {env!r}")
        if value < 1:
            raise UsageError("VCLAB_JOBS must be >= 1")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_common(sub: argparse.ArgumentParser, jobs: bool = True) -> None:
    sub.add_argument("--out", metavar="FILE", help="also write the report here")
    if jobs:
        sub.add_argument(
            "--jobs",
            type=_positive_int,
            default=None,
            help=(
                "worker processes for search-cubes and verify-paper; other "
                "commands run in-process and accept it without effect "
                "(default: VCLAB_JOBS or the number of usable CPUs)"
            ),
        )


def _add_class_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--class",
        dest="klass",
        required=True,
        choices=CLASS_TOKENS,
        help="concept class",
    )
    sub.add_argument("--dim", type=_positive_int, default=None, help="ambient dimension")
    sub.add_argument(
        "--anchor",
        default=None,
        metavar="JSON",
        help='anchor box for --class anchored, e.g. "[[0,1],[0,1]]"',
    )


def _resolve_descriptor(args, ps: Optional[PointSet]) -> ClassDescriptor:
    dim = args.dim
    if ps is not None:
        if dim is None:
            dim = ps.dim
        elif dim != ps.dim:
            raise UsageError(
                f"--dim {args.dim} does not match point file dimension {ps.dim}"
            )
    if args.klass == "anchored":
        if args.anchor is None:
            raise UsageError("--class anchored requires --anchor")
        try:
            desc = anchored(box_from_json(loads_exact(args.anchor)))
        except VclabError as err:
            raise UsageError(f"bad --anchor: {err}")
        if dim is not None and desc.dim != dim:
            raise UsageError(f"anchor dimension {desc.dim} does not match dimension {dim}")
        return desc
    if args.anchor is not None:
        raise UsageError("--anchor is only valid with --class anchored")
    if dim is None:
        raise UsageError("--dim is required when it cannot be inferred from a file")
    if args.klass == "d0":
        return origin_anchored(dim)
    return ClassDescriptor(ClassKind(args.klass), dim)


def _jobs(args) -> int:
    return args.jobs if args.jobs is not None else _default_jobs()


@dataclass
class _Parts:
    """What a subcommand hands back; ``_run`` turns it into a report."""

    result: Dict[str, Any]
    ok: bool = True  # False: negative verdict (exit 3, or 6 for verify-paper)
    descriptor: Optional[ClassDescriptor] = None
    inputs: Any = None
    seed: Optional[int] = None
    counters: Optional[Dict[str, Any]] = None
    over_budget: bool = False  # exit 5 with the partial result
    points_out: Optional[Tuple[str, PointSet]] = None  # saved after the report


def _run(args) -> int:
    """Time one subcommand, emit its report, then map its verdict to an exit code."""
    start = time.monotonic()
    parts = args.fn(args)
    report = make_report(
        args.command,
        parts.result,
        descriptor=parts.descriptor,
        inputs=parts.inputs,
        counters=parts.counters,
        seed=parts.seed,
        wall_time=time.monotonic() - start,
    )
    text = pretty_dumps(report)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if parts.points_out is not None:
        save_point_set(*parts.points_out)
    if parts.over_budget:
        return EXIT_BUDGET
    if parts.ok:
        return EXIT_OK
    return EXIT_VERIFY_FAILED if args.command == "verify-paper" else EXIT_INFEASIBLE


def _over_budget(err: BudgetExceededError, desc: ClassDescriptor) -> _Parts:
    print(f"vclab: budget exceeded: {err}", file=sys.stderr)
    result: Dict[str, Any] = {"budget_exceeded": True}
    partial = getattr(err, "report", None)
    if isinstance(partial, VcSearchReport):
        result["partial"] = vc_search_report_to_json(partial)
    return _Parts(result, descriptor=desc, over_budget=True)


def _points_and_class(args):
    """Load --points, resolve the class against them, and the report inputs."""
    ps = load_point_set(args.points)
    desc = _resolve_descriptor(args, ps)
    return ps, desc, {"points": point_set_to_json(ps), "class": descriptor_to_json(desc)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_carve(args) -> _Parts:
    ps, desc, inputs = _points_and_class(args)
    try:
        mask = parse_mask(args.mask, len(ps))
    except ParseError as err:
        raise UsageError(str(err))
    inputs["mask"] = format_mask(mask, len(ps))
    witness = carve(ps, mask, desc)
    result = {
        "feasible": witness is not None,
        "mask": inputs["mask"],
        "witness": None if witness is None else witness_to_json(witness, len(ps)),
    }
    return _Parts(result, witness is not None, desc, inputs)


def cmd_shatter(args) -> _Parts:
    ps, desc, inputs = _points_and_class(args)
    verdict = is_shattered(
        ps, desc, cap=args.cap, want_certificate=not args.no_certificate
    )
    result = verdict_to_json(verdict)
    return _Parts(result, verdict.shattered, desc, inputs)


def cmd_vcdim(args) -> _Parts:
    ps, desc, inputs = _points_and_class(args)
    bound = vc_lower_bound_on(ps, desc, cap=args.cap)
    return _Parts(vc_lower_bound_to_json(bound), True, desc, inputs)


def cmd_coeff(args) -> _Parts:
    ps, desc, inputs = _points_and_class(args)
    rep = shattering_count(ps, desc, cap=args.cap, include_masks=args.masks)
    return _Parts(coefficient_to_json(rep), True, desc, inputs)


def cmd_witness(args) -> _Parts:
    d = args.dim
    if args.kind == "d0":
        ps, desc = origin_ball_witness(d), origin_anchored(d)
    else:
        ps, desc = cube_witness(d), cubes(d)
    result: Dict[str, Any] = {
        "kind": args.kind,
        "dim": d,
        "size": len(ps),
        "points": point_set_to_json(ps),
    }
    shattered = True
    if not args.no_verify:
        verdict = is_shattered(ps, desc, cap=args.cap)
        shattered = result["verified"] = verdict.shattered
        if verdict.certificate is not None:
            result["certificate"] = certificate_to_json(verdict.certificate)
    points_out = (args.points_out, ps) if args.points_out else None
    return _Parts(
        result, shattered, desc, {"kind": args.kind, "dim": d}, points_out=points_out
    )


def cmd_ordinal_vc(args) -> _Parts:
    if args.klass not in ORDINAL_TOKENS:
        raise UsageError(
            f"--class must be one of {', '.join(ORDINAL_TOKENS)} for ordinal-vc"
        )
    desc = _resolve_descriptor(args, None)
    try:
        rep = exact_vc_ordinal(
            desc.kind, args.dim, n_max=args.n_max, budget=args.budget
        )
    except BudgetExceededError as err:
        return _over_budget(err, desc)
    except DomainError as err:  # the command reads only flags
        raise UsageError(str(err))
    inputs = {"class": descriptor_to_json(desc), "n_max": args.n_max}
    return _Parts(vc_search_report_to_json(rep), True, desc, inputs)


def cmd_resolve_d2(args) -> _Parts:
    if args.dim % 2:
        raise UsageError(f"--dim must be even for resolve-d2, got {args.dim}")
    desc = degenerate_balls(args.dim)
    try:
        rep = resolve_even_degenerate(args.dim, n_max=args.n_max, budget=args.budget)
    except BudgetExceededError as err:
        return _over_budget(err, desc)
    inputs = {"dim": args.dim, "n_max": args.n_max}
    return _Parts(resolve_report_to_json(rep), True, desc, inputs)


def cmd_search_cubes(args) -> _Parts:
    try:
        rep = random_cube_search(
            args.dim,
            args.n,
            args.trials,
            seed=args.seed,
            coordinate_range=args.range,
            jobs=_jobs(args),
            keep=args.keep,
        )
    except DomainError as err:  # the command reads only flags
        raise UsageError(str(err))
    inputs = {"dim": args.dim, "n": args.n, "trials": args.trials, "range": args.range}
    return _Parts(
        cube_search_report_to_json(rep), True, cubes(args.dim), inputs, seed=args.seed
    )


def cmd_verify_paper(args) -> _Parts:
    rep = run_verification(level=args.level, jobs=_jobs(args))
    width = max(len(r.name) for r in rep.items)
    for r in rep.items:
        line = (
            f"[{r.number:2d}/11] {'PASS' if r.passed else 'FAIL'} "
            f"{r.name:<{width}}  {r.seconds:8.2f}s"
        )
        print(line, file=sys.stderr)
    print(
        f"verify-paper --level {rep.level}: "
        f"{'ALL PASSED' if rep.all_passed else 'FAILURES PRESENT'}",
        file=sys.stderr,
    )
    result = {
        "level": rep.level,
        "all_passed": rep.all_passed,
        "items": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
            }
            for r in rep.items
        ],
    }
    seconds = {r.name: round(r.seconds, 3) for r in rep.items}
    return _Parts(
        result,
        rep.all_passed,
        inputs={"level": rep.level},
        counters={"seconds_per_item": seconds},
    )


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vclab",
        description="Exact VC analysis of axis-aligned concept classes.",
    )
    subs = parser.add_subparsers(
        dest="command", metavar="COMMAND", parser_class=_Parser
    )

    p = subs.add_parser("carve", help="carve a subset out of a point set")
    _add_class_flags(p)
    p.add_argument("--points", required=True, metavar="FILE")
    p.add_argument("--mask", required=True, help="bit string or index list")
    _add_common(p, jobs=False)
    p.set_defaults(fn=cmd_carve)

    p = subs.add_parser("shatter", help="decide shattering with certificate")
    _add_class_flags(p)
    p.add_argument("--points", required=True, metavar="FILE")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_MASK_CAP)
    p.add_argument(
        "--no-certificate",
        action="store_true",
        help="build no witnesses: report the verdict without a certificate",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_shatter)

    p = subs.add_parser("vcdim", help="largest shattered subset of a point set")
    _add_class_flags(p)
    p.add_argument("--points", required=True, metavar="FILE")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_MASK_CAP)
    _add_common(p)
    p.set_defaults(fn=cmd_vcdim)

    p = subs.add_parser("coeff", help="count realized trace masks")
    _add_class_flags(p)
    p.add_argument("--points", required=True, metavar="FILE")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_MASK_CAP)
    p.add_argument("--masks", action="store_true", help="list feasible masks")
    _add_common(p)
    p.set_defaults(fn=cmd_coeff)

    p = subs.add_parser("witness", help="emit a lower-bound construction")
    p.add_argument("--kind", required=True, choices=("d0", "cubes"))
    p.add_argument("--dim", required=True, type=_positive_int)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_MASK_CAP)
    p.add_argument("--points-out", metavar="FILE")
    _add_common(p)
    p.set_defaults(fn=cmd_witness)

    p = subs.add_parser("ordinal-vc", help="exact VC by exhaustive order-type search")
    _add_class_flags(p)
    p.add_argument("--n-max", type=_positive_int, default=None)
    p.add_argument("--budget", type=_positive_int, default=None, help="max configurations examined")
    _add_common(p)
    p.set_defaults(fn=cmd_ordinal_vc)

    p = subs.add_parser("resolve-d2", help="settle degenerate balls in an even dimension")
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--n-max", type=_positive_int, default=None)
    p.add_argument("--budget", type=_positive_int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_resolve_d2)

    p = subs.add_parser("search-cubes", help="randomized search for shattered cube configurations")
    p.add_argument("--dim", required=True, type=_positive_int)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--trials", required=True, type=_positive_int)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--range", type=_positive_int, default=16)
    p.add_argument("--keep", type=_positive_int, default=3)
    _add_common(p)
    p.set_defaults(fn=cmd_search_cubes)

    p = subs.add_parser("verify-paper", help="run the reproduction suite")
    p.add_argument("--level", choices=("fast", "full"), default="full")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return _run(args)
    except UsageError as err:
        print(f"vclab: usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as err:
        print(f"vclab: budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except CapExceededError as err:
        print(f"vclab: enumeration cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except VclabError as err:
        print(f"vclab: input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
        print(f"vclab: i/o error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
