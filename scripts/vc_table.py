#!/usr/bin/env python3
"""Compute the exact-VC table for the order-driven classes by exhaustion.

Every value is recomputed from scratch (no frozen constants): for each class
and dimension the script enumerates order types level by level until a level
has no shattered configuration, prints the proven value, and shows how much
the symmetry reduction saved.  The even-dimension degenerate-ball resolution
is included because the bracket for it is the one genuinely open value at
small scale.

Usage:
    python3 scripts/vc_table.py [--budget N] [--out table.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from vclab import (
    ClassKind,
    exact_vc_ordinal,
    resolve_even_degenerate,
)
from vclab.serialize import vc_search_report_to_json


@dataclass
class TableConfig:
    """Which (class, dimension) cells to compute and how hard to try."""

    cells: List[Tuple[ClassKind, int]] = field(
        default_factory=lambda: [
            (ClassKind.ANCHORED_DEGENERATE_BALLS, 1),
            (ClassKind.ANCHORED_DEGENERATE_BALLS, 2),
            (ClassKind.BOXES, 1),
            (ClassKind.BOXES, 2),
            (ClassKind.AXIS_CUTS, 1),
            (ClassKind.AXIS_CUTS, 2),
            (ClassKind.AXIS_CUTS, 3),
            (ClassKind.CUBES, 1),
            (ClassKind.DEGENERATE_BALLS, 1),
            (ClassKind.DEGENERATE_BALLS, 2),
            (ClassKind.DEGENERATE_BALLS, 3),
        ]
    )
    resolve_even_dims: List[int] = field(default_factory=lambda: [2])
    budget: Optional[int] = None
    out: Optional[str] = None


def parse_args(argv=None) -> TableConfig:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--out", default=None)
    ns = ap.parse_args(argv)
    return TableConfig(budget=ns.budget, out=ns.out)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    rows = []
    print(f"{'class':<12} {'dim':>3} {'VC':>3} {'examined':>10} {'canonical':>10} {'secs':>7}")
    for kind, dim in cfg.cells:
        start = time.monotonic()
        rep = exact_vc_ordinal(kind, dim, budget=cfg.budget)
        secs = time.monotonic() - start
        print(
            f"{kind.value:<12} {dim:>3} {rep.vc_exact:>3} "
            f"{rep.configs_examined:>10} {rep.configs_after_symmetry:>10} {secs:>7.2f}"
        )
        rows.append(
            {
                "kind": kind.value,
                "dim": dim,
                "report": vc_search_report_to_json(rep),
            }
        )
    for dim in cfg.resolve_even_dims:
        start = time.monotonic()
        res = resolve_even_degenerate(dim, budget=cfg.budget)
        secs = time.monotonic() - start
        print(
            f"{'degenerate':<12} {dim:>3} {res.value:>3} "
            f"{res.search.configs_examined:>10} {res.search.configs_after_symmetry:>10} {secs:>7.2f}"
            f"   (resolved from bracket {list(res.bracket)})"
        )
        rows.append(
            {
                "kind": "degenerate-resolved",
                "dim": dim,
                "value": res.value,
                "bracket": list(res.bracket),
                "definitive": res.definitive,
            }
        )
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        print(f"wrote {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
