#!/usr/bin/env python3
"""Emit the witness constructions for a range of dimensions, with receipts.

For each dimension the script writes the origin-anchored and cube witness
point sets as JSON files, verifies shattering up to a configurable dimension
(beyond it only generation is attempted — verification is exponential in the
witness size), and prints the extremal statistics that drive the matching
upper-bound argument: every origin-anchored witness must be fully extremal
with at most d once-attained representatives.

Usage:
    python3 scripts/witness_gallery.py [--max-dim 8] [--verify-up-to 5]
        [--out-dir witnesses/]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

from vclab import (
    cube_witness,
    cubes,
    extremal_certificate,
    is_shattered,
    origin_anchored,
    origin_ball_witness,
    save_point_set,
)


@dataclass
class GalleryConfig:
    max_dim: int = 8
    verify_up_to: int = 5
    out_dir: Optional[str] = None


def parse_args(argv=None) -> GalleryConfig:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-dim", type=int, default=8)
    ap.add_argument("--verify-up-to", type=int, default=5)
    ap.add_argument("--out-dir", default=None)
    ns = ap.parse_args(argv)
    return GalleryConfig(
        max_dim=ns.max_dim,
        verify_up_to=ns.verify_up_to,
        out_dir=ns.out_dir,
    )


def main(argv=None) -> int:
    cfg = parse_args(argv)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    print(
        f"{'d':>3} {'anchored n':>10} {'cube n':>7} {'verified':>9} "
        f"{'k':>3} {'2n<=2d+k':>9} {'secs':>7}"
    )
    for d in range(1, cfg.max_dim + 1):
        start = time.monotonic()
        anchored_w = origin_ball_witness(d)
        cube_w = cube_witness(d)
        verified = "-"
        if d <= cfg.verify_up_to:
            ok_a = is_shattered(anchored_w, origin_anchored(d)).shattered
            ok_c = is_shattered(cube_w, cubes(d)).shattered
            verified = "yes" if ok_a and ok_c else "NO"
        cert = extremal_certificate(anchored_w)
        k = cert.once_count
        bound_ok = 2 * len(anchored_w) <= 2 * d + k and not cert.nonextremal
        secs = time.monotonic() - start
        print(
            f"{d:>3} {len(anchored_w):>10} {len(cube_w):>7} {verified:>9} "
            f"{k:>3} {'yes' if bound_ok else 'NO':>9} {secs:>7.2f}"
        )
        if cfg.out_dir:
            save_point_set(
                os.path.join(cfg.out_dir, f"anchored_d{d}.json"), anchored_w
            )
            save_point_set(os.path.join(cfg.out_dir, f"cubes_d{d}.json"), cube_w)
    if cfg.out_dir:
        print(f"wrote point-set files to {cfg.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
