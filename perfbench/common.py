"""Helpers shared by the workloads: the op record, seeded rational maps, digests."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional


@dataclass
class Op:
    """One timed call into the program.

    ``run`` is the timed call; ``keep`` reduces its output, untimed, to what
    the other callables need (so a long stream does not pile up memory);
    ``check`` runs after the passes and returns an error message or None;
    ``digest`` maps the kept output to the digest pinned for the default
    seed; ``work`` counts the workload's unit of work (configs, trials, masks
    or commands) in it.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    digest: Callable[[Any], str]
    work: Callable[[Any], int]
    keep: Callable[[Any], Any] = lambda out: out


def sha(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rand_fraction(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def scale_translate(points, scales, shift):
    """Per-axis map x -> scale * x + shift; order-preserving when scales > 0."""
    return [
        tuple(s * c + t for c, s, t in zip(p, scales, shift)) for p in points
    ]


def interior_point(rng: random.Random, points) -> tuple:
    """A new point inside the closed bounding box of ``points``.

    Every box that contains all of ``points`` contains it, so no box, cube or
    (anchored) degenerate ball carves "all points but this one": a superset
    with it is not shattered by any of those classes.
    """
    dim = len(points[0])
    existing = set(points)
    while True:
        coords = []
        for j in range(dim):
            lo = min(p[j] for p in points)
            hi = max(p[j] for p in points)
            coords.append(lo + (hi - lo) * Fraction(rng.randint(1, 15), 16))
        cand = tuple(coords)
        if cand not in existing:
            return cand


def in_bounding_box(point, others) -> bool:
    return all(
        min(q[j] for q in others) <= point[j] <= max(q[j] for q in others)
        for j in range(len(point))
    )
