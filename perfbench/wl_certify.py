"""certify: the witness-building path, over rationals.

A seeded stream of point sets, each a shattering-preserving rational image of
``cube_witness(d)`` or ``origin_ball_witness(d)`` for d = 2..7, plus the same
images with one more point inside their bounding box (never shattered: no
box-like concept carves "all but that point"; these exercise the early-stop
failure path).  Each set runs ``is_shattered(want_certificate=True)``, the
certificate's ``validate()``, ``shattering_count`` and, on the small sets,
``vc_lower_bound_on`` or ``perturb_to_injective``, all at jobs=1.  ``carve``
builds every concept and ``_checked`` re-validates it; canonicalization and
pools are never reached.

The mix of (class, dimension, superset, extra call) is the same for every
seed, so the amount of work barely depends on the seed; the seed draws the
maps, the anchors, the extra points and the order.
"""

from __future__ import annotations

import random
from fractions import Fraction

from vclab.carve import anchored, boxes, cubes, degenerate_balls, origin_anchored
from vclab.constructions import cube_witness, origin_ball_witness, perturb_to_injective
from vclab.geometry import Box, Cube, Interval, PointSet
from vclab.oracles import cube_feasible_unpruned, trace_set
from vclab.serialize import (
    coefficient_to_json,
    point_set_to_json,
    vc_lower_bound_to_json,
    verdict_to_json,
)
from vclab.shatter import ShatteringCertificate, is_shattered, shattering_count, vc_lower_bound_on

from common import (
    Op,
    in_bounding_box,
    interior_point,
    rand_fraction,
    rand_positive,
    scale_translate,
    sha,
)

WORK_UNIT = "masks"
CLASSES = ("cubes", "boxes", "degenerate", "d0", "anchored")
# Copies of the (class, dimension, superset) grid as (dimensions of the images,
# dimensions of the supersets, extra call); 105 point sets per pass at full size.
COPIES = {
    "full": (
        (range(2, 8), range(2, 7), "vc_lower_bound_on"),
        (range(2, 5), range(2, 5), "perturb_to_injective"),
        (range(2, 4), range(2, 4), None),
    ),
    "tiny": ((range(2, 4), range(2, 4), "vc_lower_bound_on"),),
}

validate_certificate = ShatteringCertificate.validate


def _oracle_size(cls: str) -> int:
    """Largest set the independent oracles check quickly."""
    return 6 if cls == "cubes" else 7


def _image(rng: random.Random, cls: str, d: int):
    """A rational image of a witness that the class still shatters."""
    if cls in ("cubes", "boxes"):
        base = cube_witness(d).points
    else:
        base = origin_ball_witness(d).points
    if cls == "cubes":
        s = rand_positive(rng)
        shift = [rand_fraction(rng, -20, 20, 6) for _ in range(d)]
        return scale_translate(base, [s] * d, shift), cubes(d)
    if cls in ("boxes", "degenerate"):
        scales = [rand_positive(rng) for _ in range(d)]
        shift = [rand_fraction(rng, -20, 20, 6) for _ in range(d)]
        desc = boxes(d) if cls == "boxes" else degenerate_balls(d)
        return scale_translate(base, scales, shift), desc
    if cls == "d0":
        scales = [rand_positive(rng) for _ in range(d)]
        return scale_translate(base, scales, [0] * d), origin_anchored(d)
    # anchored: lift through the anchor-collapse map's section, as verify item 6
    ivs = []
    for _ in range(d):
        lo = rand_fraction(rng, -6, 6, 3)
        ivs.append(Interval(lo, lo + rand_fraction(rng, 0, 5, 3)))
    anchor = Box(tuple(ivs))
    lifted = []
    for p in base:
        q = []
        for iv, c in zip(anchor.intervals, p):
            if c < 0:
                q.append(iv.lo + c)
            elif c > 0:
                q.append(iv.hi + c)
            else:
                q.append(iv.lo + (iv.hi - iv.lo) * Fraction(rng.randint(0, 4), 4))
        lifted.append(tuple(q))
    return lifted, anchored(anchor)


def _in_class(concept, desc) -> bool:
    kind = desc.kind.value
    if kind == "cubes":
        return isinstance(concept, Cube)
    if not isinstance(concept, Box):
        return False
    if kind == "boxes":
        return True
    if not concept.is_degenerate_ball:
        return False
    return desc.anchor is None or concept.contains_box(desc.anchor)


def _certificate_error(points, desc, witnesses):
    """Re-derive every witness's trace by plain membership tests."""
    if len(witnesses) != 1 << len(points):
        return "certificate does not cover every mask"
    for mask, w in enumerate(witnesses):
        trace = 0
        for i, p in enumerate(points):
            if w.concept.contains(p):
                trace |= 1 << i
        if w.mask != mask or trace != mask or not _in_class(w.concept, desc):
            return f"certificate witness for mask {mask} has trace {trace}"
    return None


def _oracle_count(ps: PointSet, desc) -> int:
    if desc.kind.value == "cubes":
        return sum(cube_feasible_unpruned(ps, m) for m in range(1 << len(ps)))
    return len(trace_set(ps, desc))


def _make_op(rng, cls, d, superset, extra):
    points, desc = _image(rng, cls, d)
    if superset:
        points = points + [interior_point(rng, points)]
    ps = PointSet.of(points)
    n = len(ps)
    small = n <= _oracle_size(cls)
    extra = extra if small else None

    def run():
        verdict = is_shattered(ps, desc, want_certificate=True)
        cert_ok = validate_certificate(verdict.certificate) if verdict.shattered else None
        count = shattering_count(ps, desc)
        more = None
        if extra == "vc_lower_bound_on":
            more = vc_lower_bound_on(ps, desc)
        elif extra == "perturb_to_injective":
            more = perturb_to_injective(ps, desc)
        return verdict, cert_ok, count, more

    def check(out):
        verdict, cert_ok, count, more = out
        if verdict.shattered == superset:
            return f"shattered={verdict.shattered}, expected {not superset}"
        if verdict.shattered:
            err = _certificate_error(ps.points, desc, verdict.certificate.witnesses)
            if err or not cert_ok:
                return err or "validate() returned False"
            if count.realized != 1 << n:
                return f"realized {count.realized} on a shattered set"
        elif not in_bounding_box(ps.points[-1], ps.points[:-1]):
            return "the extra point is outside the others' bounding box"
        elif not (1 << (n - 1) <= count.realized < 1 << n):
            return f"realized {count.realized} outside [2^{n - 1}, 2^{n})"
        if small and _oracle_count(ps, desc) != count.realized:
            return f"realized {count.realized} disagrees with the oracle"
        if extra == "vc_lower_bound_on":
            want = n - 1 if superset else n
            if more.size != want:
                return f"vc_lower_bound_on size {more.size}, expected {want}"
            return _certificate_error(more.subset.points, desc, more.certificate.witnesses)
        if extra == "perturb_to_injective":
            moved = more.points
            if len(moved) != n or any(
                len({p[j] for p in moved}) != n for j in range(d)
            ):
                return "perturbed set does not have injective projections"
            if any(abs(a - b) > 1 for p, q in zip(moved, ps.points) for a, b in zip(p, q)):
                return "perturbation moved a coordinate by more than 1"
            if _oracle_count(more, desc) != 1 << n:
                return "perturbed set is not shattered by the oracle"
        return None

    def digest(out):
        verdict, cert_ok, count, more = out
        if extra == "vc_lower_bound_on":
            more = vc_lower_bound_to_json(more)
        elif extra == "perturb_to_injective":
            more = point_set_to_json(more)
        return sha([verdict_to_json(verdict), cert_ok, coefficient_to_json(count), more])

    def work(out):
        verdict, _, count, _ = out
        return verdict.masks_checked + count.total_masks + (1 << n if extra == "vc_lower_bound_on" else 0)

    label = f"{cls} d={d} n={n}{' superset' if superset else ''}{' ' + extra if extra else ''}"
    return Op(label, run, check, digest, work)


def setup(seed: int, size: str, workdir: str):
    rng = random.Random(seed)
    ops = []
    for image_dims, superset_dims, extra in COPIES[size]:
        for cls in CLASSES:
            for d in image_dims:
                ops.append(_make_op(rng, cls, d, False, extra))
            for d in superset_dims:
                # perturbation needs a shattered input
                more = None if extra == "perturb_to_injective" else extra
                ops.append(_make_op(rng, cls, d, True, more))
    rng.shuffle(ops)
    return ops
