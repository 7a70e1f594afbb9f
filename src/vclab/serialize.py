"""Exact JSON encoding for point sets, concepts, masks, and run reports.

Rationals are encoded as "num/den" strings (plain integers allowed as
shorthand); floats are rejected on input so inexact values can never leak
into the exact core.  Masks are rendered as little-endian bit strings over
the point-file order ("101" selects points 0 and 2); index lists are also
accepted on input.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Union

from .carve import AxisCut, CarveWitness, ClassDescriptor, ClassKind
from .errors import ParseError
from .geometry import Box, Cube, Interval, PointSet
from .scalars import NEG_INF, POS_INF, Scalar, parse_scalar, scalar_str
from .search import (
    CubeSearchReport,
    LevelOutcome,
    MaxCoefficientReport,
    OrderConfig,
    ResolveReport,
    SearchCandidate,
    VcSearchReport,
)
from .shatter import (
    CoefficientReport,
    ShatteringCertificate,
    ShatterVerdict,
    VcLowerBound,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def scalar_to_json(value: Scalar) -> Union[int, str]:
    if isinstance(value, int):
        return value
    return scalar_str(value)


def scalar_from_json(value) -> Scalar:
    if isinstance(value, bool):
        raise ParseError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    raise ParseError(f"expected integer or 'num/den' string, got {value!r}")


def extended_to_json(value) -> Union[int, str]:
    if value is NEG_INF:
        return "-inf"
    if value is POS_INF:
        return "inf"
    return scalar_to_json(value)


def extended_from_json(value):
    if value == "-inf":
        return NEG_INF
    if value in ("inf", "+inf"):
        return POS_INF
    return scalar_from_json(value)


def _reject_float(text: str):
    raise ParseError(
        f"float literal {text!r} not allowed; use integers or 'num/den' strings"
    )


def loads_exact(text: str):
    """json.loads that refuses float and NaN/Infinity literals."""
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from err


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------


def point_set_to_json(ps: PointSet) -> Dict[str, Any]:
    return {
        "dim": ps.dim,
        "points": [[scalar_to_json(c) for c in p] for p in ps.points],
    }


def point_set_from_json(data) -> PointSet:
    if not isinstance(data, dict):
        raise ParseError("point-set file must be a JSON object")
    if "points" not in data:
        raise ParseError("point-set file missing 'points'")
    raw_points = data["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ParseError("'points' must be a nonempty list")
    dim = data.get("dim")
    points = []
    for row in raw_points:
        if not isinstance(row, list):
            raise ParseError("each point must be a list of coordinates")
        points.append(tuple(scalar_from_json(c) for c in row))
    if dim is None:
        dim = len(points[0])
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    for row in points:
        if len(row) != dim:
            raise ParseError(f"point {row!r} does not have dimension {dim}")
    try:
        return PointSet(dim, tuple(points))
    except Exception as err:  # duplicates etc. are file-content errors
        raise ParseError(str(err)) from err


def load_point_set(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        return point_set_from_json(loads_exact(fh.read()))


def save_point_set(path: str, ps: PointSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pretty_dumps(point_set_to_json(ps)) + "\n")


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def format_mask(mask: int, n: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def mask_indices(mask: int, n: int) -> List[int]:
    return [i for i in range(n) if mask >> i & 1]


def parse_mask(text: Union[str, Sequence[int]], n: int) -> int:
    """Accept little-endian bit strings or index lists (JSON/CSV/braced)."""
    if isinstance(text, (list, tuple)):
        indices = list(text)
    else:
        s = str(text).strip()
        if s and all(c in "01" for c in s):
            if len(s) != n:
                raise ParseError(
                    f"bit mask {s!r} has width {len(s)}, expected {n}"
                )
            return sum(1 << i for i, c in enumerate(s) if c == "1")
        s = s.strip("[]{}() ")
        if not s:
            return 0
        try:
            indices = [int(tok) for tok in s.replace(",", " ").split()]
        except ValueError as err:
            raise ParseError(f"cannot parse mask {text!r}") from err
    mask = 0
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
            raise ParseError(f"mask index {i!r} out of range for {n} points")
        mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# concepts
# ---------------------------------------------------------------------------


def interval_to_json(iv: Interval) -> List:
    return [extended_to_json(iv.lo), extended_to_json(iv.hi)]


def interval_from_json(data) -> Interval:
    if not isinstance(data, list) or len(data) != 2:
        raise ParseError("interval must be a [lo, hi] pair")
    return Interval(extended_from_json(data[0]), extended_from_json(data[1]))


def box_to_json(box: Box) -> Dict[str, Any]:
    return {"type": "box", "intervals": [interval_to_json(iv) for iv in box.intervals]}


def _field(data: Dict[str, Any], key: str, kind: type):
    """``data[key]`` if it is a ``kind`` (booleans are never ints), else ParseError."""
    value = data.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        what = "an integer" if kind is int else "a list"
        raise ParseError(f"field {key!r} must be {what}, got {value!r}")
    return value


def box_from_json(data) -> Box:
    if isinstance(data, dict) and data.get("type") == "box":
        data = _field(data, "intervals", list)
    if not isinstance(data, list):
        raise ParseError("expected a box object or a list of intervals")
    return Box(tuple(interval_from_json(iv) for iv in data))


def concept_to_json(concept) -> Dict[str, Any]:
    if isinstance(concept, Box):
        return box_to_json(concept)
    if isinstance(concept, Cube):
        return {
            "type": "cube",
            "center": [scalar_to_json(c) for c in concept.center],
            "radius": scalar_to_json(concept.radius),
        }
    if isinstance(concept, AxisCut):
        return {
            "type": "cut",
            "axis": concept.axis,
            "threshold": scalar_to_json(concept.threshold),
        }
    raise ParseError(f"unknown concept {concept!r}")


def concept_from_json(data):
    if not isinstance(data, dict) or "type" not in data:
        raise ParseError("concept must be an object with a 'type'")
    kind = data["type"]
    if kind == "box":
        return box_from_json(data)
    if kind == "cube":
        return Cube(
            tuple(scalar_from_json(c) for c in _field(data, "center", list)),
            scalar_from_json(data.get("radius")),
        )
    if kind == "cut":
        return AxisCut(_field(data, "axis", int), scalar_from_json(data.get("threshold")))
    raise ParseError(f"unknown concept type {kind!r}")


def descriptor_to_json(descriptor: ClassDescriptor) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": descriptor.kind.value, "dim": descriptor.dim}
    if descriptor.anchor is not None:
        out["anchor"] = box_to_json(descriptor.anchor)
    return out


def descriptor_from_json(data) -> ClassDescriptor:
    if not isinstance(data, dict):
        raise ParseError("class descriptor must be an object")
    try:
        kind = ClassKind(data["kind"])
    except (KeyError, ValueError) as err:
        raise ParseError(f"unknown class kind {data.get('kind')!r}") from err
    anchor = box_from_json(data["anchor"]) if "anchor" in data else None
    return ClassDescriptor(kind, _field(data, "dim", int), anchor)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def witness_to_json(w: CarveWitness, n: int) -> Dict[str, Any]:
    return {
        "mask": format_mask(w.mask, n),
        "mask_indices": mask_indices(w.mask, n),
        "concept": concept_to_json(w.concept),
    }


def certificate_to_json(cert: ShatteringCertificate) -> Dict[str, Any]:
    n = len(cert.points)
    return {
        "points": point_set_to_json(cert.points),
        "class": descriptor_to_json(cert.descriptor),
        "witnesses": [witness_to_json(w, n) for w in cert.witnesses],
    }


def verdict_to_json(v: ShatterVerdict) -> Dict[str, Any]:
    n = len(v.points)
    out: Dict[str, Any] = {
        "shattered": v.shattered,
        "n": n,
        "masks_checked": v.masks_checked,
        "failing_mask": None
        if v.failing_mask is None
        else format_mask(v.failing_mask, n),
    }
    if v.certificate is not None:
        out["certificate"] = certificate_to_json(v.certificate)
    return out


def coefficient_to_json(rep: CoefficientReport) -> Dict[str, Any]:
    n = len(rep.points)
    out: Dict[str, Any] = {
        "n": n,
        "realized": rep.realized,
        "total_masks": rep.total_masks,
    }
    if rep.feasible_masks is not None:
        out["feasible_masks"] = [format_mask(m, n) for m in rep.feasible_masks]
    return out


def vc_lower_bound_to_json(rep: VcLowerBound) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "size": rep.size,
        "indices": list(rep.indices),
        "realized_masks_on_full_set": rep.realized,
    }
    if rep.subset is not None:
        out["subset"] = point_set_to_json(rep.subset)
    if rep.certificate is not None:
        out["certificate"] = certificate_to_json(rep.certificate)
    return out


def order_config_to_json(config: OrderConfig) -> Dict[str, Any]:
    return {
        "n": config.n,
        "dim": config.dim,
        "with_origin": config.with_origin,
        "ranks": [list(row) for row in config.ranks],
    }


def level_outcome_to_json(lv: LevelOutcome) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "n": lv.n,
        "shattered": lv.shattered,
        "configs_examined": lv.configs_examined,
        "configs_after_symmetry": lv.configs_after_symmetry,
    }
    if lv.witness is not None:
        out["witness_config"] = order_config_to_json(lv.witness)
    if lv.witness_points is not None:
        out["witness_points"] = point_set_to_json(lv.witness_points)
    return out


def vc_search_report_to_json(rep: VcSearchReport) -> Dict[str, Any]:
    return {
        "kind": rep.kind.value,
        "dim": rep.dim,
        "n_max": rep.n_max,
        "budget": rep.budget,
        "levels": [level_outcome_to_json(lv) for lv in rep.levels],
        "vc_exact": rep.vc_exact,
        "vc_lower_bound": rep.vc_lower_bound,
        "configs_examined": rep.configs_examined,
        "configs_after_symmetry": rep.configs_after_symmetry,
        "assumptions": list(rep.assumptions),
    }


def resolve_report_to_json(rep: ResolveReport) -> Dict[str, Any]:
    return {
        "dim": rep.dim,
        "bracket": list(rep.bracket),
        "definitive": rep.definitive,
        "value": rep.value,
        "within_bracket": rep.within_bracket,
        "search": vc_search_report_to_json(rep.search),
    }


def search_candidate_to_json(cand: SearchCandidate) -> Dict[str, Any]:
    return {
        "points": point_set_to_json(cand.points),
        "score": cand.score,
        "total_masks": cand.total_masks,
        "shattered": cand.shattered,
        "trial": cand.trial,
    }


def cube_search_report_to_json(rep: CubeSearchReport) -> Dict[str, Any]:
    return {
        "dim": rep.dim,
        "n": rep.n,
        "trials": rep.trials,
        "seed": rep.seed,
        "coordinate_range": rep.coordinate_range,
        "evaluations": rep.evaluations,
        "best": [search_candidate_to_json(c) for c in rep.best],
        "shattered_found": [search_candidate_to_json(c) for c in rep.shattered_found],
        "note": rep.note,
    }


def max_coefficient_report_to_json(rep: MaxCoefficientReport) -> Dict[str, Any]:
    return {
        "kind": rep.kind.value,
        "dim": rep.dim,
        "n": rep.n,
        "best_count": rep.best_count,
        "best_config": (
            None if rep.best_config is None else order_config_to_json(rep.best_config)
        ),
        "best_points": (
            None if rep.best_points is None else point_set_to_json(rep.best_points)
        ),
        "configs_examined": rep.configs_examined,
        "configs_after_symmetry": rep.configs_after_symmetry,
    }


# ---------------------------------------------------------------------------
# canonical JSON + digests + run reports
# ---------------------------------------------------------------------------


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def digest(obj) -> str:
    return "sha256:" + hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


_quote = json.encoder.encode_basestring_ascii


def pretty_dumps(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder;
    this writer covers only what reports hold (dicts with ``str`` keys,
    lists, tuples, ``str``, ``int``, ``bool``, ``None`` and finite ``float``
    timings) and appends one piece per key or item to a single list, joined
    once.  Any other value, or a key that is not a ``str``, raises
    ``TypeError``.
    """
    out: List[str] = []
    _pretty(obj, "", "\n", out)
    return "".join(out)


def _pretty(obj, head: str, newline: str, out: List[str]) -> None:
    """Append ``obj`` to ``out``, led by ``head`` (the separator, indent and
    key before it); ``newline`` is the line break plus the current indent."""
    # the type tests run in the order json's encoder runs them
    if isinstance(obj, str):
        out.append(head + _quote(obj))
    elif obj is None:
        out.append(head + "null")
    elif obj is True:
        out.append(head + "true")
    elif obj is False:
        out.append(head + "false")
    elif isinstance(obj, int):
        out.append(head + int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(head + float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append(head + "[]")
            return
        inner = newline + "  "
        head += "[" + inner
        for item in obj:
            _pretty(item, head, inner, out)
            head = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append(head + "{}")
            return
        inner = newline + "  "
        head += "{" + inner
        for key in sorted(obj):  # _quote raises TypeError on a key that is not a str
            _pretty(obj[key], head + _quote(key) + ": ", inner, out)
            head = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def make_report(
    command: str,
    result: Dict[str, Any],
    *,
    descriptor: Optional[ClassDescriptor] = None,
    inputs: Any = None,
    counters: Optional[Dict[str, Any]] = None,
    seed: Optional[int] = None,
    wall_time: Optional[float] = None,
) -> Dict[str, Any]:
    from . import __version__

    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "vclab",
        "version": __version__,
        "command": command,
        "class": descriptor_to_json(descriptor) if descriptor is not None else None,
        "seed": seed,
        "inputs_digest": digest(inputs) if inputs is not None else None,
        "result": result,
        "counters": counters or {},
        "wall_time": wall_time,
    }
