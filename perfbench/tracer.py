"""Outside-in layer tracing for vclab.

Spans are recorded around the calls one module makes into another, by
replacing the importing modules' name bindings with timing wrappers; no file
of the program changes.  The boundaries:

* calls into ``search``, ``shatter``, ``constructions``, ``serialize``,
  ``verify`` and ``cli`` made from another module (or from the benchmark)
  each get a span;
* ``carve``/``carve_feasible`` calls (one per mask) and ``PointSet``
  construction in ``search`` are too frequent for a span each; they are
  aggregated into the enclosing span (calls, seconds, positive outcomes);
* the ``ProcessPoolExecutor`` bindings in ``shatter`` and ``search`` are
  replaced by a proxy that times start-up, waiting and shutdown, as child
  time of the span that drives the pool.  Pool workers are forked from a
  traced process; they restore the original bindings at fork, so only the
  parent process is measured.

A layer's self time is its spans' duration minus the time of their child
spans and aggregated leaves.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from collections import defaultdict
from typing import Dict, List

LAYER_OF_MODULE = {
    "vclab.search": "search",
    "vclab.shatter": "shatter",
    "vclab.constructions": "constructions",
    "vclab.serialize": "serialize",
    "vclab.verify": "verify",
    "vclab.cli": "cli",
}
CARVE_LEAVES = {"carve": "carve.witness", "carve_feasible": "carve.feasible"}
CARVE_KINDS = ("boxes", "boxes-nondegenerate", "cubes", "degenerate", "anchored", "cuts")
VERIFY_ITEMS = (1, 2, 5, 9)

_now = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "child_s", "sub")

    def __init__(self, sid, parent, layer, name):
        self.id = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = _now()
        self.end = None
        self.child_s = 0.0
        # key -> [calls, seconds, positive outcomes] for child layers and leaves
        self.sub: Dict[str, List] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def add(self, key: str, seconds: float, positive: int = 0) -> None:
        row = self.sub.get(key)
        if row is None:
            self.sub[key] = [1, seconds, positive]
        else:
            row[0] += 1
            row[1] += seconds
            row[2] += positive


class Tracer:
    def __init__(self):
        self.records: List[Span] = []
        self.observed: Dict[str, float] = defaultdict(float)
        self.pool = {"started": 0, "tasks": 0, "startup_s": 0.0, "wait_s": 0.0, "shutdown_s": 0.0}
        self._root = Span(0, None, "bench", "outside")
        self._stack: List[Span] = [self._root]
        self._next = 1
        self._patches = []
        os.register_at_fork(after_in_child=self.uninstall)

    # -- spans -------------------------------------------------------------

    def open(self, layer: str, name: str) -> Span:
        span = Span(self._next, self._stack[-1].id, layer, name)
        self._next += 1
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        self._stack.pop()
        parent = self._stack[-1]
        dt = span.seconds
        parent.child_s += dt
        parent.add(span.layer, dt)
        self.records.append(span)

    def _leaf(self, key: str, seconds: float, positive: int, kind: str = None) -> None:
        top = self._stack[-1]
        top.child_s += seconds
        top.add(key, seconds, positive)
        if kind is not None:
            top.add("carve." + kind, seconds)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, layer: str, fn):
        tracer = self
        observe = _OBSERVERS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if observe is not None:
                observe(tracer.observed, result)
            return result

        return wrapper

    def _carve_wrapper(self, key: str, fn):
        leaf = self._leaf

        @functools.wraps(fn)
        def wrapper(ps, mask, descriptor):
            t0 = _now()
            result = fn(ps, mask, descriptor)
            dt = _now() - t0
            ok = result is not None and result is not False
            leaf(key, dt, 1 if ok else 0, descriptor.kind.value)
            return result

        return wrapper

    def install(self, importers) -> None:
        """Wrap every cross-module binding of the given importing modules."""
        from concurrent.futures import ProcessPoolExecutor

        from vclab.geometry import PointSet

        for mod in importers:
            for name, value in list(vars(mod).items()):
                wrapped = None
                if value is ProcessPoolExecutor:
                    wrapped = _pool_class(self, value)
                elif value is PointSet and mod.__name__ == "vclab.search":
                    wrapped = _PointSetProxy(self, value)
                elif isinstance(value, types.FunctionType):
                    home = value.__module__
                    if home == mod.__name__:
                        continue
                    if home == "vclab.carve" and name in CARVE_LEAVES:
                        wrapped = self._carve_wrapper(CARVE_LEAVES[name], value)
                    elif home in LAYER_OF_MODULE:
                        wrapped = self._span_wrapper(LAYER_OF_MODULE[home], value)
                if wrapped is not None:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            mod, name, value = self._patches.pop()
            setattr(mod, name, value)

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics, per traced pass."""
        spans = self.records + [self._root]
        by_layer = defaultdict(list)
        for s in self.records:
            by_layer[s.layer].append(s)

        def self_s(layer):
            return sum(s.seconds - s.child_s for s in by_layer[layer])

        def sub(layer_spans, key, col):
            return sum(s.sub[key][col] for s in layer_spans if key in s.sub)

        search = by_layer["search"]
        shatter = by_layer["shatter"]
        obs = self.observed
        feas_calls = sub(spans, "carve.feasible", 0)
        out = {
            "search.self_s": self_s("search"),
            "search.configs_examined": obs["configs_examined"],
            "search.configs_emitted": obs["configs_emitted"],
            "search.canonical_accept_ratio": _ratio(obs["configs_emitted"], obs["configs_examined"]),
            "search.decide_calls": sum(sub(search, k, 0) for k in ("shatter", "carve.feasible", "carve.witness")),
            "search.decide_s": sum(sub(search, k, 1) for k in ("shatter", "carve.feasible", "carve.witness")),
            "search.cube_evaluations": obs["cube_evaluations"],
            "carve.feasible_calls": feas_calls,
            "carve.feasible_s": sub(spans, "carve.feasible", 1),
            "carve.feasible_ratio": _ratio(sub(spans, "carve.feasible", 2), feas_calls),
            "carve.witness_calls": sub(spans, "carve.witness", 0),
            "carve.witness_s": sub(spans, "carve.witness", 1),
        }
        for kind in CARVE_KINDS:
            out[f"carve.{kind}.busy_s"] = sub(spans, "carve." + kind, 1)
        out.update({
            "shatter.calls": len(shatter),
            "shatter.self_s": self_s("shatter"),
            "shatter.masks_decided": sum(sub(shatter, k, 0) for k in ("carve.feasible", "carve.witness")),
            "shatter.negative_ratio": _ratio(obs["verdicts_negative"], obs["verdicts"]),
            "geometry.pointsets_built": sub(spans, "pointset", 0),
            "geometry.pointset_s": sub(spans, "pointset", 1),
            "constructions.calls": len(by_layer["constructions"]),
            "constructions.self_s": self_s("constructions"),
            "pool.started": self.pool["started"],
            "pool.tasks": self.pool["tasks"],
            "pool.startup_s": self.pool["startup_s"],
            "pool.wait_s": self.pool["wait_s"],
            "pool.shutdown_s": self.pool["shutdown_s"],
            "serialize.calls": len(by_layer["serialize"]),
            "serialize.busy_s": sum(s.seconds for s in by_layer["serialize"]),
            "cli.commands": len(by_layer["cli"]),
            "cli.self_s": self_s("cli"),
        })
        for item in VERIFY_ITEMS:
            out[f"verify.item{item}_s"] = obs[f"item{item}_s"]
        return {k: v / passes for k, v in out.items()}

    def dump(self, path: str) -> None:
        rows = [
            {
                "id": s.id,
                "parent": s.parent,
                "layer": s.layer,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "sub": s.sub,
            }
            for s in self.records
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "pool": self.pool, "observed": self.observed}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counts read from the reports a layer returns ---------------------------


def _observe_search(obs, rep):
    inner = getattr(rep, "search", rep)  # ResolveReport wraps a VcSearchReport
    if hasattr(inner, "configs_examined"):
        obs["configs_examined"] += inner.configs_examined
        obs["configs_emitted"] += inner.configs_after_symmetry
    if hasattr(rep, "evaluations"):
        obs["cube_evaluations"] += rep.evaluations


def _observe_verdict(obs, verdict):
    obs["verdicts"] += 1
    obs["verdicts_negative"] += 0 if verdict.shattered else 1


def _observe_verification(obs, rep):
    for item in rep.items:
        if item.number in VERIFY_ITEMS:
            obs[f"item{item.number}_s"] += item.seconds


_OBSERVERS = {
    "exact_vc_ordinal": _observe_search,
    "resolve_even_degenerate": _observe_search,
    "max_shattering_coefficient": _observe_search,
    "random_cube_search": _observe_search,
    "is_shattered": _observe_verdict,
    "run_verification": _observe_verification,
}


# -- class proxies ------------------------------------------------------------


class _PointSetProxy:
    """Stands in for ``PointSet`` in ``search``, which only calls ``PointSet.of``."""

    def __init__(self, tracer: Tracer, cls):
        self._tracer = tracer
        self._cls = cls

    def of(self, *args, **kwargs):
        t0 = _now()
        ps = self._cls.of(*args, **kwargs)
        self._tracer._leaf("pointset", _now() - t0, 1)
        return ps

    def __getattr__(self, name):
        return getattr(self._cls, name)


def _pool_class(tracer: Tracer, real):
    stats = tracer.pool

    def spent(key, seconds):
        # pool time is a child of the span that drives the pool
        stats[key] += seconds
        tracer._leaf("pool", seconds, 0)

    class _Future:
        def __init__(self, fut):
            self._fut = fut

        def result(self, timeout=None):
            t0 = _now()
            try:
                return self._fut.result(timeout)
            finally:
                spent("wait_s", _now() - t0)

        def __getattr__(self, name):
            return getattr(self._fut, name)

    class TracedPool:
        """Times start-up (construction plus the first submission, which
        starts the workers), waiting on results, and shutdown."""

        def __init__(self, *args, **kwargs):
            t0 = _now()
            self._pool = real(*args, **kwargs)
            self._fresh = True
            stats["started"] += 1
            spent("startup_s", _now() - t0)

        def _submitted(self, t0, tasks):
            if self._fresh:
                spent("startup_s", _now() - t0)
                self._fresh = False
            stats["tasks"] += tasks

        def submit(self, fn, *args, **kwargs):
            t0 = _now()
            fut = self._pool.submit(fn, *args, **kwargs)
            self._submitted(t0, 1)
            return _Future(fut)

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            t0 = _now()
            results = self._pool.map(fn, *iterables, **kwargs)
            self._submitted(t0, min(len(it) for it in iterables))

            def waited():
                it = iter(results)
                while True:
                    t0 = _now()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        spent("wait_s", _now() - t0)
                    yield value

            return waited()

        def shutdown(self, *args, **kwargs):
            t0 = _now()
            try:
                self._pool.shutdown(*args, **kwargs)
            finally:
                spent("shutdown_s", _now() - t0)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown(wait=True)
            return False

    return TracedPool
