#!/usr/bin/env python3
"""Benchmark of the vclab exact engine.

Run from the root of a vclab checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ordinal-exhaust, cube-search, certify, cli-jobs (see README.md).
Each run sets the workload up several times (import plus input generation)
and reports the median, then repeats timed passes over the same seeded ops
until ``--seconds`` is used up (at least one whole pass; after the first,
short ops are called several times in a row and the last pass may stop
early); an op's latency is its median over its
calls, scaled to nominal machine speed (``speed.py``), and op_p50_s and
op_p90_s are Harrell-Davis quantiles over the ops.
Every op's output is checked after the passes, outside the timed region, and
at the default seed against the digests pinned in ``pinned.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and the last line
carries the per-layer metrics.  The line before it is a JSON report with
provenance, sample counts and the workload's own metric names.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from speed import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {
    "ordinal-exhaust": "wl_ordinal",
    "cube-search": "wl_cube",
    "certify": "wl_certify",
    "cli-jobs": "wl_cli",
}
DEFAULT_SEED = 2024
SETUP_REPEATS = 41
# after the first pass an op is called up to MAX_REPS times in a row, as many
# as fit in REP_TARGET_S
REP_TARGET_S = 0.1
MAX_REPS = 8
# Beta shapes below this make the Harrell-Davis weights singular at an end
HD_MIN_SHAPE = 2.0
OUT_DIR = ".perfbench_out"
PINS = os.path.join(HERE, "pinned.json")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _purge(modname: str) -> None:
    for name in list(sys.modules):
        if name == "vclab" or name.startswith("vclab.") or name == modname:
            del sys.modules[name]


def set_up(modname, seed, size, workdir):
    """Import the program and generate the inputs, several times; keep the last."""
    built = []

    def once():
        mod = importlib.import_module(modname)
        built[:] = [mod, mod.setup(seed, size, workdir)]

    with Speedometer(ticks=False) as speed:
        for _ in range(SETUP_REPEATS):
            _purge(modname)
            gc.collect()  # so the purged modules are not collected inside a timed round
            speed.time(once)
    mod, ops = built
    return mod, ops, speed


def run_pass(ops, reps, meter, deadline=None, cost=None):
    """Run op ``i`` ``reps[i]`` times in a row, timed by the Speedometer that
    ``meter()`` makes; one latency sample per call.  With a ``deadline``, stop
    before the first op whose calls, expected to take ``cost[i]`` seconds,
    would end after it."""
    calls, outputs = [], []
    t0 = time.perf_counter()
    with meter() as speed:
        for i, op in enumerate(ops):
            if deadline is not None and time.perf_counter() + cost[i] > deadline:
                break
            for _ in range(reps[i]):
                try:
                    out = op.keep(speed.time(op.run))
                except Exception as err:  # an op that raises counts as failed
                    out = err
                    traceback.print_exc()
                calls.append(i)
                outputs.append(out)
    return {
        "calls": calls,
        "seconds": time.perf_counter() - t0,
        "raw": speed.raw,
        "latencies": speed.scaled(),
        "reference_s": speed.reference_median(),
        "reference_nominal_s": speed.nominal,
        "reference_per_call_s": speed.reference_cost_s / len(speed.slots),
        "outputs": outputs,
        # read after every pass, but reported from the first only, so the
        # figure does not depend on how many passes fit in the time
        "peak_rss_mb": peak_rss_mb(),
    }


def repeats(first_pass):
    """Calls per op in the passes after the first: short ops are repeated up
    to REP_TARGET_S of work, since they set op_p50_s and cost little."""
    return [max(1, min(MAX_REPS, int(REP_TARGET_S / x))) for x in first_pass["raw"]]


def run_passes(ops, seconds, passes, meter, repeat=True):
    """Timed passes over the ops for ``seconds``; the first calls every op
    once and always runs to the end.

    With ``repeat``, later passes call the short ops several times in a row
    and the last one stops at the first op that would overrun ``seconds``.
    Without it, whole passes follow while one more fits (traced runs, whose
    per-layer figures are per pass).
    """
    deadline = time.perf_counter() + seconds
    passes.append(run_pass(ops, [1] * len(ops), meter))
    if not repeat:
        while time.perf_counter() + passes[-1]["seconds"] <= deadline:
            passes.append(run_pass(ops, [1] * len(ops), meter))
        return
    reps = repeats(passes[0])
    # each call also times the reference
    per_call = passes[0]["reference_per_call_s"]
    cost = [r * (x + per_call) for r, x in zip(reps, passes[0]["raw"])]
    while True:
        p = run_pass(ops, reps, meter, deadline, cost)
        if p["calls"]:
            passes.append(p)
        if len(p["calls"]) < sum(reps):
            return


def per_op_latency(passes, key="latencies"):
    """Each op's median latency over all its calls: robust to a slow spell
    that hits one pass."""
    samples = [[] for _ in passes[0]["calls"]]
    for p in passes:
        for i, x in zip(p["calls"], p[key]):
            samples[i].append(x)
    return [statistics.median(xs) for xs in samples]


def quantile(xs, q):
    """Harrell-Davis estimate of the ``q`` quantile of ``xs``.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution, so the estimate does not jump
    when noise swaps the op at rank q*n for a neighbour whose latency is far
    off (the latencies of a workload's ops come in clusters).  With few ops
    the Beta density is singular at an end; there the inclusive sample
    quantile is used.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if a < HD_MIN_SHAPE or b < HD_MIN_SHAPE:
        if n == 1:
            return xs[0]
        return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Simpson's rule on each interval [i/n, (i+1)/n]
    steps = 16
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        ys = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def check_op(op, out, full):
    """(digest, work units, error or None); ``full`` also runs the op's check."""
    if isinstance(out, Exception):
        return None, 0, f"raised {type(out).__name__}: {out}"
    try:
        err = op.check(out) if full else None
        return op.digest(out), op.work(out), err
    except Exception as exc:
        return None, 0, f"check raised {type(exc).__name__}: {exc}"


def commit_of(root):
    """Commit id from .git without starting a process; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "vclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=23.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small ops per workload, for the smoke test")
    p.add_argument("--write-pins", action="store_true",
                   help="record this run's digests as the pinned ones (default seed, full size)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.write_pins and (args.seed != DEFAULT_SEED or args.size != "full"):
        p.error(f"--write-pins needs --seed {DEFAULT_SEED} and --size full")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vclab", "__init__.py")):
        print("perfbench: src/vclab not found; run from the root of a vclab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(root, OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, root, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root, src, workdir):
    modname = WORKLOADS[args.workload]
    mod, ops, setup = set_up(modname, args.seed, args.size, workdir)

    plain, traced = [], []
    tracer = None
    forked = getattr(mod, "FORKED_REFERENCE", False)
    meter = functools.partial(Speedometer, True, forked)
    if args.trace:
        from tracer import Tracer

        run_passes(ops, args.seconds / 2, plain, meter)
        tracer = Tracer()
        tracer.install([sys.modules[m] for m in (
            "vclab.search", "vclab.shatter", "vclab.constructions", "vclab.verify", "vclab.cli", modname,
        ) if m in sys.modules])
        try:
            # no kernel ticks inside spans
            run_passes(ops, args.seconds / 2, traced, functools.partial(Speedometer, False, forked),
                       repeat=False)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(root, OUT_DIR, f"trace-{args.workload}.json"))
    else:
        run_passes(ops, args.seconds, plain, meter)

    # -- correctness, outside the timed region ------------------------------
    pins = load_pins()
    pinned = None
    if args.size == "full" and args.seed == pins["seed"]:
        pinned = pins["workloads"].get(args.workload)
    attempted = failed = work = 0
    failures = []
    digests = []
    pin_error = None
    if pinned is not None and len(pinned["ops"]) != len(ops):
        # the pins are stale: no op can be matched to its pinned digest
        pin_error = f"{len(pinned['ops'])} pinned digests for {len(ops)} ops"
    # The first pass calls every op once and is checked in full; later calls
    # ran the same inputs and must reproduce its digests.
    for k, p in enumerate(plain + traced):
        for i, out in zip(p["calls"], p["outputs"]):
            op = ops[i]
            digest, units, err = check_op(op, out, full=k == 0)
            if k == 0:
                digests.append(digest)
                work += units
                if err is None and pinned is not None and not args.write_pins:
                    if pin_error is not None:
                        err = pin_error
                    elif digest != pinned["ops"][i]:
                        err = "digest differs from the pinned one"
            elif err is None and digest != digests[i]:
                err = "output differs between calls"
            attempted += 1
            if err is not None:
                failed += 1
                failures.append(f"{op.label}: {err}")
    workload_digest = hashlib.sha256(json.dumps(digests).encode()).hexdigest()
    if args.write_pins:
        if failed:
            print("perfbench: not pinning a run with failures", file=sys.stderr)
        else:
            pins["workloads"][args.workload] = {"digest": workload_digest, "ops": digests}
            with open(PINS, "w", encoding="utf-8") as fh:
                json.dump(pins, fh, indent=1, sort_keys=True)
                fh.write("\n")
    for line in failures[:20]:
        print("FAILED " + line, file=sys.stderr)

    # -- metrics --------------------------------------------------------------
    def timings(latencies, setup):
        wall = sum(latencies)
        return {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "work_per_s": work / wall,
            "op_p50_s": quantile(latencies, 0.5),
            "op_p90_s": quantile(latencies, 0.9),
        }

    named = timings(per_op_latency(plain), setup.scaled())
    named["peak_rss_mb"] = plain[0]["peak_rss_mb"]
    named[f"{mod.WORK_UNIT}_per_s"] = named["work_per_s"]
    named["failed_ratio"] = failed / attempted
    raw = timings(per_op_latency(plain, "raw"), setup.raw)
    if tracer is not None:
        # spans are raw seconds, so the per-layer metrics stay unscaled
        layers = tracer.metrics(len(traced))
        traced_wall = sum(per_op_latency(traced, "raw"))
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - raw["wall_s"]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": named[k], "unit": u} for k, u in END_TO_END.items()}
    units = dict(END_TO_END, failed_ratio="ratio")
    units[f"{mod.WORK_UNIT}_per_s"] = "1/s"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "provenance": {
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": commit_of(root),
            "source_sha256": source_digest(src),
            "machine": platform.machine(),
        },
        "samples": {
            "setup_repeats": len(setup.raw),
            "ops_per_pass": len(ops),
            "untraced_passes": len(plain),
            "untraced_calls": sum(len(p["calls"]) for p in plain),
            "traced_passes": len(traced),
        },
        "result_digest": workload_digest,
        "pinned_digest": None if pinned is None else pinned["digest"],
        "metrics": {k: {"value": named[k], "unit": u} for k, u in units.items()},
        "raw_seconds": raw,
        "reference_s": {
            "forked": forked,
            "median": statistics.median(p["reference_s"] for p in plain),
            "nominal": plain[0]["reference_nominal_s"],
        },
    }
    correct = failed == 0
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
