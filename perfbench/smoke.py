#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the root of a vclab checkout:

    python3 perfbench/smoke.py

Checks that each run exits 0 with ``correct`` true and nothing failed, that
the last line carries every metric BENCHMARK.json declares with its unit, and
that the report line carries ``failed_ratio`` = 0 and the workload's own
throughput name.  Also checks that each workload at full size builds as many
ops as ``pinned.json`` pins digests for, and that the benchmark refuses to
run, with a nonzero exit and no result line, where the program's sources are
missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
THROUGHPUT = {
    "ordinal-exhaust": "configs_per_s",
    "cube-search": "trials_per_s",
    "certify": "masks_per_s",
    "cli-jobs": "commands_per_s",
}


def run(workload, trace, cwd):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def pin_count_problems(root, workloads):
    """Full-size op counts at the pinned seed against the pinned digests."""
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    from run import DEFAULT_SEED, WORKLOADS, load_pins

    pins = load_pins()
    problems = []
    if pins["seed"] != DEFAULT_SEED:
        problems.append(f"pins are for seed {pins['seed']}, not {DEFAULT_SEED}")
    for name in workloads:
        mod = __import__(WORKLOADS[name])
        with tempfile.TemporaryDirectory(dir=os.path.join(root, ".perfbench_out")) as workdir:
            ops = len(mod.setup(DEFAULT_SEED, "full", workdir))
        pinned = len(pins["workloads"].get(name, {}).get("ops", []))
        if ops != pinned:
            problems.append(f"{name}: {ops} ops at full size, {pinned} pinned digests")
        else:
            print(f"ok   {name}: {ops} ops pinned")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
    problems = pin_count_problems(root, [wl["name"] for wl in spec["workloads"]])
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(name, trace, root)
            where = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{where}: metric {m['name']} [{m['unit']}] missing or wrong: {got}")
            extra = set(result["metrics"]) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            named = report["metrics"]
            if named.get("failed_ratio") != {"unit": "ratio", "value": 0.0}:
                problems.append(f"{where}: failed_ratio {named.get('failed_ratio')}")
            if named.get(THROUGHPUT[name], {}).get("unit") != "1/s":
                problems.append(f"{where}: {THROUGHPUT[name]} missing")
            print(f"ok   {where}: {result['attempted']} ops")

    # Without the program's sources the benchmark must fail and print no result.
    bare = os.path.join(root, ".perfbench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        proc = run("cube-search", 0, bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print("ok   without src/: refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
