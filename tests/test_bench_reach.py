"""The benchmark workloads in ``perfbench/`` still reach the library.

Each workload is built at its tiny size and every op runs once through its
own ``run``, ``keep`` and ``check``, so deleting a name or keyword that a
workload calls (``jobs=1``, say) fails here and not only in a benchmark run.
The point files the workloads write go to the test's temporary directory.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("workload", ["wl_ordinal", "wl_cube", "wl_certify", "wl_cli"])
def test_every_benchmark_op_runs_and_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    mod = importlib.import_module(workload)
    ops = mod.setup(7, "tiny", str(tmp_path))
    assert ops
    for op in ops:
        out = op.keep(op.run())
        assert op.check(out) is None, op.label
        assert isinstance(op.digest(out), str)
        assert op.work(out) >= 0
