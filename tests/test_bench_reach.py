"""The benchmark workloads in ``perfbench/`` still reach the library.

Each workload is built at its tiny size and every op runs once through its
own ``run``, ``keep`` and ``check``, so deleting a name or keyword that a
workload calls (``jobs=1``, say) fails here and not only in a benchmark run.
The point files the workloads write go to the test's temporary directory.
The converse holds too: every name the package exports is reached by the
library itself or by a workload.
"""

import ast
import glob
import importlib
import os

import pytest

import vclab

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


def _names_used(path):
    """Every name a module reads, every attribute it reads and every name it
    imports; definitions and strings do not count."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_reached_by_the_library_or_a_workload():
    # a public name that only tests call is surface to delete, not to keep
    src = os.path.join(os.path.dirname(PERFBENCH), "src", "vclab")
    paths = glob.glob(os.path.join(src, "*.py")) + glob.glob(os.path.join(PERFBENCH, "*.py"))
    paths.remove(os.path.join(src, "__init__.py"))
    used = set().union(*map(_names_used, paths))
    assert [name for name in vclab.__all__ if name not in used] == []
