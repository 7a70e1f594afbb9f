"""The experiment scripts run against the current library API."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_witness_gallery_verifies_small_dimensions(capsys):
    gallery = load_script("witness_gallery")
    assert gallery.main(["--max-dim", "3", "--verify-up-to", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    assert all(row.split()[3] == row.split()[5] == "yes" for row in rows)


def test_cube_search_experiment_tiny_sweep(capsys):
    sweep = load_script("cube_search_experiment")
    assert sweep.main(["--sizes", "3", "--trials", "20", "--seed", "1"]) == 0
    assert "note:" in capsys.readouterr().out


def test_vc_table_default_config():
    table = load_script("vc_table")
    cfg = table.parse_args([])
    assert cfg.budget is None and cfg.out is None
    assert len(cfg.cells) == 11
