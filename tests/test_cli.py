"""End-to-end CLI behavior: exit codes, report schema, determinism."""

import concurrent.futures
import hashlib
import importlib
import json
import os
import shlex
import sys

import pytest

from vclab import PointSet, load_point_set, origin_ball_witness, save_point_set
from vclab.cli import _default_jobs, main
from vclab.errors import DomainError
from vclab.serialize import canonical_dumps, concept_from_json


@pytest.fixture()
def points_file(tmp_path):
    def write(name, pts, dim=None):
        path = tmp_path / name
        ps = PointSet.of(pts, dim=dim) if dim else PointSet.of(pts)
        save_point_set(str(path), ps)
        return str(path)

    return write


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return rc, report, captured.err


# ---------------------------------------------------------------------------
# carve
# ---------------------------------------------------------------------------


def test_carve_feasible_witness_revalidates(capsys, points_file):
    path = points_file("w.json", [(-1, 1), (1, -1), (2, 1)])
    rc, rep, _ = run(capsys, ["carve", "--class", "d0", "--points", path, "--mask", "101"])
    assert rc == 0
    assert rep["schema_version"] == 1
    assert rep["result"]["feasible"] is True
    concept = concept_from_json(rep["result"]["witness"]["concept"])
    pts = [(-1, 1), (1, -1), (2, 1)]
    assert [concept.contains(p) for p in pts] == [True, False, True]


def test_carve_infeasible_exit_3(capsys, points_file):
    path = points_file("line.json", [(0,), (1,), (2,)])
    rc, rep, _ = run(
        capsys, ["carve", "--class", "cubes", "--points", path, "--mask", "[0,2]"]
    )
    assert rc == 3
    assert rep["result"]["feasible"] is False
    assert rep["result"]["witness"] is None


def test_carve_bad_mask_width_exit_1(capsys, points_file):
    path = points_file("line2.json", [(0,), (1,), (2,)])
    rc, rep, err = run(
        capsys, ["carve", "--class", "boxes", "--points", path, "--mask", "1100"]
    )
    assert rc == 1
    assert rep is None
    assert "usage error" in err


def test_carve_missing_file_exit_2(capsys, tmp_path):
    rc, _, err = run(
        capsys,
        ["carve", "--class", "boxes", "--dim", "1", "--points", str(tmp_path / "no.json"), "--mask", "1"],
    )
    assert rc == 2


def test_carve_float_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1, "points": [[0.5]]}')
    rc, _, err = run(
        capsys, ["carve", "--class", "boxes", "--points", str(path), "--mask", "1"]
    )
    assert rc == 2
    assert "input error" in err or "i/o error" in err


@pytest.mark.parametrize(
    "anchor", ['{"type":"box"}', '{"type":"box","intervals":5}', "[[1,0]]", "[]"]
)
def test_malformed_anchor_is_a_usage_error(capsys, points_file, anchor):
    path = points_file("pair.json", [(0, 0), (1, 1)])
    argv = ["carve", "--class", "anchored", "--anchor", anchor, "--points", path, "--mask", "10"]
    rc, rep, err = run(capsys, argv)
    assert rc == 1
    assert rep is None
    assert "usage error: bad --anchor" in err


def test_boolean_dim_in_point_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"dim": true, "points": [[0], [1]]}')
    rc, rep, err = run(capsys, ["carve", "--class", "boxes", "--points", str(path), "--mask", "10"])
    assert rc == 2
    assert rep is None
    assert "input error" in err


def test_duplicate_point_in_point_file_exit_2(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text('{"dim": 1, "points": [[0], [1], [0]]}')
    rc, rep, err = run(capsys, ["carve", "--class", "boxes", "--points", str(path), "--mask", "101"])
    assert rc == 2
    assert rep is None
    assert "input error: duplicate points rejected" in err


def test_dim_mismatch_exit_1(capsys, points_file):
    path = points_file("two.json", [(0, 0)])
    rc, _, err = run(
        capsys,
        ["carve", "--class", "boxes", "--dim", "3", "--points", path, "--mask", "1"],
    )
    assert rc == 1


def test_unknown_command_exit_1(capsys):
    rc, _, _ = run(capsys, ["frobnicate"])
    assert rc == 1


def test_no_command_prints_help_exit_1(capsys):
    rc, _, err = run(capsys, [])
    assert rc == 1
    assert "COMMAND" in err


# ---------------------------------------------------------------------------
# shatter / vcdim / coeff
# ---------------------------------------------------------------------------


def test_shatter_witness_set(capsys, points_file):
    path = points_file("w2.json", [(-1, 1), (1, -1), (2, 1)])
    rc, rep, _ = run(capsys, ["shatter", "--class", "d0", "--points", path])
    assert rc == 0
    assert rep["result"]["shattered"] is True
    assert len(rep["result"]["certificate"]["witnesses"]) == 8


def test_shatter_no_certificate_builds_no_witness(capsys, monkeypatch, points_file):
    path = points_file("w3.json", [(-1, 1), (1, -1), (2, 1)])
    argv = ["shatter", "--class", "d0", "--points", path]
    _, full, _ = run(capsys, argv)

    def no_witness(*args, **kwargs):
        raise AssertionError("--no-certificate built a witness")

    # the string "vclab.carve" would resolve to the carve function, not the module
    monkeypatch.setattr(sys.modules["vclab.carve"], "_checked", no_witness)
    rc, rep, _ = run(capsys, argv + ["--no-certificate"])
    assert rc == 0
    assert "certificate" not in rep["result"]
    del full["result"]["certificate"]
    assert rep["result"] == full["result"]


def test_shatter_negative_exit_3(capsys, points_file):
    path = points_file("line3.json", [(0,), (1,), (2,)])
    rc, rep, _ = run(capsys, ["shatter", "--class", "boxes", "--points", path])
    assert rc == 3
    assert rep["result"]["shattered"] is False
    assert rep["result"]["failing_mask"] == "101"


def test_vcdim_single_point_any_class(capsys, points_file):
    path = points_file("one.json", [(3, 4)])
    for klass in ("boxes", "cubes", "degenerate", "d0"):
        rc, rep, _ = run(capsys, ["vcdim", "--class", klass, "--points", path])
        assert rc == 0
        assert rep["result"]["size"] == 1


def test_coeff_counts_and_masks(capsys, points_file):
    path = points_file("line4.json", [(0,), (1,), (2,)])
    rc, rep, _ = run(capsys, ["coeff", "--class", "boxes", "--points", path, "--masks"])
    assert rc == 0
    assert rep["result"]["realized"] == 7
    assert rep["result"]["total_masks"] == 8
    assert "101" not in rep["result"]["feasible_masks"]


def test_cap_exceeded_exit_4(capsys, points_file):
    path = points_file("line5.json", [(0,), (1,), (2,)])
    rc, _, err = run(
        capsys, ["shatter", "--class", "boxes", "--points", path, "--cap", "2"]
    )
    assert rc == 4
    assert "cap" in err.lower()


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def test_witness_cubes_d3(capsys, tmp_path):
    out = tmp_path / "w3.json"
    rc, rep, _ = run(
        capsys,
        ["witness", "--kind", "cubes", "--dim", "3", "--points-out", str(out)],
    )
    assert rc == 0
    assert rep["result"]["size"] == 5
    assert rep["result"]["verified"] is True
    assert len(load_point_set(str(out))) == 5


def test_witness_d0_d6_size(capsys):
    rc, rep, _ = run(capsys, ["witness", "--kind", "d0", "--dim", "6", "--no-verify"])
    assert rc == 0
    assert rep["result"]["size"] == 9
    assert "certificate" not in rep["result"]


def test_witness_d0_generates_at_d16_without_verification(capsys):
    rc, rep, _ = run(capsys, ["witness", "--kind", "d0", "--dim", "16", "--no-verify"])
    assert rc == 0
    assert rep["result"]["size"] == 24


def test_witness_d1_single_point(capsys):
    rc, rep, _ = run(capsys, ["witness", "--kind", "d0", "--dim", "1"])
    assert rc == 0
    assert rep["result"]["size"] == 1


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def test_ordinal_vc_boxes_d2(capsys):
    rc, rep, _ = run(capsys, ["ordinal-vc", "--class", "boxes", "--dim", "2"])
    assert rc == 0
    assert rep["result"]["vc_exact"] == 4


def test_ordinal_vc_cuts_d2(capsys):
    rc, rep, _ = run(capsys, ["ordinal-vc", "--class", "cuts", "--dim", "2"])
    assert rc == 0
    assert rep["result"]["vc_exact"] == 2


@pytest.mark.parametrize("dim,vc", [(1, 2), (2, 4)])
def test_ordinal_vc_boxes_nondegenerate(capsys, dim, vc):
    argv = ["ordinal-vc", "--class", "boxes-nondegenerate", "--dim", str(dim)]
    rc, rep, _ = run(capsys, argv)
    assert rc == 0
    assert rep["result"]["vc_exact"] == vc
    assert rep["class"]["kind"] == rep["result"]["kind"] == "boxes-nondegenerate"


def test_ordinal_vc_rejects_anchored_token(capsys):
    rc, _, err = run(capsys, ["ordinal-vc", "--class", "anchored", "--dim", "2"])
    assert rc == 1
    argv = ["ordinal-vc", "--class", "boxes", "--dim", "1", "--anchor", "[[0,1]]"]
    rc, rep, err = run(capsys, argv)
    assert rc == 1
    assert rep is None
    assert "--anchor is only valid with --class anchored" in err


def test_ordinal_vc_budget_exit_5_with_partial(capsys):
    rc, rep, err = run(
        capsys, ["ordinal-vc", "--class", "boxes", "--dim", "2", "--budget", "40"]
    )
    assert rc == 5
    assert rep["result"]["budget_exceeded"] is True
    assert rep["result"]["partial"]["vc_exact"] is None
    assert "budget" in err.lower()


def test_ordinal_vc_degenerate_d2_scans_as_deep_as_the_resolver(capsys):
    # one level past the published upper bound 4, so the scan settles the value
    rc, rep, _ = run(capsys, ["ordinal-vc", "--class", "degenerate", "--dim", "2"])
    assert rc == 0
    assert rep["result"]["n_max"] == 5
    assert rep["result"]["vc_exact"] == 3


def test_resolve_d2(capsys):
    rc, rep, _ = run(capsys, ["resolve-d2"])
    assert rc == 0
    assert rep["result"]["definitive"] is True
    assert rep["result"]["value"] == 3


@pytest.mark.parametrize("dim", ["1", "3"])
def test_resolve_d2_odd_dim_is_a_usage_error(capsys, dim):
    rc, rep, err = run(capsys, ["resolve-d2", "--dim", dim])
    assert rc == 1
    assert rep is None
    assert "usage error" in err and "even" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ordinal-vc", "--class", "cubes", "--dim", "2"],
        ["search-cubes", "--dim", "1", "--n", "4", "--trials", "1", "--range", "1"],
    ],
    ids=["ordinal-vc", "search-cubes"],
)
def test_a_value_refused_by_a_flag_only_command_is_a_usage_error(capsys, argv):
    rc, rep, err = run(capsys, argv)
    assert rc == 1
    assert rep is None
    assert "usage error" in err


def test_mask_scans_run_in_process_and_ignore_jobs(capsys, monkeypatch, points_file):
    def no_pool(*args, **kwargs):
        raise RuntimeError("mask scans must not start a process pool")

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", no_pool)
    cases = [
        ("d0", "witness.json", origin_ball_witness(4).points, 0),  # 6 points
        ("boxes", "line.json", [(i,) for i in range(6)], 3),  # not shattered
    ]
    for klass, name, pts, shatter_rc in cases:
        path = points_file(name, pts)
        for command in ("shatter", "coeff", "vcdim"):
            argv = [command, "--class", klass, "--points", path]
            rc1, rep1, _ = run(capsys, argv + ["--jobs", "1"])
            rc2, rep2, _ = run(capsys, argv + ["--jobs", "2"])
            assert rc1 == rc2 == (shatter_rc if command == "shatter" else 0)
            assert rep1["result"] == rep2["result"]


def test_default_jobs_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert _default_jobs() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _default_jobs() == 64


def test_search_cubes_deterministic_and_jobs_independent(capsys):
    argv = ["search-cubes", "--dim", "2", "--n", "4", "--trials", "150", "--seed", "9"]
    rc1, rep1, _ = run(capsys, argv)
    rc2, rep2, _ = run(capsys, argv + ["--jobs", "2"])
    assert rc1 == rc2 == 0
    assert rep1["result"] == rep2["result"]
    assert rep1["seed"] == 9
    assert rep1["result"]["note"]


def test_search_cubes_too_many_points_exit_4(capsys):
    argv = ["search-cubes", "--dim", "2", "--n", "21", "--trials", "1"]
    rc, rep, err = run(capsys, argv)
    assert rc == 4 and rep is None
    assert "cap" in err.lower()


def test_out_mirrors_stdout(capsys, tmp_path, points_file):
    path = points_file("line6.json", [(0,), (1,)])
    out = tmp_path / "report.json"
    rc, rep, _ = run(
        capsys,
        ["coeff", "--class", "boxes", "--points", path, "--out", str(out)],
    )
    assert rc == 0
    assert json.loads(out.read_text()) == rep


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def test_verify_paper_fast_passes(capsys):
    rc, rep, err = run(capsys, ["verify-paper", "--level", "fast"])
    assert rc == 0
    assert rep["result"]["all_passed"] is True
    names = [item["name"] for item in rep["result"]["items"]]
    assert len(names) == 4
    assert "PASS" in err
    assert "wall_time" not in json.dumps(rep["result"])


def test_verify_paper_level_validated(capsys):
    rc, _, _ = run(capsys, ["verify-paper", "--level", "turbo"])
    assert rc == 1


@pytest.mark.parametrize("level", ["fast", "full"])
@pytest.mark.parametrize("jobs", [0, -1, True, 2.0, "2", None])
def test_verification_refuses_bad_jobs_before_any_item(monkeypatch, level, jobs):
    verify = importlib.import_module("vclab.verify")
    ran = []
    items = [(n, name, budget, lambda ctx, n=n: ran.append(n) or (True, {}))
             for n, name, budget, _ in verify.ITEMS]
    monkeypatch.setattr(verify, "ITEMS", items)
    with pytest.raises(DomainError, match="jobs"):
        verify.run_verification(level, jobs=jobs)
    assert ran == []
    assert verify.run_verification(level, jobs=1).all_passed
    assert ran == [n for n, *_ in items if level == "full" or n in verify.FAST_ITEMS]


@pytest.mark.parametrize("level", ["turbo", None, 1, "FULL"])
def test_verification_refuses_an_unknown_level_with_a_domain_error(monkeypatch, level):
    verify = importlib.import_module("vclab.verify")
    ran = []
    items = [(n, name, budget, lambda ctx, n=n: ran.append(n) or (True, {}))
             for n, name, budget, _ in verify.ITEMS]
    monkeypatch.setattr(verify, "ITEMS", items)
    with pytest.raises(DomainError, match="level"):
        verify.run_verification(level, jobs=1)
    assert ran == []


@pytest.mark.parametrize("dim", [-3, 0, True, 2.0, "2", None])
def test_paper_vc_refuses_a_dimension_that_is_not_a_positive_int(dim):
    verify = importlib.import_module("vclab.verify")
    for kind in verify.ClassKind:
        with pytest.raises(DomainError, match="dimension"):
            verify.class_paper_vc(kind, dim)


@pytest.mark.parametrize("kind", ["cubes", None, 3])
def test_paper_vc_refuses_a_kind_that_is_not_a_class_kind(kind):
    verify = importlib.import_module("vclab.verify")
    with pytest.raises(DomainError, match="kind"):
        verify.class_paper_vc(kind, 2)
    assert verify.class_paper_vc(verify.ClassKind.CUBES, 3) == 5


# ---------------------------------------------------------------------------
# pinned report bytes
# ---------------------------------------------------------------------------

PINNED_POINTS = {
    "w": [(-1, 1), (1, -1), (2, 1)],
    "line": [(0,), (1,), (2,)],
}

# (command line with {w}/{line} for point files, exit code, sha256 of the report
# without wall_time; verify-paper also drops its per-item timing counters)
PINNED_RUNS = {
    "carve-feasible": (
        "carve --class d0 --points {w} --mask 101",
        0,
        "c544335ea38c7ba30e541833b41de8bc6dbbcfd44db1e706ea3a74e4ce2c9c4a",
    ),
    "carve-anchored": (
        "carve --class anchored --anchor '[[\"-1/2\", 0], [0, \"1/3\"]]' --points {w} --mask [0]",
        0,
        "9b534246225de7ce2a0cde8421a647c3758c2f14c9ab5495e55550cd191858c9",
    ),
    "carve-infeasible": (
        "carve --class cubes --points {line} --mask [0,2]",
        3,
        "d3e37a6052507106813aefbc77eaa42b252b3a1fb1cfa1bbfc5b7cac30347d5e",
    ),
    "shatter": (
        "shatter --class d0 --points {w}",
        0,
        "15b77d3e756e170a2b03d6c02e344da4c80bca4ff6fdab96baebaecebd441d51",
    ),
    "vcdim": (
        "vcdim --class cubes --points {w}",
        0,
        "50510f87f87739f2c26708a54ce71516547901422fa0aa5cee243d8f95ba90c1",
    ),
    "coeff": (
        "coeff --class boxes --points {line} --masks",
        0,
        "26d026e23efb91458b0f28531ecdfb580d514002cab80e7003cde92a883a5bba",
    ),
    "witness": (
        "witness --kind d0 --dim 3",
        0,
        "756d01760dd643a7fb15c213ca917870127e6ff52572ac6f831572862e92d922",
    ),
    "ordinal-vc": (
        "ordinal-vc --class cuts --dim 2",
        0,
        "16f12055158a8b2166a016307f59d142e642add200256641d3bd6911c66f967e",
    ),
    "ordinal-vc-budget": (
        "ordinal-vc --class boxes --dim 2 --budget 40",
        5,
        "49bfda79c30f8dec96853fbe8346e9dbf8e625b6a49e1a3fb80efa17c38de035",
    ),
    "resolve-d2": (
        "resolve-d2",
        0,
        "5abe754365dfc3ce8e873abefaea27854f2f516ae65bb5555ab2409f58625c4b",
    ),
    "search-cubes": (
        "search-cubes --dim 2 --n 3 --trials 30 --seed 5 --jobs 1",
        0,
        "ceb582346baff3badf11aef86f2edd6f63ade2b9efe9bf82783d8f4c5f2beb71",
    ),
    "verify-paper": (
        "verify-paper --level fast",
        0,
        "06e6382d7ccd98711e654b7511a3c33d64da71594e1bb3e703466c6ce17a7fc1",
    ),
}


# every pinned command line, and one report without a certificate; each
# report must print as json.dumps with indent=2 and sorted keys prints it
WRITER_RUNS = {name: pinned[0] for name, pinned in PINNED_RUNS.items()}
WRITER_RUNS["shatter-no-certificate"] = "shatter --class d0 --points {w} --no-certificate"


@pytest.mark.parametrize("name", sorted(WRITER_RUNS))
def test_report_text_is_json_dumps_with_two_space_indent(name, capsys, points_file):
    paths = {key: points_file(f"{key}.json", pts) for key, pts in PINNED_POINTS.items()}
    template = WRITER_RUNS[name]
    argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in shlex.split(template)]
    main(argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_cli_report_bytes_are_pinned(name, capsys, monkeypatch, points_file, tmp_path):
    template, want_rc, want_digest = PINNED_RUNS[name]
    paths = {key: points_file(f"{key}.json", pts) for key, pts in PINNED_POINTS.items()}
    argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in shlex.split(template)]
    out = tmp_path / "report.json"
    argv += ["--out", str(out)]
    if name == "witness":
        saved = []

        def save_after_emit(path, ps):
            assert out.exists(), "--points-out is written after the report"
            saved.append(path)
            save_point_set(path, ps)

        monkeypatch.setattr("vclab.cli.save_point_set", save_after_emit)
        argv += ["--points-out", str(tmp_path / "pts.json")]
    rc, rep, _ = run(capsys, argv)
    assert rc == want_rc
    assert json.loads(out.read_text()) == rep
    if name == "witness":
        assert len(load_point_set(saved[0])) == rep["result"]["size"]
    del rep["wall_time"]
    if name == "verify-paper":
        del rep["counters"]
    assert hashlib.sha256(canonical_dumps(rep).encode()).hexdigest() == want_digest
