"""cli-jobs: in-process ``vclab.cli.main`` calls at the default ``--jobs``.

``--jobs`` is the number of usable cores (``os.sched_getaffinity``), which is
what the CLI defaults to on an unrestricted machine.  This is the only
workload that reaches pool start-up and transfer, argument parsing, report
building and digests; one change to the pool layer can speed up one command
(``search-cubes``) and slow another (the mask-level ``shatter``/``coeff``/
``vcdim``).  Point files are seeded rational images of the witnesses, written
at set-up.  Each distinct command is replayed once at ``--jobs 1`` after the
timed pass, and its ``result`` digest must match: results must not depend on
``--jobs``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from vclab.cli import main
from vclab.constructions import cube_witness, origin_ball_witness
from vclab.serialize import save_point_set
from vclab.geometry import PointSet

from common import Op, interior_point, rand_fraction, rand_positive, scale_translate, sha

WORK_UNIT = "commands"
# Most of a short command is process-pool start-up and shutdown, whose speed
# varies more on a shared VM than CPU speed does: scale by the forked
# reference (speed.py)
FORKED_REFERENCE = True
JOBS = len(os.sched_getaffinity(0))
SEARCH_TRIALS = 200
# dimensions of the cube-witness files (c*), origin-witness files (o*) and
# of the origin witnesses built by the ``witness`` command
DIMS = {"full": ((3, 4, 5, 6), (3, 4, 5, 6), (4, 5, 6, 7)), "tiny": ((3,), (4,), (4,))}


def _write(workdir, name, points) -> str:
    path = os.path.join(workdir, name + ".json")
    save_point_set(path, PointSet.of(points))
    return path


def _commands(rng, size, workdir):
    """(argv, expected exit code, expectation on the result, copies per pass)."""
    cube_dims, origin_dims, d0_witness_dims = DIMS[size]
    cmds = []
    for d in cube_dims:
        n = (3 * d + 1) // 2
        s = rand_positive(rng)
        pts = scale_translate(
            cube_witness(d).points, [s] * d, [rand_fraction(rng, -20, 20, 6) for _ in range(d)]
        )
        base = _write(workdir, f"c{d}", pts)
        sup = _write(workdir, f"cs{d}", pts + [interior_point(rng, pts)])
        cmds += [
            (["shatter", "--class", "cubes", "--points", base], 0, ("shattered", True)),
            (["shatter", "--class", "cubes", "--points", sup], 3, ("shattered", False)),
            (["coeff", "--class", "boxes", "--points", base], 0, ("realized", 1 << n)),
            (["coeff", "--class", "cubes", "--points", sup], 0, ("realized_below", 1 << (n + 1))),
            (["vcdim", "--class", "boxes", "--points", base], 0, ("size", n)),
            (["witness", "--kind", "cubes", "--dim", str(d)], 0, ("size", n)),
        ]
    for d in origin_dims:
        n = 3 * d // 2
        pts = scale_translate(
            origin_ball_witness(d).points, [rand_positive(rng) for _ in range(d)], [0] * d
        )
        base = _write(workdir, f"o{d}", pts)
        sup = _write(workdir, f"os{d}", pts + [interior_point(rng, pts)])
        cmds += [
            (["shatter", "--class", "d0", "--points", base], 0, ("shattered", True)),
            (["shatter", "--class", "d0", "--points", sup], 3, ("shattered", False)),
            (["coeff", "--class", "degenerate", "--points", base], 0, ("realized", 1 << n)),
            (["vcdim", "--class", "degenerate", "--points", base], 0, ("size", n)),
            (["vcdim", "--class", "d0", "--points", base], 0, ("size", n)),
        ]
    for d in d0_witness_dims:
        cmds.append((["witness", "--kind", "d0", "--dim", str(d)], 0, ("size", 3 * d // 2)))
    cmds = [(argv, code, want, 2) for argv, code, want in cmds]
    cmds.append((["ordinal-vc", "--class", "boxes", "--dim", "2"], 0, ("vc_exact", 4), 2))
    if size == "full":
        for _ in range(2):
            seed = str(rng.randrange(1 << 30))
            argv = ["search-cubes", "--dim", "2", "--n", "4", "--trials", str(SEARCH_TRIALS), "--seed", seed]
            cmds.append((argv, 0, ("shattered_found", []), 1))
        cmds.append((["verify-paper", "--level", "fast"], 0, ("all_passed", True), 1))
    return cmds


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


CHECKED_FIELDS = ("shattered", "realized", "size", "verified", "vc_exact", "shattered_found", "all_passed")


def _keep(out):
    """(exit code, digest of ``result``, the fields the checks read)."""
    code, text = out
    result = json.loads(text)["result"]
    return code, sha([code, result]), {k: result[k] for k in CHECKED_FIELDS if k in result}


def _make_op(argv, code, want, replays):
    key, value = want
    timed_argv = argv + ["--jobs", str(JOBS)]

    def check(out):
        got_code, digest, result = out
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if key == "realized_below":
            ok = value // 2 <= result["realized"] < value
        else:
            ok = result[key] == value
        if not ok:
            return f"{key}: {result.get(key, result.get('realized'))!r}, expected {value!r}"
        if key == "size" and argv[0] == "witness" and result.get("verified") is not True:
            return "witness not verified"
        argv_key = tuple(argv)
        if argv_key not in replays:
            replays[argv_key] = _keep(call(argv + ["--jobs", "1"]))[1]
        if replays[argv_key] != digest:
            return "result differs at --jobs 1"
        return None

    return Op(
        " ".join(timed_argv),
        run=lambda: call(timed_argv),
        check=check,
        digest=lambda out: out[1],
        work=lambda out: 1,
        keep=_keep,
    )


def setup(seed: int, size: str, workdir: str):
    rng = random.Random(seed)
    replays = {}
    ops = []
    for argv, code, want, copies in _commands(rng, size, workdir):
        ops += [_make_op(argv, code, want, replays) for _ in range(copies)]
    rng.shuffle(ops)
    return ops
