"""cube-search: the cube negative control (verify item 11) at a smaller size.

A stream of ``random_cube_search(dim=2, n=4, trials=T, jobs=1)`` requests,
each with its own seed drawn from the benchmark seed.  About 80% of the time
is the cube decider's feasibility-only path (about 14 ``carve_feasible``
calls per score evaluation, one ``PointSet`` per evaluation); canonicalization
runs only once per candidate when sorting.  Item 11 itself (100 000 trials)
is not touched.
"""

from __future__ import annotations

import random

from vclab.oracles import cube_feasible_unpruned
from vclab.search import random_cube_search
from vclab.serialize import cube_search_report_to_json

from common import Op, sha

WORK_UNIT = "trials"
DIM, N = 2, 4
# (requests, trials per request); about 5 s of work per pass at full size
SIZES = {"full": (100, 15), "tiny": (4, 5)}


def _check(trials):
    def check(rep):
        if rep.shattered_found:
            return f"shattered_found is not empty: {len(rep.shattered_found)}"
        if rep.trials != trials or rep.evaluations < trials:
            return f"trials {rep.trials}, evaluations {rep.evaluations}"
        for cand in rep.best:
            score = sum(cube_feasible_unpruned(cand.points, m) for m in range(1 << N))
            if score != cand.score or cand.shattered:
                return f"trial {cand.trial}: score {cand.score}, oracle {score}"
        return None

    return check


def setup(seed: int, size: str, workdir: str):
    requests, trials = SIZES[size]
    rng = random.Random(seed)
    seeds = rng.sample(range(1 << 30), requests)
    return [
        Op(
            f"random_cube_search(seed={s})",
            run=lambda s=s: random_cube_search(DIM, N, trials, seed=s, jobs=1),
            check=_check(trials),
            digest=lambda rep: sha(cube_search_report_to_json(rep)),
            work=lambda rep: rep.trials,
        )
        for s in seeds
    ]
