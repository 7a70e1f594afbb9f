"""Per-interval reference for the interval oracle's axis traces.

Independent of how ``vclab.oracles`` builds its masks: for every candidate
``(lo, hi)`` on the oracle's endpoint grid (plus the infinite ends), it
filters the interval by its class and anchor and then tests every
coordinate for membership.
"""

from vclab.carve import ClassKind
from vclab.oracles import _axis_grid
from vclab.scalars import NEG_INF, POS_INF


def axis_traces(coords, kind, anchor_iv):
    grid = _axis_grid(coords, anchor_iv)
    lows = [NEG_INF] + grid
    highs = grid + [POS_INF]
    traces = set()
    for lo in lows:
        for hi in highs:
            if lo is not NEG_INF and hi is not POS_INF:
                if lo > hi:
                    continue
                if kind is ClassKind.BOXES_NONDEGENERATE and lo == hi:
                    continue
                if kind in (
                    ClassKind.DEGENERATE_BALLS,
                    ClassKind.ANCHORED_DEGENERATE_BALLS,
                ):
                    continue  # both sides bounded: not a degenerate factor
            if anchor_iv is not None:
                if not (lo <= anchor_iv.lo and anchor_iv.hi <= hi):
                    continue
            m = 0
            for i, c in enumerate(coords):
                if lo <= c <= hi:
                    m |= 1 << i
            traces.add(m)
    return traces
