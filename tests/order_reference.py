"""Brute-force order-type references for the search tests.

Independent of ``vclab.search``: the full canonical form builds every image
of a rank matrix under relabeling points, permuting axes and reflecting
axes, where the search lowers row by row, and the rank realization ranks
coordinates with ``sorted`` on a ``PointSet``.
"""

from itertools import permutations, product

from vclab.geometry import PointSet


def _relabel_sorted(mat):
    order = sorted(range(len(mat[0])), key=lambda i: mat[0][i])
    return tuple(tuple(row[i] for i in order) for row in mat)


def _canonical(mat, m, reflect):
    """The least image of the rank matrix ``mat`` (ranks in 0..m-1) under
    relabeling points, permuting axes and, when ``reflect`` is set,
    reflecting axes (rank r -> m-1-r): every image, each relabeled so that
    its first row ascends."""
    d = len(mat)
    best = None
    for tau in permutations(range(d)):
        for refl in product((False, True), repeat=d) if reflect else [(False,) * d]:
            rows = []
            for new_axis, old_axis in enumerate(tau):
                row = mat[old_axis]
                if refl[new_axis]:
                    row = tuple(m - 1 - v for v in row)
                rows.append(row)
            cand = _relabel_sorted(tuple(rows))
            if best is None or cand < best:
                best = cand
    return best


def transform_ranks(ranks, m, axis_order, reflect, point_order=None):
    """Apply a symmetry group element to a rank matrix with ranks in 0..m-1."""
    rows = []
    for old_axis, refl in zip(axis_order, reflect):
        row = ranks[old_axis]
        if refl:
            row = tuple(m - 1 - v for v in row)
        rows.append(row)
    if point_order is not None:
        rows = [tuple(row[i] for i in point_order) for row in rows]
    return tuple(rows)


def rank_realization(ps, with_origin=False):
    """Replace each coordinate by its per-axis rank (origin included if asked).

    The result is the canonical integer representative of the point set's
    order type; for order-driven classes every carve verdict is preserved.
    """
    cols = []
    for j in range(ps.dim):
        values = {p[j] for p in ps.points}
        if with_origin:
            values.add(0)
        ranking = {v: r for r, v in enumerate(sorted(values))}
        shift = ranking[0] if with_origin else 0
        cols.append({v: r - shift for v, r in ranking.items()})
    pts = [tuple(cols[j][p[j]] for j in range(ps.dim)) for p in ps.points]
    return PointSet.of(pts)
