"""Exhaustive and randomized searches for shattered configurations.

For every class here except cubes in dimension >= 2, carve feasibility is
invariant under per-axis strictly increasing reparametrizations, so whether
a set is shattered depends only on its order type: the matrix of per-axis
ranks.  Restricting to injective projections loses nothing (a shattered set
can always be perturbed to one with injective projections), so the exact VC
dimension over all of R^d is computed by enumerating rank matrices with
distinct ranks per axis, one representative per symmetry orbit, and
deciding each on its ranks.  The classes are products of intervals, so a
concept's trace is the AND of one trace per axis, each from the list
``carve._factor_traces`` reads off that axis's prefix masks (axis cuts
take the union of the lists instead).  A table filled once per level on a
row's first use (``_RowTraces``) maps a rank row to that list and to its
co-singleton bitmask; a config is shattered iff the OR of its rows'
bitmasks is full and the product of its rows' lists has 2^n masks, and
the size of that product is its shattering coefficient.  No kernel runs
and no ``PointSet`` is built per config; ``realize()`` runs only for a
config a report holds (a shattered witness, a best coefficient).

Symmetries: relabeling points, permuting axes, and reflecting an axis
(rank r -> m-1-r).  Carve verdicts of products of intervals keep under all
three, so the group is fixed by the class: the one choice is ``reflect``,
False only for axis cuts, which are one-sided.  Origin-anchored classes
get an extra phantom entity for the origin, which participates in the
ranking but is pinned to coordinate 0.
A raw rank matrix is kept when it is the least image in its orbit.
``_lower`` decides that by a pruned depth-first search over the images, row
by row (in the spirit of McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998), instead of building all d!*2^d of them: it stops
at the first image row below the matrix's row there and returns it,
writing nothing.  The cube search's order key is the least image itself:
``_order_key`` starts from sentinel rows and writes each row the search
returns until none comes back.  A rank row's own images (itself and, with
reflections, its reflection), each with the getter that relabels points so
that it ascends, come from a table (``_RowImages``) that the enumeration
fills once per level, on a row's first use, so the search neither reflects
nor sorts.

Matrices are generated in an orderly way (Read, "Every one a winner",
Ann. Discrete Math. 2, 1978): row by row, with each proper row prefix
tested by ``_lower`` under the same group on its own axes.  A
prefix that is not least in its orbit has no canonical completion (the
transform that lowers it, applied with the other axes fixed, lowers every
completion), so its whole block of completions is skipped unbuilt.
Before that test, rows 1.. are screened by two conditions that the least
image meets, because a group element that leaves axis 0 alone also keeps
the point labels: rows 1..d-1 ascend, since swapping two of those axes
exchanges their rows, and, with reflections, each is at most its
reflection, since reflecting one of those axes changes that row alone.
A row that breaks either is neither built nor tested.  The count of
examined configs is the raw scan's position, set before each tested
matrix and at a level's end, and a budget refuses the first position past
it, so the skipped configs count, and overrun the budget, as the raw
scan's do.

Cubes in dimension >= 2 are genuinely metric, so they get a seeded random
search with hill climbing instead; absence of a witness there is evidence,
not proof.  A candidate's score is the number of masks ``carve_feasible``
accepts, counted on its integer coordinate columns by ``carve.cube_scorer``.
The scorer sifts the masks through boxes once per order type of the columns
(every cube is a box, so a mask no box carves is a cube miss untested) and
runs the cube kernel's window test (``carve._window``) only on the masks
boxes carve, each with the hulls the sieve found for it.  A hill climb
seldom changes the order type, so most moves reuse the sieve.  Each thread
keeps one scorer (``_scorers``) across calls, so an order type sieved by an
earlier search, at any ``(dim, n)`` whose dim axis tables of 2^n masks fit
``BOX_MEMO_MASKS``, is not sieved again; the scorer clears its memo at that
bound, which caps what it holds over all of them.  A search whose tables exceed the
bound scores with a scorer of its own, dropped when it returns.  The search
asks only whether a score reaches a floor: a hill-climb move is kept only
if it beats the current score, and a first score matters only if the trial
climbs or can enter the local top.  The scorer is exact at or above the
floor and otherwise stops at the miss that settles it, counting the box
misses first and then trying first the masks the order type last missed;
every score a report holds is exact.  A move's new value is drawn by index
among the values its axis leaves free (``_draw_other``), as ``rng.choice``
would draw it from their list, without building the list.

The paper's values are stated once, in ``class_paper_vc``: an exhaustive scan
runs by default to one past the value, and the resolver's bracket reads it.
"""

from __future__ import annotations

import bisect
import math
import random
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import import_module
from itertools import permutations
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .carve import (
    ClassDescriptor,
    ClassKind,
    _factor_traces,
    cube_scorer,
    cubes,
    origin_anchored,
)
from .errors import BudgetExceededError, DomainError
from .geometry import PointSet, prefix_table
from .scalars import check_int
from .shatter import DEFAULT_MASK_CAP, _check_cap, is_shattered

EVIDENCE_NOTE = (
    "randomized search: absence of a shattered configuration is evidence, not proof"
)

# hill-climb moves for a cube-search trial whose score comes within 2 of full
CLIMB_STEPS = 16

# each thread's ``cube_scorer``, made on its first cube-search trials whose
# axis tables fit ``BOX_MEMO_MASKS`` and kept across calls: one is not safe to
# share between threads, since a pass moves masks to the front of the list it
# iterates.  Tests reset it with a fresh ``threading.local()``.
_scorers = threading.local()
# the module, read at call time so that a patched bound holds here too (the
# package's ``carve`` is the function)
_carve = import_module(".carve", __package__)


# ---------------------------------------------------------------------------
# Order types
# ---------------------------------------------------------------------------


def _check_flag(name: str, value) -> None:
    """Refuse a flag that is not a bool (an int or ``None`` included) with
    ``DomainError``."""
    if type(value) is not bool:
        raise DomainError(f"{name} must be a bool, got {value!r}")


def _free_slot(row: Tuple[int, ...]) -> int:
    """The rank in 0..len(row) that a row with an origin slot leaves free."""
    return len(row) * (len(row) + 1) // 2 - sum(row)


@dataclass(frozen=True)
class OrderConfig:
    """Rank matrix: ranks[axis][point] are distinct within an axis.

    With ``with_origin`` one rank slot per axis is reserved for the origin
    (the missing value); realization shifts ranks so the origin lands at 0.
    The scans decide a config on its rank rows alone (``_RowTraces``) and
    realize only a config a report holds.  ``n`` and ``dim`` are ints >= 1,
    as in ``enumerate_order_types``.
    """

    n: int
    dim: int
    with_origin: bool
    ranks: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        check_int("n", self.n, 1)
        check_int("dim", self.dim, 1)
        _check_flag("with_origin", self.with_origin)
        m = self.n + (1 if self.with_origin else 0)
        if len(self.ranks) != self.dim:
            raise DomainError("one rank row per axis required")
        for row in self.ranks:
            if len(row) != self.n or len(set(row)) != self.n:
                raise DomainError("ranks must be distinct per axis")
            if not all(type(v) is int and 0 <= v < m for v in row):
                raise DomainError(f"ranks must be ints in 0..{m - 1}")

    def origin_rank(self, axis: int) -> int:
        """The rank slot left free for the origin: ranks 0..n minus the row's."""
        if not self.with_origin:
            raise DomainError("configuration has no origin slot")
        return _free_slot(self.ranks[axis])

    def realize(self) -> PointSet:
        """Integer realization: coordinate = rank, shifted so origin = 0."""
        shifts = [
            self.origin_rank(axis) if self.with_origin else 0
            for axis in range(self.dim)
        ]
        pts = [
            tuple(self.ranks[axis][i] - shifts[axis] for axis in range(self.dim))
            for i in range(self.n)
        ]
        return PointSet.of(pts)


class _RowImages(dict):
    """Rank row -> its images under the axis group: the row and, when
    ``reflect`` is set, its reflection ``m - 1 - v``, each as ``(image,
    relabel, relabel(image))``, where ``relabel`` is the getter that
    relabels points so that the image ascends (``itemgetter`` of its
    argsort).  Filled on a row's first use and kept for the level."""

    def __init__(self, m: int, reflect: bool):
        super().__init__()
        self.m = m
        self.reflect = reflect

    def __missing__(self, row: Tuple[int, ...]) -> Tuple[tuple, ...]:
        images = (row, tuple(self.m - 1 - v for v in row)) if self.reflect else (row,)
        entry = []
        for img in images:
            order = sorted(range(len(img)), key=img.__getitem__)
            # one index: itemgetter would return an int, not a 1-tuple
            relabel = itemgetter(*order) if len(order) > 1 else tuple
            entry.append((img, relabel, relabel(img)))
        self[row] = entry = tuple(entry)
        return entry


def _lower(
    rows: Sequence[Tuple[int, ...]], images: Sequence[Tuple[tuple, ...]]
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The first image row that lowers ``rows``, or None when ``rows`` is
    the least image of its orbit; ``rows`` is only read.

    ``images[k]`` is the ``_RowImages`` entry of axis k's rank row, and
    ``rows`` bounds the orbit's least image from above: an image, or a
    prefix of one followed by sentinel rows ``(n + 1,)``, which are above
    every rank row of n points (ranks are at most n).  Images are built row
    by row: new axis 0 from one of the (axis, reflection) choices, whose
    getter fixes the point relabeling; then rows 1, 2, ... from the unused
    choices, relabeled by it.  Row tuples compare lexicographically, so a
    row above ``rows[k]`` prunes the branch and only ties descend.  The
    first image row below ``rows[k]`` is returned as ``(k, row)``.  So a
    matrix whose first row ascends is least in its orbit iff ``_lower(mat,
    images)`` is None, and ``_order_key`` finds the least image by writing
    each returned row, with sentinels after it, until None comes back.
    """
    d = len(rows)

    def descend(k: int, free: Tuple[int, ...], permute):
        if k == d:
            return None
        target = rows[k]
        for i, a in enumerate(free):
            rest = free[:i] + free[i + 1:]
            for row, relabel, ascending in images[a]:
                if k:
                    img = permute(row)
                else:
                    img, permute = ascending, relabel
                if img < target:
                    return k, img
                if img == target and (found := descend(k + 1, rest, permute)):
                    return found
        return None

    return descend(0, tuple(range(d)), None)


@dataclass
class EnumerationCounters:
    """``examined``: raw configs a scan of every raw matrix would have
    reached, the ones skipped untested included; ``emitted``: canonical
    configs yielded, one per orbit."""

    examined: int = 0
    emitted: int = 0


def _axis_rows(n: int, with_origin: bool) -> List[Tuple[int, ...]]:
    """Axis-0 rows of the relabel slice: ranks ascending, so every orbit
    meets the slice; with an origin, the origin occupies slot s."""
    if with_origin:
        return [tuple(i if i < s else i + 1 for i in range(n)) for s in range(n + 1)]
    return [tuple(range(n))]


def _enumerate(
    n: int,
    dim: int,
    with_origin: bool,
    reflect: bool,
    counters: EnumerationCounters,
    budget: Optional[int],
    start: int = 0,
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Orderly generation of the canonical rank matrices: they are built
    row by row, and a row prefix that is not least in its orbit is dropped
    with all its completions (none of them is canonical either).

    Rows 1.. are first screened by two conditions that every least image
    meets, since a group element that leaves axis 0 alone keeps the point
    labels: rows 1..d-1 ascend (swapping two of those axes exchanges their
    rows) and, with reflections, each is at most its reflection (reflecting
    one of those axes changes that row alone).  A row that breaks either is
    neither built nor tested.

    ``counters.examined`` goes on from its value at the call to where a
    scan of every raw matrix would be: just past a full matrix before it is
    tested, and past the level's last raw matrix at its end.  ``budget``
    caps ``examined - start``; a position past the cap is refused there,
    with ``examined`` left at the cap, so skipped rows and prefixes count
    and overrun as the raw scan's configs do.  A negative budget raises
    ``DomainError`` before any config is examined."""
    if budget is not None:
        check_int("budget", budget, 0)
    m = n + 1 if with_origin else n
    first_rows = list(enumerate(_axis_rows(n, with_origin)))
    other_rows = list(permutations(range(m), n))
    # (index in other_rows, row) for the rows at most their reflections
    self_least = [
        (i, row) for i, row in enumerate(other_rows)
        if not reflect or row <= tuple(m - 1 - v for v in row)
    ]
    self_least_rows = [row for _, row in self_least]
    table = _RowImages(m, reflect)
    # raw configs below a prefix of k rows
    block = [len(other_rows) ** (dim - k) for k in range(dim + 1)]
    limit = None if budget is None else start + budget

    def reach(position: int) -> None:
        if limit is not None and position > limit:
            counters.examined = limit
            raise BudgetExceededError(
                f"examined {budget} raw configurations; budget {budget}"
            )
        counters.examined = position

    def extend(
        prefix: Tuple[Tuple[int, ...], ...], prefix_images: tuple, at: int
    ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        # ``at``: the raw-scan position of the prefix's first completion
        k = len(prefix) + 1
        if k == 1:
            rows = first_rows
        else:
            low = bisect.bisect_left(self_least_rows, prefix[-1]) if k > 2 else 0
            rows = self_least[low:]
        for i, row in rows:
            mat = prefix + (row,)
            images = prefix_images + (table[row],)
            if k == dim:
                reach(at + i + 1)
                if _lower(mat, images) is None:
                    counters.emitted += 1
                    yield mat
            elif _lower(mat, images) is None:
                yield from extend(mat, images, at + i * block[k])
        if k == 1:  # the level's end
            reach(at + len(first_rows) * block[1])

    return extend((), (), counters.examined)


def enumerate_order_types(
    n: int,
    dim: int,
    with_origin: bool = False,
    reflect: bool = True,
    budget: Optional[int] = None,
    counters: Optional[EnumerationCounters] = None,
) -> Iterator[OrderConfig]:
    """One representative per symmetry orbit, in a deterministic order.

    The group relabels points, permutes axes and, when ``reflect`` is set,
    reflects axes; ``exact_vc_ordinal`` and ``max_shattering_coefficient``
    clear it only for axis cuts.  Representatives are the
    lexicographically least rank matrices of their orbits.  Enumeration is
    restricted to the slice with axis-0 ranks ascending, which every
    relabel-orbit meets exactly once.  Matrices are built row by row; a row
    prefix that is not least in its orbit is skipped with all its
    completions, and every full matrix is tested with the pruned
    minimality search ``_lower``, on row images built once per level
    (``_RowImages``).  A row that breaks one of two conditions of a least
    image (rows 1..d-1 ascend and, with reflections, each is at most its
    reflection) is skipped untested with its completions.  All of these
    give the verdict of comparing each raw matrix with the least image of
    its orbit, so the emission order is that of the brute-force scan.
    ``counters.examined`` grows by the raw configs the brute-force scan
    would have reached, skipped ones included, and ``budget`` caps what
    this call adds to it: the raw config past the limit raises, with
    exactly ``budget`` added, wherever it lies.  A negative budget, or a
    ``with_origin`` or ``reflect`` that is not a bool, raises
    ``DomainError`` before any config is examined.
    """
    check_int("n", n, 1)
    check_int("dim", dim, 1)
    _check_flag("with_origin", with_origin)
    _check_flag("reflect", reflect)
    ctr = counters if counters is not None else EnumerationCounters()
    mats = _enumerate(n, dim, with_origin, reflect, ctr, budget, ctr.examined)
    return (OrderConfig(n, dim, with_origin, mat) for mat in mats)


# ---------------------------------------------------------------------------
# Exact VC by exhaustion
# ---------------------------------------------------------------------------

ORDINAL_ASSUMPTIONS = (
    "carve feasibility for this class depends only on per-axis coordinate order",
    "restriction to injective projections is lossless (small perturbations preserve shattering)",
)


class _RowTraces(dict):
    """Rank row -> ``(traces, cosingles)`` for one class: the traces its
    axis's factors leave (``carve._factor_traces`` on the row's prefix
    masks, with the origin's free slot for an anchored class), and the
    bitmask with bit j set iff ``full ^ (1 << j)`` is one of them.  Filled
    on a row's first use and kept for the level."""

    def __init__(self, kind: ClassKind, with_origin: bool):
        super().__init__()
        self.kind = kind
        self.with_origin = with_origin

    def __missing__(self, row: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
        prefix = prefix_table(row)[1]
        slot = _free_slot(row) if self.with_origin else 0
        traces = tuple(_factor_traces(self.kind, prefix, slot))
        full = prefix[-1]
        cosingles = 0
        for t in traces:
            gap = full ^ t
            if not gap & (gap - 1):  # one point missing (or none: t is full)
                cosingles |= gap
        self[row] = entry = (traces, cosingles)
        return entry


def _carved(kind: ClassKind, lists: Sequence[Tuple[int, ...]], full: int) -> Set[int]:
    """The masks the class carves from a config whose rows' trace lists are
    ``lists``: the union of the lists for axis cuts, and otherwise every AND
    of one trace per row (each list holds ``full``)."""
    if kind is ClassKind.AXIS_CUTS:
        return set().union(*lists)
    reach = {full}
    for traces in lists:
        reach = {m & t for m in reach for t in traces}
    return reach


def _shattered(kind: ClassKind, entries: Sequence[Tuple[Tuple[int, ...], int]], full: int) -> bool:
    """Whether a config whose rows' ``_RowTraces`` entries are ``entries``
    is shattered: the OR of its rows' co-singleton bitmasks is ``full``, and
    it carves (``_carved``) all ``full + 1`` masks.  The first test is exact
    and settles most configs cheaply: every trace list holds ``full``, so an
    AND (or a union) of traces is ``full ^ (1 << j)`` only if one trace is."""
    cosingles = 0
    for _, c in entries:
        cosingles |= c
    return cosingles == full and len(_carved(kind, [t for t, _ in entries], full)) > full


@dataclass(frozen=True)
class LevelOutcome:
    n: int
    shattered: bool
    witness: Optional[OrderConfig]
    witness_points: Optional[PointSet]
    configs_examined: int
    configs_after_symmetry: int


@dataclass(frozen=True)
class VcSearchReport:
    kind: ClassKind
    dim: int
    n_max: int
    budget: Optional[int]
    levels: Tuple[LevelOutcome, ...]
    vc_exact: Optional[int]
    assumptions: Tuple[str, ...]

    @property
    def configs_examined(self) -> int:
        return sum(lv.configs_examined for lv in self.levels)

    @property
    def configs_after_symmetry(self) -> int:
        return sum(lv.configs_after_symmetry for lv in self.levels)

    @property
    def vc_lower_bound(self) -> int:
        best = 0
        for lv in self.levels:
            if lv.shattered:
                best = max(best, lv.n)
        return best


def class_paper_vc(kind: ClassKind, dim: int) -> int:
    """Published VC value (or stated upper bound): never tuned toward computed values."""
    check_int("class dimension", dim, 1)
    if kind in (ClassKind.BOXES, ClassKind.BOXES_NONDEGENERATE):
        return 2 * dim
    if kind is ClassKind.CUBES:
        return (3 * dim + 1) // 2
    if kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
        return 3 * dim // 2
    if kind is ClassKind.DEGENERATE_BALLS:
        # odd: the published exact claim; even: the published upper bound
        return (3 * dim + 1) // 2 if dim % 2 else 3 * dim // 2 + 1
    if kind is ClassKind.AXIS_CUTS:
        m = 1
        while math.comb(m + 1, (m + 1) // 2) <= dim:
            m += 1
        return m
    raise DomainError(f"unknown class kind {kind!r}")


def _order_driven(kind: ClassKind, dim: int) -> Tuple[ClassDescriptor, bool, bool]:
    """``(descriptor, with_origin, reflect)`` for an order-type scan of kind
    in dimension dim, after refusing a class whose carves do not depend on
    coordinate order alone there.  An anchored class scans with an origin
    slot against the origin-anchored descriptor; cuts, being one-sided,
    scan without axis reflections."""
    check_int("dim", dim, 1)
    if not isinstance(kind, ClassKind):
        raise DomainError(f"class kind must be a ClassKind: {kind!r}")
    if kind is ClassKind.CUBES and dim > 1:  # every other class is order-driven
        raise DomainError(
            f"{kind.value} is not order-driven in dimension {dim}; "
            "use the randomized cube search instead"
        )
    if kind is ClassKind.ANCHORED_DEGENERATE_BALLS:
        return origin_anchored(dim), True, True
    return ClassDescriptor(kind, dim), False, kind is not ClassKind.AXIS_CUTS


def exact_vc_ordinal(
    kind: ClassKind,
    dim: int,
    n_max: Optional[int] = None,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> VcSearchReport:
    """Exact VC dimension of an order-driven class by exhausting order types.

    Scans n = 1..n_max, by default to one past ``class_paper_vc``; at each
    level, stops early once a shattered configuration is found.  Each
    config is decided on its rank rows by ``_shattered``, from the level's
    ``_RowTraces``: no kernel runs and no ``PointSet`` is built, and only
    the shattered witness is realized.  The exact value n* is reported only
    when level n*+1 was exhausted with no shattered configuration.  On
    budget overrun a BudgetExceededError carrying the partial report
    (``error.report``) is raised.  ``jobs`` must be an int >= 1 (else
    ``DomainError``, before any work) but is currently unused: every level
    runs in-process.
    """
    descriptor, with_origin, reflect = _order_driven(kind, dim)
    if n_max is None:
        n_max = class_paper_vc(kind, dim) + 1
    check_int("n_max", n_max, 1)
    check_int("jobs", jobs, 1)
    counters = EnumerationCounters()  # the whole scan's; a level's are differences
    levels: List[LevelOutcome] = []
    vc_exact: Optional[int] = None

    def make_report() -> VcSearchReport:
        return VcSearchReport(
            kind=kind,
            dim=dim,
            n_max=n_max,
            budget=budget,
            levels=tuple(levels),
            vc_exact=vc_exact,
            assumptions=ORDINAL_ASSUMPTIONS,
        )

    for n in range(1, n_max + 1):
        examined, emitted = counters.examined, counters.emitted
        table = _RowTraces(descriptor.kind, with_origin)
        full = (1 << n) - 1
        found: Optional[OrderConfig] = None
        stopped: Optional[BudgetExceededError] = None
        try:
            for mat in _enumerate(n, dim, with_origin, reflect, counters, budget):
                if _shattered(descriptor.kind, [table[row] for row in mat], full):
                    found = OrderConfig(n, dim, with_origin, mat)
                    break
        except BudgetExceededError as err:
            stopped = err
        levels.append(
            LevelOutcome(
                n,
                found is not None,
                found,
                None if found is None else found.realize(),
                counters.examined - examined,
                counters.emitted - emitted,
            )
        )
        if stopped is not None:
            stopped.report = make_report()
            raise stopped
        if found is None:
            vc_exact = n - 1
            break
    return make_report()


@dataclass(frozen=True)
class ResolveReport:
    dim: int
    bracket: Tuple[int, int]
    search: VcSearchReport
    definitive: bool
    value: Optional[int]
    within_bracket: Optional[bool]


def resolve_even_degenerate(
    dim: int,
    n_max: Optional[int] = None,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> ResolveReport:
    """Pin down VC of unanchored degenerate balls in an even dimension.

    Known bracket (``class_paper_vc``): at least the anchored 3d/2 (anchored
    witnesses embed) and at most the published 3d/2 + 1.  The exhaustive
    order-type search, by default one level past that, turns the bracket into
    a definitive value when the budget allows full exhaustion.  ``dim`` must
    be an even int >= 2, and ``jobs`` an int >= 1 (currently unused); any
    other value is refused with ``DomainError`` before any work.
    """
    check_int("dim", dim, 2)
    if dim % 2:
        raise DomainError("resolver applies to even dimensions >= 2")
    check_int("jobs", jobs, 1)
    lo = class_paper_vc(ClassKind.ANCHORED_DEGENERATE_BALLS, dim)
    bracket = (lo, class_paper_vc(ClassKind.DEGENERATE_BALLS, dim))
    search = exact_vc_ordinal(
        ClassKind.DEGENERATE_BALLS, dim, n_max=n_max, budget=budget
    )
    definitive = search.vc_exact is not None
    value = search.vc_exact
    within = (bracket[0] <= value <= bracket[1]) if definitive else None
    return ResolveReport(
        dim=dim,
        bracket=bracket,
        search=search,
        definitive=definitive,
        value=value,
        within_bracket=within,
    )


# ---------------------------------------------------------------------------
# Randomized cube search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchCandidate:
    points: PointSet
    score: int
    total_masks: int
    shattered: bool
    trial: int


@dataclass(frozen=True)
class CubeSearchReport:
    dim: int
    n: int
    trials: int
    seed: int
    coordinate_range: int
    evaluations: int
    best: Tuple[SearchCandidate, ...]
    shattered_found: Tuple[SearchCandidate, ...]
    note: str = EVIDENCE_NOTE


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(seed * 0x9E3779B1 + trial)


def _order_key(ps: PointSet) -> Tuple[Tuple[int, ...], ...]:
    """The least image of the points' rank matrix under relabeling points,
    permuting axes and reflecting axes: from all-sentinel rows, each row
    ``_lower`` returns is written, with sentinels after it, until nothing
    lowers the rows.  The cube search's coordinates are distinct per
    axis, so a value's rank is its index in the sorted column."""
    n = len(ps)
    table = _RowImages(n, True)
    images = [table[tuple(map(sorted(col).index, col))] for col in zip(*ps.points)]
    rows = [(n + 1,)] * ps.dim
    while (found := _lower(rows, images)) is not None:
        k, row = found
        rows[k:] = [row] + [(n + 1,)] * (ps.dim - k - 1)
    return tuple(rows)


def _rank(cand: SearchCandidate) -> Tuple[int, Tuple[Tuple[int, ...], ...], int]:
    return (-cand.score, _order_key(cand.points), cand.trial)


def _draw_other(rng: random.Random, span: range, others: List[int]) -> int:
    """``rng.choice([v for v in span if v not in others])`` for distinct
    ``others`` in ``span``, without the list.  ``choice`` draws index k of
    the list with ``_randbelow(len)``, as ``randrange(len)`` does, so this
    draws the same k from the same bits, and steps from ``span[k]`` over
    the others at or below it, in increasing order."""
    v = span[rng.randrange(len(span) - len(others))]
    for o in sorted(others):
        if o > v:
            break
        v += 1
    return v


def _search_trials(args) -> Tuple[int, List[tuple], List[tuple]]:
    """One worker's trials: the score evaluations, and its local top
    ``local_keep`` and its shattered finds as ``(rank, candidate)`` pairs."""
    dim, n, t0, t1, seed, rng_range, local_keep = args
    total = 1 << n
    span = range(-rng_range, rng_range + 1)
    if dim << n <= _carve.BOX_MEMO_MASKS:
        score_at_least = getattr(_scorers, "score", None)
        if score_at_least is None:
            score_at_least = _scorers.score = cube_scorer()
    else:  # one order type's axis tables exceed the bound: the call's own scorer
        score_at_least = cube_scorer()
    evaluations = 0
    kept: List[Tuple[tuple, SearchCandidate]] = []  # local top, sorted by rank
    shattered: List[Tuple[tuple, SearchCandidate]] = []
    for t in range(t0, t1):
        rng = _trial_rng(seed, t)
        cols = [rng.sample(span, n) for _ in range(dim)]
        # a first score is needed exactly if the trial climbs or can be kept
        floor = min(total - 2, -kept[-1][0][0]) if len(kept) == local_keep else 0
        score = score_at_least(cols, floor)
        evaluations += 1
        if total - 2 <= score < total:
            for _ in range(CLIMB_STEPS):
                j = rng.randrange(dim)
                i = rng.randrange(n)
                old = cols[j][i]
                cols[j][i] = _draw_other(rng, span, [cols[j][k] for k in range(n) if k != i])
                # a move is kept only if it raises the score
                trial_score = score_at_least(cols, score + 1)
                evaluations += 1
                if trial_score > score:
                    score = trial_score
                else:
                    cols[j][i] = old
                if score == total:
                    break
        # a lower score than the local `local_keep`-th best cannot be kept (and
        # is never shattered), so it needs no PointSet and no order key
        if len(kept) == local_keep and -score > kept[-1][0][0]:
            continue  # not on a tie: the order key settles it before the trial index
        ps = PointSet.of([tuple(col[i] for col in cols) for i in range(n)])
        cand = SearchCandidate(ps, score, total, score == total, t)
        pair = (_rank(cand), cand)  # ranks are unique (trial)
        if score == total:
            shattered.append(pair)
        bisect.insort(kept, pair)
        del kept[local_keep:]
    return evaluations, kept, shattered


def random_cube_search(
    dim: int,
    n: int,
    trials: int,
    seed: int = 0,
    coordinate_range: int = 16,
    jobs: int = 1,
    keep: int = 3,
) -> CubeSearchReport:
    """Seeded random search for cube-shattered n-point sets in dimension dim.

    Each trial draws integer coordinates with injective projections; trials
    whose mask-coverage score comes within 2 of full get a hill climb of
    ``CLIMB_STEPS`` (16) single-coordinate moves, each kept only when it
    raises the score, stopping early at a full score.
    The score is the count of masks ``carve_feasible`` accepts (so the
    reports are byte-identical to per-mask scoring).  One ``cube_scorer``
    per thread, kept across calls whose dim axis tables of 2^n masks fit
    ``BOX_MEMO_MASKS`` so that its sieve memo is warm for every order type
    the thread has scored (a larger search makes a scorer for the call
    alone), computes it exactly only where it can matter: a move's score
    only when it beats the current one, a trial's first score only when the
    trial climbs or can enter the worker's local top; otherwise the pass
    stops at the miss that settles it.  A ``PointSet`` and an order key are
    built once, only for a trial whose score can enter that top, and the
    merge sorts on the workers' keys.
    Per-trial randomness depends only on (seed, trial index), so reports are
    identical for any worker count.  Shattered finds are re-validated from
    scratch by the shattering checker; one that fails is an internal fault
    and raises ``RuntimeError``.  ``coordinate_range`` must be an int
    >= 0 and ``jobs`` an int >= 1 (else ``DomainError``), and more than
    ``DEFAULT_MASK_CAP`` points raise ``CapExceededError``, all before
    anything is scored.
    """
    check_int("trials", trials, 1)
    check_int("n", n, 1)
    check_int("dim", dim, 1)
    check_int("keep", keep, 1)
    check_int("coordinate_range", coordinate_range, 0)
    check_int("seed", seed, 0)
    check_int("jobs", jobs, 1)
    _check_cap(n, DEFAULT_MASK_CAP)  # a full score decides every one of the 2^n masks
    if n > 2 * coordinate_range + 1:
        raise DomainError("coordinate range too small for injective projections")
    ranges: List[Tuple[int, int]] = []
    step = -(-trials // jobs)
    for t0 in range(0, trials, step):
        ranges.append((t0, min(trials, t0 + step)))
    # Each worker keeps its local top-`keep`; any globally top-`keep`
    # candidate is in its own worker's local top-`keep`, so the merge below is
    # independent of how trials were partitioned.
    work = [(dim, n, t0, t1, seed, coordinate_range, keep) for t0, t1 in ranges]
    if jobs == 1 or len(work) == 1:
        parts = [_search_trials(w) for w in work]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_search_trials, work))
    evaluations = 0
    merged: List[Tuple[tuple, SearchCandidate]] = []
    found: List[Tuple[tuple, SearchCandidate]] = []
    for ev, cands, shat in parts:
        evaluations += ev
        merged.extend(cands)
        found.extend(shat)
    merged.sort(key=itemgetter(0))
    found.sort(key=itemgetter(0))
    shattered = [cand for _, cand in found]
    for cand in shattered:
        verdict = is_shattered(cand.points, cubes(dim), want_certificate=False)
        if not verdict.shattered:
            raise RuntimeError("shattered candidate failed revalidation")
    return CubeSearchReport(
        dim=dim,
        n=n,
        trials=trials,
        seed=seed,
        coordinate_range=coordinate_range,
        evaluations=evaluations,
        best=tuple(cand for _, cand in merged[:keep]),
        shattered_found=tuple(shattered),
    )


# ---------------------------------------------------------------------------
# Maximum shattering coefficient over order types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaxCoefficientReport:
    kind: ClassKind
    dim: int
    n: int
    best_count: Optional[int]
    best_config: Optional[OrderConfig]
    best_points: Optional[PointSet]
    configs_examined: int
    configs_after_symmetry: int


def max_shattering_coefficient(
    kind: ClassKind,
    dim: int,
    n: int,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> MaxCoefficientReport:
    """Largest number of realizable subsets over all order types at size n.

    A config's count is the number of masks it carves (``_carved``), read
    off its rank rows' trace lists in one ``_RowTraces`` table, with no
    kernel run and no ``PointSet`` built; only the best config is realized,
    when the report is made.  More than ``DEFAULT_MASK_CAP`` points raise
    ``CapExceededError`` before any config is examined.  On budget overrun
    a BudgetExceededError carrying the partial report (``error.report``: the
    configs examined and emitted, and the best so far, or ``None`` fields
    when no config was scored) is raised.  ``jobs`` must be an int >= 1
    (else ``DomainError``, before any work) but is currently unused: every
    config runs in-process.
    """
    check_int("n", n, 1)
    descriptor, with_origin, reflect = _order_driven(kind, dim)
    _check_cap(n, DEFAULT_MASK_CAP)
    check_int("jobs", jobs, 1)
    table = _RowTraces(descriptor.kind, with_origin)
    full = (1 << n) - 1
    counters = EnumerationCounters()
    best_count: Optional[int] = None
    best_config: Optional[OrderConfig] = None

    def make_report() -> MaxCoefficientReport:
        return MaxCoefficientReport(
            kind=kind,
            dim=dim,
            n=n,
            best_count=best_count,
            best_config=best_config,
            best_points=None if best_config is None else best_config.realize(),
            configs_examined=counters.examined,
            configs_after_symmetry=counters.emitted,
        )

    try:
        for mat in _enumerate(n, dim, with_origin, reflect, counters, budget):
            count = len(_carved(descriptor.kind, [table[row][0] for row in mat], full))
            if best_count is None or count > best_count:
                best_count, best_config = count, OrderConfig(n, dim, with_origin, mat)
    except BudgetExceededError as err:
        err.report = make_report()
        raise
    return make_report()
