"""Shattering checks, shattering coefficients, and the Sauer-Shelah bound.

Masks are visited in a fixed canonical order (singletons, then complements
of singletons, then everything else by (popcount, numeric value)), so the
minimal failing mask reported for a non-shattered set is deterministic.
Every scan runs in-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .carve import (
    CarveWitness,
    ClassDescriptor,
    _checked,
    _concept_in_class,
    _kernel,
    _trace_mask,
)
from .errors import CapExceededError, DomainError
from .geometry import PointSet
from .scalars import check_int

DEFAULT_MASK_CAP = 20

# Rational upper approximation of Euler's number: the series through 1/15!
# plus the tail bound 1/(15 * 15!), which exceeds the true tail.  The excess
# is below 1e-12, keeping the growth bound valid and nearly tight.
E_UPPER = sum(Fraction(1, math.factorial(k)) for k in range(16)) + Fraction(
    1, 15 * math.factorial(15)
)


def canonical_mask_order(n: int) -> List[int]:
    """Singletons, complements of singletons, then (popcount, value)."""
    check_int("n", n, 1)
    return list(_mask_order(n))


@lru_cache(maxsize=None)
def _mask_order(n: int) -> Tuple[int, ...]:
    """``canonical_mask_order(n)``, built once per n for the scans."""
    full = (1 << n) - 1
    head = list(dict.fromkeys([1 << i for i in range(n)] + [full ^ (1 << i) for i in range(n)]))
    seen = set(head)
    rest = sorted(
        (m for m in range(full + 1) if m not in seen),
        key=lambda m: (bin(m).count("1"), m),
    )
    return tuple(head + rest)


@dataclass(frozen=True)
class ShatteringCertificate:
    """One validated carve witness per subset mask."""

    points: PointSet
    descriptor: ClassDescriptor
    witnesses: Tuple[CarveWitness, ...]  # indexed by mask value

    def __post_init__(self):
        if self.points.dim != self.descriptor.dim:
            raise DomainError(
                f"set dimension {self.points.dim} != class dimension {self.descriptor.dim}"
            )
        if len(self.witnesses) != 1 << len(self.points):
            raise DomainError("certificate must cover every subset mask")

    def witness_for(self, mask: int) -> CarveWitness:
        return self.witnesses[mask]

    def validate(self) -> bool:
        """Every witness is of this certificate's class and has its mask as trace."""
        for mask, w in enumerate(self.witnesses):
            if not isinstance(w, CarveWitness) or w.mask != mask or w.descriptor != self.descriptor:
                return False
            if not _concept_in_class(w.concept, self.descriptor):
                return False
            if _trace_mask(w.concept, self.points) != mask:
                return False
        return True


@dataclass(frozen=True)
class ShatterVerdict:
    points: PointSet
    descriptor: ClassDescriptor
    shattered: bool
    masks_checked: int
    failing_mask: Optional[int] = None
    certificate: Optional[ShatteringCertificate] = None


@dataclass(frozen=True)
class CoefficientReport:
    points: PointSet
    descriptor: ClassDescriptor
    realized: int
    total_masks: int
    feasible_masks: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class VcLowerBound:
    points: PointSet
    descriptor: ClassDescriptor
    size: int
    indices: Tuple[int, ...]
    subset: Optional[PointSet]
    certificate: Optional[ShatteringCertificate]
    realized: int


def _check_cap(n: int, cap: int) -> None:
    check_int("cap", cap, 0)
    if n > cap:
        raise CapExceededError(
            f"{n} points would need {1 << n} masks; cap is {cap} points"
        )


def is_shattered(
    ps: PointSet,
    descriptor: ClassDescriptor,
    cap: int = DEFAULT_MASK_CAP,
    want_certificate: bool = True,
) -> ShatterVerdict:
    """Decide every subset mask; report the first failing mask in canonical order.

    The kernel is built once; on success the verdict optionally carries a
    full certificate (one validated witness per mask, built as each mask is
    accepted).
    """
    n = len(ps)
    _check_cap(n, cap)
    decide, build = _kernel(ps, descriptor)
    witnesses: List[Optional[CarveWitness]] = [None] * (1 << n)
    for checked, mask in enumerate(_mask_order(n), 1):
        if not decide(mask):
            return ShatterVerdict(ps, descriptor, False, checked, failing_mask=mask)
        if want_certificate:
            witnesses[mask] = build(mask)
    cert = None
    if want_certificate:
        cert = ShatteringCertificate(ps, descriptor, tuple(witnesses))
    return ShatterVerdict(ps, descriptor, True, 1 << n, certificate=cert)


def shattering_count(
    ps: PointSet,
    descriptor: ClassDescriptor,
    cap: int = DEFAULT_MASK_CAP,
    include_masks: bool = False,
) -> CoefficientReport:
    """Number of subsets realizable as intersections with class concepts."""
    n = len(ps)
    _check_cap(n, cap)
    feasible = list(filter(_kernel(ps, descriptor)[0], range(1 << n)))
    return CoefficientReport(
        ps,
        descriptor,
        realized=len(feasible),
        total_masks=1 << n,
        feasible_masks=tuple(feasible) if include_masks else None,
    )


def vc_lower_bound_on(
    ps: PointSet,
    descriptor: ClassDescriptor,
    cap: int = DEFAULT_MASK_CAP,
) -> VcLowerBound:
    """Largest shattered subset of ps, by projecting the feasible mask set.

    Every mask is decided once, by one kernel; a candidate subset T is
    shattered iff the feasible masks restricted to T hit all 2^|T| patterns.
    Witnesses are built, without a second decision, only for the 2^|T|
    masks the certificate uses.  They transfer because a concept's trace on
    T is its trace on ps intersected with T, and ``_checked`` re-validates
    each on T.
    """
    n = len(ps)
    _check_cap(n, cap)
    decide, build = _kernel(ps, descriptor)
    feasible = list(filter(decide, range(1 << n)))
    for k in range(n, 0, -1):
        for combo in combinations(range(n), k):
            tmask = 0
            for i in combo:
                tmask |= 1 << i
            patterns: Dict[int, int] = {}
            for m in feasible:
                patterns.setdefault(m & tmask, m)
            if len(patterns) != 1 << k:
                continue
            subset = ps.restrict(combo)
            local_witnesses = []
            for local in range(1 << k):
                pattern = 0
                for bit, i in enumerate(combo):
                    if local >> bit & 1:
                        pattern |= 1 << i
                source = build(patterns[pattern])
                local_witnesses.append(_checked(source.concept, subset, local, descriptor))
            cert = ShatteringCertificate(subset, descriptor, tuple(local_witnesses))
            return VcLowerBound(
                ps,
                descriptor,
                size=k,
                indices=combo,
                subset=subset,
                certificate=cert,
                realized=len(feasible),
            )
    # k = 0: the empty set is always shattered (some concept misses ps,
    # e.g. the empty trace is feasible for every class here); report size 0.
    return VcLowerBound(
        ps,
        descriptor,
        size=0,
        indices=(),
        subset=None,
        certificate=None,
        realized=len(feasible),
    )


def sauer_shelah_bound(vc: int, n: int) -> Fraction:
    """Exact rational (E_UPPER * n / vc) ** vc, valid for n >= vc >= 1."""
    check_int("vc", vc, 1)
    check_int("n", n, vc)
    return (E_UPPER * n / vc) ** vc
