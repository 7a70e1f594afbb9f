"""Exact rational scalars and their two-point extension with +/- infinity.

Every quantity that enters a geometric decision in this package is an exact
rational: a Python ``int`` or a ``fractions.Fraction`` in lowest terms.
Floats are rejected at the boundary, never silently converted, so that
membership tests and carve decisions are bit-reproducible.

``NEG_INF`` and ``POS_INF`` are the two interned instances of one class, told
apart by a sign, that extend the rational order to unbounded interval
endpoints.  They support the comparison operators against rationals and
each other, so ``min``/``max``/``sorted`` work on mixed values; they stay
singletons across pickle and copy.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Union

from .errors import DomainError, ParseError


class _End:
    """One end of the extended line: ``NEG_INF`` (sign -1) or ``POS_INF``
    (sign +1).  An end equals only itself; against any other rational or
    end, every comparison follows from the sign."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    # the concrete types come first, so ints and Fractions never reach the
    # slow numbers.Rational check; any other operand is NotImplemented
    def __lt__(self, other):
        if other is self:
            return False
        if isinstance(other, (int, Fraction, _End, numbers.Rational)):
            return self.sign < 0
        return NotImplemented

    def __le__(self, other):
        if other is self:
            return True
        if isinstance(other, (int, Fraction, _End, numbers.Rational)):
            return self.sign < 0
        return NotImplemented

    def __gt__(self, other):
        if other is self:
            return False
        if isinstance(other, (int, Fraction, _End, numbers.Rational)):
            return self.sign > 0
        return NotImplemented

    def __ge__(self, other):
        if other is self:
            return True
        if isinstance(other, (int, Fraction, _End, numbers.Rational)):
            return self.sign > 0
        return NotImplemented

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("vclab.POS_INF" if self.sign > 0 else "vclab.NEG_INF")

    def __neg__(self):
        return _end(-self.sign)

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __reduce__(self):
        return (_end, (self.sign,))


NEG_INF = _End(-1)
POS_INF = _End(1)


def _end(sign: int) -> _End:
    # Also the pickle hook: an end stays a process-wide singleton, so identity
    # checks hold for values that crossed a process boundary.
    return POS_INF if sign > 0 else NEG_INF


# Exact rational.  Integral values are stored as plain ints; Fraction and int
# interoperate exactly under comparison, arithmetic and hashing.
Scalar = Union[int, Fraction]
ExtendedScalar = Union[Scalar, _End]


def as_scalar(value) -> Scalar:
    """Normalize a rational-valued input to the canonical Scalar form.

    Accepts int, Fraction, any numbers.Rational, and strings like ``"3/4"``
    or ``"-2"``.  Floats are rejected: exactness is the whole point.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise DomainError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        raise DomainError(f"float rejected (exact rationals only): {value!r}")
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, numbers.Rational):
        return as_scalar(Fraction(value.numerator, value.denominator))
    raise DomainError(f"not a rational scalar: {value!r}")


def check_int(name: str, value, least: int) -> None:
    """Refuse a value that is not an int (a bool or an integral float
    included) or is below least, with ``DomainError``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")


def parse_scalar(text: str) -> Scalar:
    """Parse ``"p"`` or ``"p/q"`` with optional sign; exact, no floats."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            value = Fraction(int(num.strip()), int(den.strip()))
        else:
            value = Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal: {text!r}") from exc
    return value.numerator if value.denominator == 1 else value


def scalar_str(value: Scalar) -> str:
    """Canonical string form: ``"p"`` for integers, ``"p/q"`` otherwise."""
    value = as_scalar(value)
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


def is_finite(value: ExtendedScalar) -> bool:
    return not (value is NEG_INF or value is POS_INF)


def midpoint(a: Scalar, b: Scalar) -> Scalar:
    total = a + b
    if isinstance(total, int):
        half, rem = divmod(total, 2)
        return half if rem == 0 else Fraction(total, 2)
    return as_scalar(Fraction(total, 2))
