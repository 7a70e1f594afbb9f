"""Exact scalar arithmetic and the extended line."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vclab import NEG_INF, POS_INF, DomainError, ParseError, as_scalar, parse_scalar, scalar_str
from vclab.scalars import midpoint

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_as_scalar_normalizes_integral_fractions():
    assert as_scalar(Fraction(4, 2)) == 2
    assert isinstance(as_scalar(Fraction(4, 2)), int)
    assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)


def test_as_scalar_rejects_floats_and_bools():
    with pytest.raises(DomainError):
        as_scalar(0.5)
    with pytest.raises(DomainError):
        as_scalar(True)


@given(rationals, rationals)
def test_midpoint_is_exact_mean(a, b):
    m = midpoint(a, b)
    assert m - a == b - m


def test_midpoint_integer_fast_path():
    assert midpoint(2, 4) == 3
    assert isinstance(midpoint(2, 4), int)
    assert midpoint(2, 3) == Fraction(5, 2)


def test_infinity_ordering():
    assert NEG_INF < -(10**100) < Fraction(1, 3) < 10**100 < POS_INF
    assert not NEG_INF < NEG_INF
    assert not POS_INF < POS_INF
    assert NEG_INF < POS_INF
    assert POS_INF > NEG_INF


def test_infinities_are_singletons_across_pickle():
    assert pickle.loads(pickle.dumps(POS_INF)) is POS_INF
    assert pickle.loads(pickle.dumps(NEG_INF)) is NEG_INF


COMPARISONS = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


def _rank(v):
    # -inf below every rational, +inf above; rationals are never compared
    # with each other here
    return -1 if v is NEG_INF else 1 if v is POS_INF else 0


@pytest.mark.parametrize("op", COMPARISONS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("end", [NEG_INF, POS_INF], ids=repr)
@pytest.mark.parametrize(
    "other", [NEG_INF, POS_INF, -(10**100), 0, Fraction(1, 3), True],
    ids=["-inf", "+inf", "-googol", "0", "1/3", "True"],
)
def test_extended_order_table(op, end, other):
    assert op(end, other) is op(_rank(end), _rank(other))
    assert op(other, end) is op(_rank(other), _rank(end))


@pytest.mark.parametrize("end", [NEG_INF, POS_INF], ids=repr)
@pytest.mark.parametrize("other", ["a", 0.5], ids=["str", "float"])
def test_ends_are_unordered_against_non_rationals(end, other):
    for op in COMPARISONS[:4]:
        with pytest.raises(TypeError):
            op(end, other)
        with pytest.raises(TypeError):
            op(other, end)
    assert not end == other and not other == end
    assert end != other and other != end


def test_ends_negate_and_print():
    assert -POS_INF is NEG_INF
    assert -NEG_INF is POS_INF
    assert (repr(NEG_INF), repr(POS_INF)) == ("-inf", "+inf")
    assert hash(NEG_INF) == hash("vclab.NEG_INF")
    assert hash(POS_INF) == hash("vclab.POS_INF")


@pytest.mark.parametrize("end", [NEG_INF, POS_INF], ids=repr)
def test_ends_are_singletons_across_copy(end):
    assert copy.copy(end) is end
    assert copy.deepcopy(end) is end
    assert copy.deepcopy([end])[0] is end


@given(rationals)
def test_parse_round_trip(x):
    assert parse_scalar(scalar_str(as_scalar(x))) == x


def test_parse_scalar_forms():
    assert parse_scalar("3") == 3
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    with pytest.raises(ParseError):
        parse_scalar("0.5")
    with pytest.raises(ParseError):
        parse_scalar("seven")
    with pytest.raises(ParseError):
        parse_scalar("1/0")
