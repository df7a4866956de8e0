"""Tests for the exact coefficient layer: rationals and nilpotent-parameter
polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbclass.exact import (
    QQ,
    ParamContext,
    ParamPoly,
    ParamRing,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_param_context_validation():
    with pytest.raises(ValueError):
        ParamContext(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        ParamContext(("a",), (1, 2))
    with pytest.raises(ValueError):
        ParamContext(("a",), (0,))


CTX = ParamContext(("a", "b"), (2, 1))
RING = ParamRing(CTX)


def test_parameter_nilpotency():
    a = RING.parameter("a")
    b = RING.parameter("b")
    assert a * a * a == RING.zero  # bound 2: a^3 = 0
    assert (a * a).coefficient((2, 0)) == 1
    assert b * b == RING.zero  # bound 1: b^2 = 0
    assert not (a * b).is_zero


def test_parampoly_arithmetic():
    a = RING.parameter("a")
    b = RING.parameter("b")
    p = 1 + 2 * a - b
    assert p.constant_term == 1
    assert p.coefficient((1, 0)) == 2
    assert p.coefficient((0, 1)) == -1
    assert p - p == RING.zero
    assert p * RING.one == p
    q = (1 + a) * (1 - a)
    assert q == 1 - a * a


def test_parampoly_context_mismatch():
    other = ParamRing(ParamContext(("c",), (1,)))
    with pytest.raises(ValueError):
        RING.parameter("a") + other.parameter("c")


def test_invert_simple():
    a = RING.parameter("a")
    p = 1 + a
    inv = p.invert()
    # geometric series truncated by nilpotency: 1 - a + a^2
    assert inv == 1 - a + a * a
    assert p * inv == RING.one


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        RING.parameter("a").invert()


@given(
    st.fixed_dictionaries(
        {},
        optional={
            (i, j): st.fractions(min_value=-5, max_value=5, max_denominator=6)
            for i in range(3)
            for j in range(2)
            if (i, j) != (0, 0)
        },
    ),
    rationals.filter(lambda c: c != 0),
)
def test_invert_random(terms, const):
    # Only the nonzero const feeds the constant term, so p is always a unit;
    # test_invert_requires_unit covers the non-unit case.
    p = ParamPoly(CTX, terms) + const
    assert p * p.invert() == RING.one
    assert p.invert() * p == RING.one


def test_division():
    a = RING.parameter("a")
    p = 2 + a
    assert p / 2 == 1 + a * Fraction(1, 2)
    assert (p * p) / p == p
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_ring_objects():
    assert QQ.is_unit(Fraction(3, 7))
    assert not QQ.is_unit(Fraction(0))
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    assert QQ.from_rational(3) == Fraction(3)
    assert RING == ParamRing(CTX)
    assert RING != QQ
    assert RING.from_rational(Fraction(1, 3)).constant_term == Fraction(1, 3)


def test_immutability():
    p = RING.parameter("a")
    with pytest.raises(AttributeError):
        p.terms = {}
