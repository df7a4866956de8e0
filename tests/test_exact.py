"""Tests for the exact coefficient layer: nilpotent-parameter polynomials
with integer coefficients.

A context is its tuple of nilpotency bounds alone; a parameter is known
by its index, and `repr` labels parameter i as `p{i}`.  The library builds
a `ParamPoly` only from packed integer coefficients (`ParamPoly._make`)
and multiplies two of them, never a value by a scalar; two values compare
equal only to each other, never to an int.  Construction from exponent
vectors, the int multiple, the sum and the inverse are references
(`tests/reference.py`); the packed
product is checked against a product on exponent tuples, and the inverse
by multiplying back.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbclass.exact import QQ, ParamContext, ParamPoly
from hilbclass.series import TruncatedSeries
from reference import (
    coefficient, constant, constant_term, param_add, param_invert, param_scale, param_sub,
    parameter, poly, reference_mul, reference_poly, widen,
)

integers = st.integers(min_value=-100, max_value=100)


def test_param_context_validation():
    with pytest.raises(ValueError):
        ParamContext((1, 0))
    with pytest.raises(ValueError):
        ParamContext((-1,))
    with pytest.raises(ValueError, match="over its bound"):
        ParamContext((2, 1)).pack((3, 0))


CTX = ParamContext((2, 1))
ZERO, ONE = poly(CTX, {}), constant(CTX, 1)


def test_parameter_nilpotency():
    a = parameter(CTX, 0)
    b = parameter(CTX, 1)
    assert a * a * a == ZERO  # bound 2: a^3 = 0
    assert coefficient(a * a, (2, 0)) == 1
    assert b * b == ZERO  # bound 1: b^2 = 0
    assert (a * b).terms
    # the truth value the nilpotent oracle's walk cuts its branches by
    assert not a * a * a and not b * b and a * b and ONE
    assert not ZERO and not a * ZERO


def test_parampoly_arithmetic():
    a = parameter(CTX, 0)
    b = parameter(CTX, 1)
    p = param_sub(param_add(1, param_scale(a, 2)), b)
    assert constant_term(p) == 1
    assert coefficient(p, (1, 0)) == 2
    assert coefficient(p, (0, 1)) == -1
    assert coefficient(p, (3, 0)) == 0  # over the bound
    assert param_sub(p, p) == ZERO
    assert p * ONE == p
    q = param_add(1, a) * param_add(param_scale(a, -1), 1)
    assert q == param_add(param_scale(a * a, -1), 1)
    assert repr(p) == "ParamPoly(1 + -1*p1 + 2*p0)"
    assert repr(param_add(param_scale(a * a * b, -3), 7)) == "ParamPoly(7 + -3*p0^2*p1)"
    assert repr(ZERO) == "ParamPoly(0)"


def test_parampoly_context_mismatch():
    c = parameter(ParamContext((1,)), 0)
    with pytest.raises(ValueError):
        parameter(CTX, 0) * c
    with pytest.raises(ValueError):
        param_add(parameter(CTX, 0), c)


def test_embed_repeats_the_fields_at_a_shift():
    # CTX's fields (bounds 2 and 1) repeated after a field of bound 3 keep
    # their layout at one shift, so moving a value of CTX there shifts each
    # packed monomial, as the nilpotent oracle moves its second factor
    wide = ParamContext((3, 2, 1))
    shift = wide.shifts[1]
    assert wide.shifts[1:] == tuple(shift + s for s in CTX.shifts)
    a, b = parameter(CTX, 0), parameter(CTX, 1)
    p = param_sub(param_add(3, param_scale(a, 2)), b * a)
    got = widen(p, wide, 1)
    a2, b2 = parameter(wide, 1), parameter(wide, 2)
    assert got == param_sub(param_add(3, param_scale(a2, 2)), b2 * a2)
    assert widen(p * p, wide, 1) == got * got
    for value in (p, p * p):
        moved = ParamPoly._make(wide, {k << shift: c for k, c in value.terms.items()})
        assert moved == widen(value, wide, 1)


def test_invert_simple():
    a = parameter(CTX, 0)
    p = param_add(1, a)
    inv = param_invert(p)
    # geometric series truncated by nilpotency: 1 - a + a^2
    assert inv == param_add(param_sub(ONE, a), a * a)
    assert p * inv == ONE


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        param_invert(parameter(CTX, 0))


@given(
    st.fixed_dictionaries(
        {},
        optional={
            (i, j): st.integers(min_value=-5, max_value=5)
            for i in range(3)
            for j in range(2)
            if (i, j) != (0, 0)
        },
    ),
    st.sampled_from((1, -1)),
)
def test_invert_random(terms, const):
    # Only const, +-1, feeds the constant term, so p is always a unit with
    # an integral inverse; test_invert_requires_unit covers the non-unit case.
    p = param_add(poly(CTX, terms), const)
    assert p * param_invert(p) == ONE
    assert param_invert(p) * p == ONE


def test_ring_objects():
    # the one ring object left is the rational field every series carries
    assert (QQ.zero, QQ.one) == (0, 1)
    assert TruncatedSeries.one(2).ring is QQ
    assert ONE * constant(CTX, -2) == constant(CTX, -2) and ZERO != 0 and ONE != 1
    # the product is of two values: a scalar factor, int or rational, has none
    for scalar in (-2, Fraction(2, 3)):
        with pytest.raises(TypeError):
            ONE * scalar
        with pytest.raises(TypeError):
            scalar * ONE


def test_immutability():
    p = parameter(CTX, 0)
    with pytest.raises(AttributeError):
        p.terms = {}


def test_constructor_validation():
    with pytest.raises(ValueError, match="wrong length"):
        poly(CTX, {(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        poly(CTX, {(1, -1): 1})
    assert poly(CTX, {(3, 0): 1, (0, 2): 5}).terms == {}  # over-bound terms drop
    with pytest.raises(TypeError):
        ParamPoly(CTX, {})  # `_make` is the only constructor


def assert_matches(context, got, expected):
    # int coefficients, with no zero stored
    assert all(type(c) is int and c for c in got.terms.values())
    assert got == poly(context, expected)
    assert len(got.terms) == len(expected)
    for exps, c in expected.items():
        assert coefficient(got, exps) == c


# bounds at 2**k - 1 fill their k value bits, bounds at 2**k start a longer field
BOUNDS = (1, 2, 3, 4, 7, 8, 15, 16)


@st.composite
def context_and_polys(draw, count):
    bounds = draw(st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=6))
    context = ParamContext(tuple(bounds))
    # exponents up to one over the bound, so construction has terms to drop
    exps = st.tuples(*(st.integers(0, b + 1) for b in bounds))
    coeffs = st.integers(min_value=-20, max_value=20)
    return context, [draw(st.dictionaries(exps, coeffs, max_size=6)) for _ in range(count)]


@given(context_and_polys(3), integers.filter(lambda c: c != 0))
@settings(deadline=None)
def test_packed_kernel_matches_reference(case, const):
    context, (ta, tb, tc) = case
    ra, rb, rc = (reference_poly(context, t) for t in (ta, tb, tc))
    a, b, c = (poly(context, t) for t in (ta, tb, tc))
    assert_matches(context, a, ra)
    assert_matches(context, a * b, reference_mul(context, ra, rb))
    assert_matches(context, a * b * c, reference_mul(context, reference_mul(context, ra, rb), rc))
    assert_matches(context, a * constant(context, const), {e: v * const for e, v in ra.items()})
    over = tuple(bound + 1 for bound in context.bounds)
    assert coefficient(a, over) == 0
    assert constant_term(a) == ra.get((0,) * len(over), 0)

    # equal values built different ways store equal data
    assert param_sub(param_add(a, b), b) == a
    assert a * b == b * a
    assert param_add(a, b) * c == param_add(a * c, b * c)
    assert param_add(a, b) * param_sub(a, b) == param_sub(a * a, b * b)  # the cross terms cancel
    assert a * constant(context, 0) == poly(context, {})
    assert bool(a) == bool(ra)
