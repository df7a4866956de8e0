"""Tests for weight-truncated creation-monomial combinations."""

import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbclass.cli import _records_json
from hilbclass.exact import QQ, ParamContext, ParamRing
from hilbclass.fock import FockElement, exp_linear, hilb_unit
from hilbclass.partitions import enumerate_partitions, multiplicities, weight
from hilbclass.series import TruncatedSeries

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def exp_linear_reference(g, bound: int) -> FockElement:
    """exp_linear by visiting every partition of every weight up to the
    bound, one coefficient multiply per part."""
    ring = g.ring
    terms = {}
    for n in range(bound + 1):
        for parts in enumerate_partitions(n):
            c = ring.one
            for part in parts:
                c = c * g.coeffs[part]
            denom = 1
            for m in multiplicities(parts).values():
                denom *= factorial(m)
            c = c * Fraction(1, denom)
            if c != ring.zero:
                terms[parts] = c
    return FockElement(ring, bound, terms)


def weight_piece(e: FockElement, n: int) -> FockElement:
    return FockElement(e.ring, e.bound, {p: c for p, c in e.terms.items() if weight(p) == n})


def test_monomial_and_vacuum():
    v = FockElement.vacuum(3)
    assert v.coefficient(()) == 1
    q = FockElement.monomial((2, 1), 4, Fraction(1, 2))
    assert q.coefficient((2, 1)) == Fraction(1, 2)
    assert q.coefficient((3,)) == 0


def test_truncation_drops_overflow():
    q = FockElement.monomial((3,), 2)
    assert q.is_zero
    a = FockElement.monomial((2,), 3)
    b = FockElement.monomial((2,), 3)
    assert (a * b).is_zero  # weight 4 > bound 3
    c = FockElement.monomial((1,), 3)
    assert (a * c).coefficient((2, 1)) == 1


def test_product_merges_partitions():
    a = FockElement.monomial((2, 1), 8, 2)
    b = FockElement.monomial((3, 2), 8, Fraction(1, 2))
    assert (a * b).terms == {(3, 2, 2, 1): Fraction(1)}


def test_linear_structure():
    a = FockElement.monomial((2,), 3)
    b = FockElement.monomial((1, 1), 3)
    s = a + b.scale(3)
    assert s.coefficient((1, 1)) == 3
    assert (s - s).is_zero
    assert s == s


def test_compatibility_guards():
    a = FockElement.monomial((1,), 2)
    b = FockElement.monomial((1,), 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a + 1


def test_components_partition_element():
    g = TruncatedSeries.from_coeffs([0, 1, Fraction(-1, 2), Fraction(1, 3)], 3)
    e = exp_linear(g, 3)
    rebuilt = FockElement(e.ring, e.bound, {})
    for n in range(4):
        piece = exp_linear(g, 3, n)
        assert piece.bound == 3
        assert piece.terms and all(weight(p) == n for p in piece.terms)
        rebuilt = rebuilt + piece
    assert rebuilt == e
    by_degree = FockElement(e.ring, e.bound, {})
    for d in range(4):
        by_degree = by_degree + e.degree_component(d)
    assert by_degree == e
    for only in (-1, 4):
        with pytest.raises(ValueError):
            exp_linear(g, 3, only)


def test_exp_linear_anchored():
    g = TruncatedSeries.from_coeffs([0, 1, Fraction(-1, 2)], 2)
    e = exp_linear(g, 2)
    assert e.terms == {
        (): Fraction(1),
        (1,): Fraction(1),
        (2,): Fraction(-1, 2),
        (1, 1): Fraction(1, 2),
    }


def test_exp_linear_guards():
    for only in (None, 2):
        with pytest.raises(ValueError):
            exp_linear(TruncatedSeries.one(4), 4, only)
        with pytest.raises(ValueError):
            exp_linear(TruncatedSeries.zero(2), 4, only)


g_value = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
)
g_tail = st.one_of(  # dense, or mostly zero
    st.lists(g_value, max_size=12),
    st.lists(st.one_of(st.just(0), st.just(0), st.just(0), g_value), max_size=12),
)


@given(g_tail, st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_exp_linear_matches_reference(tail, bound):
    tail = (tail + [0] * bound)[:bound]
    g = TruncatedSeries.from_coeffs([0] + tail, bound)
    expected = exp_linear_reference(g, bound)
    assert exp_linear(g, bound).terms == expected.terms
    for only in range(bound + 1):
        assert exp_linear(g, bound, only) == weight_piece(expected, only)


def test_exp_linear_matches_reference_over_parameters():
    # a^3 = b^2 = 0, so many monomials of g = t + a t^2 + (b - a) t^3 vanish
    ring = ParamRing(ParamContext(("a", "b"), (2, 1)))
    a, b = ring.parameter("a"), ring.parameter("b")
    bound = 6
    coeffs = [ring.zero, ring.one, a, b - a, ring.zero, a * b, ring.from_rational(2)]
    g = TruncatedSeries(ring, bound, coeffs)
    expected = exp_linear_reference(g, bound)
    assert exp_linear(g, bound) == expected
    for only in range(bound + 1):
        assert exp_linear(g, bound, only) == weight_piece(expected, only)


@given(
    st.lists(small_rationals, min_size=5, max_size=5),
    st.lists(small_rationals, min_size=5, max_size=5),
)
@settings(max_examples=30)
def test_exp_linear_is_exponential(c1, c2):
    g1 = TruncatedSeries.from_coeffs([0] + c1, 5)
    g2 = TruncatedSeries.from_coeffs([0] + c2, 5)
    assert exp_linear(g1 + g2, 5) == exp_linear(g1, 5) * exp_linear(g2, 5)


def test_sorted_terms_and_records():
    e = FockElement(
        FockElement.vacuum(3).ring,
        3,
        {
            (1, 1, 1): Fraction(1, 6),
            (3,): Fraction(2),
            (1,): Fraction(-1),
            (2, 1): Fraction(1, 2),
        },
    )
    assert [p for p, _ in e.sorted_terms()] == [(1,), (3,), (2, 1), (1, 1, 1)]
    assert json.loads(_records_json(e)) == [
        {"partition": [1], "coeff": "-1"},
        {"partition": [3], "coeff": "2"},
        {"partition": [2, 1], "coeff": "1/2"},
        {"partition": [1, 1, 1], "coeff": "1/6"},
    ]
    assert _records_json(FockElement(QQ, 3, {})) == "[]"


def test_hilb_unit():
    u = hilb_unit(3)
    assert u.terms == {(1, 1, 1): Fraction(1, 6)}
    assert hilb_unit(0).terms == {(): Fraction(1)}
