"""Tests for truncated power series: the rational field they carry, the
product, the Lagrange solver, and reversion through it.

The product is checked against the plain double loop, the reference
`exp` by round trips through the reference `log`, and the Lagrange solver
against its defining functional equation (through the reference
`compose`) and the
one-power-per-step `Fraction` loop (`reference_lagrange_g`), on constant
terms 1 and other units, on F = G(x^d) for strides d up to 4, and at
orders where its baby-step count changes.  The reference `revert` is the
library solver followed by `t d/dt`; it is checked by round trips through
`compose`.
Every series is rational: its coefficients are `Fraction`s, and its `ring`
is the rational field `QQ`, which the bench's `series.mul` counter reads,
so it must stay the one shared instance.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbclass.hilbert import builtin_f
from hilbclass.series import QQ, TruncatedSeries, _convolve, lagrange_g
from reference import (
    add, compose, convolve, derivative, exp, fraction_set, inverse, log, reference_lagrange_g,
    revert, sqrt_unit, x_derivative,
)

small_rationals = st.sampled_from(fraction_set(4, 5))


def series_strategy(order, constant=None, linear=None):
    body = st.lists(small_rationals, min_size=order + 1, max_size=order + 1)

    def build(coeffs):
        if constant is not None:
            coeffs = [Fraction(constant)] + coeffs[1:]
        if linear is not None:
            coeffs = coeffs[:1] + [Fraction(linear)] + coeffs[2:]
        return TruncatedSeries.from_coeffs(coeffs, order)

    return body.map(build)


def test_constructors():
    s = TruncatedSeries.from_coeffs([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert TruncatedSeries.one(2).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs([1, 2, 3], 1)


def test_ring_objects():
    # the one ring object left is the rational field every series carries
    assert (QQ.zero, QQ.one) == (0, 1)
    assert isinstance(QQ.zero, Fraction) and isinstance(QQ.one, Fraction)
    assert TruncatedSeries.one(2).ring is QQ
    assert TruncatedSeries.from_coeffs([1, 2], 4).ring is QQ


def test_mixed_orders_rejected():
    a = TruncatedSeries.one(3)
    b = TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        a * b
    assert a * b.truncate(3) == a


def test_geometric_series():
    s = TruncatedSeries.from_coeffs([1, -1], 6)
    assert inverse(s).coeffs == (1,) * 7


@given(series_strategy(6), series_strategy(6), series_strategy(6))
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert add(a, b) * c == add(a * c, b * c)
    assert (a * b) * c == a * (b * c)
    assert a * TruncatedSeries.one(6) == a


big_rationals = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)
)


@st.composite
def sparse_series(draw, order):
    """Mostly-zero series (the zero series included): a few nonzero terms at
    drawn positions, either Fractions with denominators up to 10^6 through
    `from_coeffs`, or plain ints passed to the constructor directly."""
    ints = draw(st.booleans())
    values = st.integers(-10**6, 10**6) if ints else big_rationals
    terms = draw(st.dictionaries(st.integers(0, order), values, max_size=4))
    coeffs = [terms.get(k, 0) for k in range(order + 1)]
    if ints:
        return TruncatedSeries(order, coeffs)
    return TruncatedSeries.from_coeffs(coeffs, order)


@st.composite
def series_pairs(draw):
    order = draw(st.integers(0, 12))
    return draw(sparse_series(order)), draw(sparse_series(order))


@st.composite
def int_lists(draw):
    """Two int lists of unequal lengths, with zeros and negative values, and
    an n below both lengths, as the fixed-point oracle hands them to
    `_convolve`."""
    values = st.one_of(st.just(0), st.integers(-10**6, 10**6))
    a = draw(st.lists(values, min_size=1, max_size=14))
    b = draw(st.lists(values, min_size=1, max_size=14).filter(lambda b: len(b) != len(a)))
    n = draw(st.integers(0, min(len(a), len(b)) - 1))
    return a, b, n


@given(series_pairs(), int_lists())
@settings(max_examples=150)
def test_mul_matches_double_loop(pair, lists):
    a, b = pair
    product = a * b
    assert product.coeffs == tuple(convolve(a.coeffs, b.coeffs, Fraction(0)))
    assert all(isinstance(c, Fraction) for c in product.coeffs)
    xs, ys, n = lists
    assert _convolve(xs, ys, n) == convolve(xs[: n + 1], ys[: n + 1], 0)


@given(series_strategy(6, constant=1))
def test_inverse_round_trip(s):
    assert s * inverse(s) == TruncatedSeries.one(6)


@given(series_strategy(6, constant=0))
def test_exp_log_round_trip(s):
    assert log(exp(s)) == s


@given(series_strategy(6, constant=1))
def test_log_exp_round_trip(s):
    assert exp(log(s)) == s


@given(series_strategy(6, constant=1))
def test_sqrt_unit_squares_back(s):
    r = sqrt_unit(s)
    assert r * r == s


def test_exp_anchored():
    e = exp(TruncatedSeries.from_coeffs([0, 1], 5))
    assert e.coeffs == tuple(Fraction(1, factorial(k)) for k in range(6))


def test_derivatives():
    s = TruncatedSeries.from_coeffs([5, 1, 3], 4)
    assert derivative(s).coeffs == (1, 6, 0, 0)
    assert x_derivative(s).coeffs == (0, 1, 6, 0, 0)
    assert s.negate_arg().coeffs == (5, -1, 3, 0, 0)


@given(series_strategy(6, constant=0), series_strategy(6, constant=0))
def test_compose_is_morphism(f, g):
    h = TruncatedSeries.from_coeffs([2, 1, -1], 6)
    assert compose(h * exp(f), g) == compose(h, g) * exp(compose(f, g))


@given(series_strategy(7, constant=0, linear=1))
@settings(max_examples=40)
def test_revert_round_trips(s):
    r = revert(s)
    x = TruncatedSeries.from_coeffs([0, 1], 7)
    assert compose(s, r) == x
    assert compose(r, s) == x


def test_revert_catalan():
    # inverse of x - x^2 has coefficients the Catalan numbers
    s = revert(TruncatedSeries.from_coeffs([0, 1, -1], 9))
    for n in range(1, 10):
        assert s.coeffs[n] == Fraction(comb(2 * n - 2, n - 1), n)


def test_revert_requires_unit_linear():
    with pytest.raises(ValueError):
        revert(TruncatedSeries.from_coeffs([0, 0, 1], 4))
    with pytest.raises(ValueError):
        revert(TruncatedSeries.from_coeffs([1, 1], 4))


CLASSES = [("chern", None), ("segre", None), ("sqrt-todd", None),
           ("cprime-pow", Fraction(-5, 2)), ("custom", None)]
CUSTOM_F = [1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), -1,
            Fraction(1, 5), Fraction(3, 4), Fraction(-2, 7)]


@pytest.mark.parametrize("target", ["tangent", "tautological"])
@pytest.mark.parametrize("name,r", CLASSES, ids=[n for n, _ in CLASSES])
def test_lagrange_matches_fraction_power_loop(name, r, target):
    """The baby-step/giant-step solve equals the Fraction loop on the
    defining series of every class, up to the orders the benchmark runs,
    and at orders 48-50, 63-65, 71-73 and 97-99, where the baby-step count
    t changes (at stride 1 for a tautological F, stride 2 for a tangent
    one) and a giant step falls on the last coefficient.  The Fraction loop
    runs once, to the top order: its g_m does not depend on where it stops."""
    top = 121
    f = (TruncatedSeries.from_coeffs(CUSTOM_F, top) if name == "custom"
         else builtin_f(name, top, r))
    F = f * f.negate_arg() if target == "tangent" else f.negate_arg()
    expected = reference_lagrange_g(F, top)
    for order in [*range(31), 41, 48, 49, 50, 61, 63, 64, 65, 71, 72, 73, 81, 97, 98, 99, 121]:
        assert lagrange_g(F, order) == expected.truncate(order), order


UNIT_VALUES = fraction_set(9, 7)


@st.composite
def unit_series(draw):
    """F of order up to 19 with a unit constant term, 1 (as every defining
    series has) or another, zeros, negative values and denominators up to
    7, and an order up to 20."""
    order = draw(st.integers(0, 20))
    work = max(order - 1, 0)
    values = st.one_of(st.just(Fraction(0)), st.sampled_from(UNIT_VALUES))
    constant = draw(st.one_of(st.just(Fraction(1)),
                              st.sampled_from(UNIT_VALUES).filter(lambda c: c not in (0, 1))))
    rest = draw(st.lists(values, min_size=work, max_size=work))
    return TruncatedSeries.from_coeffs([constant, *rest], work), order


@given(unit_series())
@settings(max_examples=155)
def test_lagrange_matches_fraction_power_loop_random(case):
    F, order = case
    assert lagrange_g(F, order) == reference_lagrange_g(F, order)


@st.composite
def strided_series(draw):
    """F = G(x^d) for d in 2..4, G with a unit constant term (1 or another)
    and some zero coefficients, or F constant, with an order up to 40."""
    d = draw(st.integers(2, 4))
    order = draw(st.integers(0, 40))
    work = max(order - 1, 0)
    constant = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 5)]))
    rest = draw(st.lists(st.one_of(st.just(Fraction(0)), st.sampled_from(UNIT_VALUES)),
                         min_size=work // d, max_size=work // d))
    coeffs = [Fraction(0)] * (work + 1)
    coeffs[::d] = [constant, *rest]
    return TruncatedSeries(work, coeffs), order


@given(strided_series())
@settings(max_examples=60)
def test_lagrange_on_a_stride_matches_fraction_power_loop(case):
    """The solve in y = x^d equals the Fraction loop on every stride,
    constant F included."""
    F, order = case
    assert lagrange_g(F, order) == reference_lagrange_g(F, order)


def test_lagrange_on_a_stride_at_the_step_changes():
    """F = G(x^d) with every coefficient of G nonzero, d = 2, 3, 4, at every
    order up to 60 (so every baby-step count t up to 5 and giant steps on
    the last coefficient), and constant F, whose stride is 1."""
    G = [Fraction((-1) ** k * (k + 2), 2 * k + 1) for k in range(60)]
    for d in (2, 3, 4):
        coeffs = [Fraction(0)] * 60
        coeffs[::d] = G[: len(coeffs[::d])]
        F = TruncatedSeries(59, coeffs)
        expected = reference_lagrange_g(F, 60)
        for order in range(61):
            assert lagrange_g(F, order) == expected.truncate(order), (d, order)
    for c in (1, -3, Fraction(2, 7)):
        F = TruncatedSeries.from_coeffs([c], 19)
        assert lagrange_g(F, 20) == reference_lagrange_g(F, 20), c


@given(series_strategy(9, constant=1))
@settings(max_examples=30)
def test_lagrange_functional_equation(F):
    """dg/dt evaluated at x/F equals F, to the working order."""
    g = lagrange_g(F, 10)
    x_over_F = (TruncatedSeries.from_coeffs([0, 1], 9) * inverse(F)).truncate(8)
    dg = TruncatedSeries(8, [g.coeffs[k + 1] * (k + 1) for k in range(9)])
    assert compose(dg, x_over_F) == F.truncate(8)


@given(series_strategy(9, constant=1))
@settings(max_examples=30)
def test_lagrange_inverse_characterization(F):
    """t dg/dt is the compositional inverse of x/F."""
    g = lagrange_g(F, 10)
    tdg = x_derivative(g).truncate(9)
    x_over_F = TruncatedSeries.from_coeffs([0, 1], 9) * inverse(F)
    assert revert(tdg) == x_over_F


def test_lagrange_truncation_guard():
    with pytest.raises(ValueError):
        lagrange_g(TruncatedSeries.one(3), 10)


def test_to_strings():
    s = TruncatedSeries.from_coeffs([1, Fraction(-1, 3)], 3)
    assert s.to_strings() == ["1", "-1/3", "0", "0"]
