"""Tests for truncated power series: the product, `exp`, the Lagrange
solver, and reversion through it.

Sums, scalar multiples, argument scaling, composition, differentiation,
`x d/dx`, the inverse, reversion, `log` and the unit square root are
test-local references here; no command needs them.  `revert` is the
library `lagrange_g` followed by `t d/dt`, with the test-local
`inverse`.  Reversion is checked by round trips through `compose` and
against a test-local copy of the classical coefficient formula, and the
Lagrange solver against its defining functional equation (through
`compose`), a test-local iterated-derivative route, and the `Fraction`
power loop it replaced (`reference_lagrange_g`).  Every series is rational.
The acceptance gate and the other test modules import these helpers from
this module.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbclass.hilbert import builtin_f
from hilbclass.series import TruncatedSeries, _convolve, lagrange_g

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Test-local coefficientwise sum of two series of one order."""
    assert a.order == b.order
    return TruncatedSeries(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def scale(s: TruncatedSeries, c) -> TruncatedSeries:
    """Test-local multiple of every coefficient by the scalar c."""
    return TruncatedSeries(s.order, [a * c for a in s.coeffs])


def scale_arg(s: TruncatedSeries, c) -> TruncatedSeries:
    """Test-local substitution x -> c*x for a rational constant c."""
    return TruncatedSeries(s.order, [a * Fraction(c) ** k for k, a in enumerate(s.coeffs)])


def inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Test-local multiplicative inverse of a rational series with nonzero
    constant term."""
    inv0 = 1 / s.coeffs[0]
    out = [inv0] + [Fraction(0)] * s.order
    for k in range(1, s.order + 1):
        out[k] = -sum(s.coeffs[j] * out[k - j] for j in range(1, k + 1)) * inv0
    return TruncatedSeries(s.order, out)


def log(s: TruncatedSeries) -> TruncatedSeries:
    """Test-local log of a rational series with constant term 1."""
    assert s.coeffs[0] == 1
    out = [Fraction(0)] * (s.order + 1)
    for n in range(1, s.order + 1):
        acc = s.coeffs[n] * n - sum(out[j] * s.coeffs[n - j] * j for j in range(1, n))
        out[n] = acc / n
    return TruncatedSeries(s.order, out)


def sqrt_unit(s: TruncatedSeries) -> TruncatedSeries:
    """Test-local square root, with constant term 1, of a rational series
    with constant term 1."""
    assert s.coeffs[0] == 1
    out = [Fraction(1)] + [Fraction(0)] * s.order
    for n in range(1, s.order + 1):
        out[n] = (s.coeffs[n] - sum(out[j] * out[n - j] for j in range(1, n))) / 2
    return TruncatedSeries(s.order, out)


def x_derivative(s: TruncatedSeries) -> TruncatedSeries:
    """Test-local x d/dx, keeping the order."""
    return TruncatedSeries(s.order, [a * k for k, a in enumerate(s.coeffs)])


def revert(s: TruncatedSeries) -> TruncatedSeries:
    """Test-local compositional inverse of a rational series, by Lagrange
    inversion: writing s as x/F, the inverse is t dg/dt for g = lagrange_g(F).
    Needs constant term 0 and a nonzero linear coefficient."""
    if s.coeffs[0] != 0:
        raise ValueError("revert needs constant term 0")
    if s.order < 1 or s.coeffs[1] == 0:
        raise ValueError("revert needs a unit linear coefficient")
    F = inverse(TruncatedSeries(s.order - 1, s.coeffs[1:]))
    return x_derivative(lagrange_g(F, s.order))


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Test-local outer(inner), by Horner evaluation; inner must kill the constant."""
    if inner.coeffs[0] != 0:
        raise ValueError("compose needs inner constant term 0")
    result = TruncatedSeries.from_coeffs([], outer.order)
    for c in reversed(outer.coeffs):
        result = result * inner
        result = TruncatedSeries(outer.order, (result.coeffs[0] + c,) + result.coeffs[1:])
    return result


def derivative(s: TruncatedSeries) -> TruncatedSeries:
    """Test-local d/dx; the result has order one less."""
    return TruncatedSeries(s.order - 1, [s.coeffs[k] * k for k in range(1, s.order + 1)])


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


def convolve(a, b, zero):
    """Test-local truncated product: the plain double loop over every pair."""
    n = len(a) - 1
    out = [zero] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


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
    assert log(s.exp()) == s


@given(series_strategy(6, constant=1))
def test_log_exp_round_trip(s):
    assert log(s).exp() == s


@given(series_strategy(6, constant=1))
def test_sqrt_unit_squares_back(s):
    r = sqrt_unit(s)
    assert r * r == s


def test_exp_anchored():
    e = TruncatedSeries.from_coeffs([0, 1], 5).exp()
    from math import factorial

    assert e.coeffs == tuple(Fraction(1, factorial(k)) for k in range(6))


def test_derivatives():
    s = TruncatedSeries.from_coeffs([5, 1, 3], 4)
    assert derivative(s).coeffs == (1, 6, 0, 0)
    assert x_derivative(s).coeffs == (0, 1, 6, 0, 0)
    assert s.negate_arg().coeffs == (5, -1, 3, 0, 0)
    assert scale_arg(s, 2).coeffs == (5, 2, 12, 0, 0)


@given(series_strategy(6, constant=0), series_strategy(6, constant=0))
def test_compose_is_morphism(f, g):
    h = TruncatedSeries.from_coeffs([2, 1, -1], 6)
    assert compose(h * f.exp(), g) == compose(h, g) * compose(f, g).exp()


def classical_inversion_revert(s: TruncatedSeries) -> TruncatedSeries:
    """Test-local compositional inverse via the classical coefficient
    formula: the t^n coefficient of the inverse is [x^(n-1)] (x/s)^n / n."""
    n = s.order
    ratio = inverse(TruncatedSeries(n - 1, s.coeffs[1:]))  # x/s shifted down by one
    out = [Fraction(0)] * (n + 1)
    power = TruncatedSeries.one(n - 1)
    for m in range(1, n + 1):
        power = power * ratio
        out[m] = power.coeffs[m - 1] / m
    return TruncatedSeries(n, out)


def lagrange_g_derivative_form(F: TruncatedSeries, order: int) -> TruncatedSeries:
    """Test-local route to lagrange_g by iterated differentiation of F^n:
    the coefficient of t^n is (d/dx)^(n-1) F^n at 0, divided by n * n!."""
    work = max(order - 1, 0)
    out = [Fraction(0)] * (order + 1)
    power = TruncatedSeries.one(work)
    Ft = F.truncate(work)
    for m in range(1, order + 1):
        power = power * Ft
        deriv = power
        for _ in range(m - 1):
            deriv = derivative(deriv)
        out[m] = deriv.coeffs[0] / (m * factorial(m))
    return TruncatedSeries(order, out)


@given(series_strategy(7, constant=0, linear=1))
@settings(max_examples=40)
def test_revert_round_trips(s):
    r = revert(s)
    x = TruncatedSeries.from_coeffs([0, 1], 7)
    assert compose(s, r) == x
    assert compose(r, s) == x


@given(series_strategy(7, constant=0, linear=1))
@settings(max_examples=25)
def test_revert_matches_classical_formula(s):
    assert revert(s) == classical_inversion_revert(s)


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


def reference_lagrange_g(F: TruncatedSeries, order: int) -> TruncatedSeries:
    """Test-local Lagrange power loop on `Fraction` series: F^m is one
    truncated series product per step, with no common denominator kept
    from one step to the next."""
    work = max(order - 1, 0)
    Ft = F.truncate(work)
    out = [Fraction(0)] * (order + 1)
    power = TruncatedSeries.one(work)
    for m in range(1, order + 1):
        power = power * Ft
        out[m] = power.coeffs[m - 1] * Fraction(1, m * m)
    return TruncatedSeries(order, out)


CLASSES = [("chern", None), ("segre", None), ("sqrt-todd", None),
           ("cprime-pow", Fraction(-5, 2)), ("custom", None)]
CUSTOM_F = [1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), -1,
            Fraction(1, 5), Fraction(3, 4), Fraction(-2, 7)]


@pytest.mark.parametrize("target", ["tangent", "tautological"])
@pytest.mark.parametrize("name,r", CLASSES, ids=[n for n, _ in CLASSES])
def test_lagrange_matches_fraction_power_loop(name, r, target):
    """The reduced integer power loop equals the Fraction loop on the
    defining series of every class, up to the orders the benchmark runs."""
    top = 121
    f = (TruncatedSeries.from_coeffs(CUSTOM_F, top) if name == "custom"
         else builtin_f(name, top, r))
    F = f * f.negate_arg() if target == "tangent" else f.negate_arg()
    for order in [*range(31), 41, 61, 81, 121]:
        assert lagrange_g(F, order) == reference_lagrange_g(F, order), order


@st.composite
def unit_series(draw):
    """F of order up to 19 with a unit constant term other than 1, zeros,
    negative values and denominators up to 7, and an order up to 20."""
    order = draw(st.integers(0, 20))
    work = max(order - 1, 0)
    values = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-9, max_value=9, max_denominator=7))
    constant = draw(st.fractions(min_value=-9, max_value=9, max_denominator=7)
                    .filter(lambda c: c not in (0, 1)))
    rest = draw(st.lists(values, min_size=work, max_size=work))
    return TruncatedSeries.from_coeffs([constant, *rest], work), order


@given(unit_series())
@settings(max_examples=100)
def test_lagrange_matches_fraction_power_loop_random(case):
    F, order = case
    assert lagrange_g(F, order) == reference_lagrange_g(F, order)


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
def test_lagrange_two_routes_agree(F):
    assert lagrange_g(F, 10) == lagrange_g_derivative_form(F, 10)


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
