"""Tests for the exact coefficient layer: nilpotent-parameter polynomials.

The library builds a `ParamPoly` only from packed integer numerators
(`ParamPoly._make`), and no command adds, negates or inverts one, builds
one from exponent tuples, a rational or one parameter alone, or reads one
coefficient by its exponents.  So `poly`, `constant`, `parameter`,
`coefficient`, `add`, `neg`, `sub`, `constant_term` and `invert` are
test-local here, on the packed representation, and the packed-kernel test
checks them against the tuple-keyed references.  The other test modules
import them from this module.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbclass.exact import QQ, ParamContext, ParamPoly
from hilbclass.series import TruncatedSeries

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def poly(context: ParamContext, terms) -> ParamPoly:
    """Test-local: the value with rational coefficients `terms`, keyed by
    exponent vectors; monomials over a bound are dropped."""
    clean = {}
    for exps, c in terms.items():
        key = context.pack(exps)
        if key is not None:
            clean[key] = Fraction(c)
    den = lcm(*(c.denominator for c in clean.values()))
    return ParamPoly._make(context, {k: c.numerator * (den // c.denominator)
                                     for k, c in clean.items() if c}, den)


def constant(context: ParamContext, value) -> ParamPoly:
    """Test-local: the rational `value` as a value of `context`."""
    value = Fraction(value)
    return ParamPoly._make(context, {0: value.numerator} if value else {}, value.denominator)


def coefficient(p: ParamPoly, exps) -> Fraction:
    """Test-local: the coefficient of p at the exponent vector `exps`."""
    return Fraction(p.terms.get(p.context.pack(exps), 0), p.den)


def parameter(context: ParamContext, name: str) -> ParamPoly:
    """Test-local: the parameter `name` of `context`."""
    return poly(context, {tuple(int(n == name) for n in context.names): 1})


def add(a, b) -> ParamPoly:
    """Test-local sum of two values of one context, either of which may be a
    rational, stored in lowest terms."""
    context = (a if isinstance(a, ParamPoly) else b).context
    a, b = (x if isinstance(x, ParamPoly) else constant(context, x) for x in (a, b))
    if a.context != b.context:
        raise ValueError("mismatched parameter contexts")
    den = lcm(a.den, b.den)
    out = {k: c * (den // a.den) for k, c in a.terms.items()}
    for k, c in b.terms.items():
        out[k] = out.get(k, 0) + c * (den // b.den)
    return ParamPoly._make(context, {k: c for k, c in out.items() if c}, den)


def neg(a: ParamPoly) -> ParamPoly:
    return a * -1


def sub(a, b) -> ParamPoly:
    return add(a, neg(b) if isinstance(b, ParamPoly) else -b)


def constant_term(a: ParamPoly) -> Fraction:
    return Fraction(a.terms.get(0, 0), a.den)


def invert(p: ParamPoly) -> ParamPoly:
    """Test-local two-sided inverse within the truncation.  Needs a nonzero
    rational part; the parameter part is nilpotent, so the geometric series
    terminates."""
    c = constant_term(p)
    if c == 0:
        raise ValueError("not a unit: zero rational part")
    inv_c = 1 / c
    result = constant(p.context, inv_c)
    power = constant(p.context, 1)
    step = sub(p, c) * -inv_c
    while (power := power * step).terms:
        result = add(result, power * inv_c)
    return result


def test_param_context_validation():
    with pytest.raises(ValueError):
        ParamContext(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        ParamContext(("a",), (1, 2))
    with pytest.raises(ValueError):
        ParamContext(("a",), (0,))


CTX = ParamContext(("a", "b"), (2, 1))
ZERO, ONE = poly(CTX, {}), constant(CTX, 1)


def test_parameter_nilpotency():
    a = parameter(CTX, "a")
    b = parameter(CTX, "b")
    assert a * a * a == ZERO  # bound 2: a^3 = 0
    assert coefficient(a * a, (2, 0)) == 1
    assert b * b == ZERO  # bound 1: b^2 = 0
    assert (a * b).terms
    # the truth value the class walk cuts its branches by
    assert not a * a * a and not b * b and a * b and ONE
    assert not ZERO and not a * 0


def test_parampoly_arithmetic():
    a = parameter(CTX, "a")
    b = parameter(CTX, "b")
    p = sub(add(1, 2 * a), b)
    assert constant_term(p) == 1
    assert coefficient(p, (1, 0)) == 2
    assert coefficient(p, (0, 1)) == -1
    assert coefficient(p, (3, 0)) == 0  # over the bound
    assert sub(p, p) == ZERO
    assert p * ONE == p
    q = add(1, a) * add(neg(a), 1)
    assert q == add(neg(a * a), 1)
    assert repr(p) == "ParamPoly(1 + -1*b + 2*a)"
    assert repr(add(a * a * b * Fraction(-3, 7), Fraction(1, 2))) == "ParamPoly(1/2 + -3/7*a^2*b)"
    assert repr(ZERO) == "ParamPoly(0)"


def test_parampoly_context_mismatch():
    c = parameter(ParamContext(("c",), (1,)), "c")
    with pytest.raises(ValueError):
        parameter(CTX, "a") * c
    with pytest.raises(ValueError):
        add(parameter(CTX, "a"), c)


def test_embed_repeats_the_fields_at_a_shift():
    # CTX's fields (a: bound 2, b: bound 1) repeated after a field c
    wide = ParamContext(("c", "a2", "b2"), (3, 2, 1))
    shift = wide.shifts[1]
    a, b = parameter(CTX, "a"), parameter(CTX, "b")
    p = sub(add(Fraction(1, 3), 2 * a), b * a)
    got = p.embed(wide, shift)
    a2, b2 = parameter(wide, "a2"), parameter(wide, "b2")
    assert got == sub(add(Fraction(1, 3), 2 * a2), b2 * a2)
    assert (p * p).embed(wide, shift) == got * got
    for bad in (0, shift + 1, wide.shifts[2]):
        with pytest.raises(ValueError):
            p.embed(wide, bad)
    with pytest.raises(ValueError):
        p.embed(ParamContext(("c", "a2", "b2"), (3, 2, 2)), shift)


def test_invert_simple():
    a = parameter(CTX, "a")
    p = add(1, a)
    inv = invert(p)
    # geometric series truncated by nilpotency: 1 - a + a^2
    assert inv == add(sub(ONE, a), a * a)
    assert p * inv == ONE


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        invert(parameter(CTX, "a"))


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
    p = add(poly(CTX, terms), const)
    assert p * invert(p) == ONE
    assert invert(p) * p == ONE


def test_ring_objects():
    # the one ring object left is the rational field every series carries
    assert (QQ.zero, QQ.one) == (0, 1)
    assert TruncatedSeries.one(2).ring is QQ
    assert ZERO == 0 and ONE == 1 and ONE * Fraction(2, 3) == Fraction(2, 3)


def test_immutability():
    p = parameter(CTX, "a")
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


# Reference kernel on tuple exponent vectors and Fraction coefficients, with
# the bounds checked coordinate by coordinate; the packed kernel must agree.


def reference_poly(context, terms):
    clean = {}
    for exps, c in terms.items():
        exps = tuple(exps)
        if any(e > b for e, b in zip(exps, context.bounds)):
            continue
        c = Fraction(c)
        if c:
            clean[exps] = c
    return clean


def reference_add(context, a, b):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, Fraction(0)) + c
    return reference_poly(context, out)


def reference_mul(context, a, b):
    bounds = context.bounds
    out = {}
    if len(a) > len(b):
        a, b = b, a
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if any(x > m for x, m in zip(e, bounds)):
                continue
            prev = out.get(e)
            out[e] = c1 * c2 if prev is None else prev + c1 * c2
    return reference_poly(context, out)


def reference_invert(context, a):
    zero = (0,) * len(context.bounds)
    inv_c = 1 / a[zero]
    step = {e: -c * inv_c for e, c in a.items() if e != zero}
    result, power = {zero: inv_c}, {zero: Fraction(1)}
    while power := reference_mul(context, power, step):
        result = reference_add(context, result, {e: c * inv_c for e, c in power.items()})
    return result


def assert_matches(context, got, expected):
    # stored in lowest terms, with no zero numerator
    assert got.den > 0 and gcd(got.den, *got.terms.values()) == 1
    assert all(got.terms.values())
    assert got == poly(context, expected)
    assert len(got.terms) == len(expected)
    for exps, c in expected.items():
        assert coefficient(got, exps) == c


# bounds at 2**k - 1 fill their k value bits, bounds at 2**k start a longer field
BOUNDS = (1, 2, 3, 4, 7, 8, 15, 16)


@st.composite
def context_and_polys(draw, count):
    bounds = draw(st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=6))
    context = ParamContext(tuple(f"p{i}" for i in range(len(bounds))), tuple(bounds))
    # exponents up to one over the bound, so construction has terms to drop
    exps = st.tuples(*(st.integers(0, b + 1) for b in bounds))
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return context, [draw(st.dictionaries(exps, coeffs, max_size=6)) for _ in range(count)]


@given(context_and_polys(3), rationals.filter(lambda c: c != 0))
@settings(deadline=None)
def test_packed_kernel_matches_reference(case, const):
    context, (ta, tb, tc) = case
    ra, rb, rc = (reference_poly(context, t) for t in (ta, tb, tc))
    a, b, c = (poly(context, t) for t in (ta, tb, tc))
    assert_matches(context, a, ra)
    assert_matches(context, a * b, reference_mul(context, ra, rb))
    assert_matches(context, a * b * c, reference_mul(context, reference_mul(context, ra, rb), rc))
    assert_matches(context, add(a, b), reference_add(context, ra, rb))
    assert_matches(context, a * const, {e: v * const for e, v in ra.items()})
    over = tuple(bound + 1 for bound in context.bounds)
    assert coefficient(a, over) == 0
    assert constant_term(a) == ra.get((0,) * len(over), 0)

    zero = (0,) * len(over)
    unit = {**{e: v for e, v in rb.items() if e != zero}, zero: const}
    assert_matches(context, invert(poly(context, unit)), reference_invert(context, unit))

    # equal values built different ways store equal data
    assert (a * Fraction(1, 3)) * 3 == a
    assert sub(add(a, b), b) == a
    assert a * b == b * a
    assert add(a, b) * c == add(a * c, b * c)
    assert add(a, b) * sub(a, b) == sub(a * a, b * b)  # the cross terms cancel
    assert a * 0 == poly(context, {})
    assert bool(a) == bool(ra)
