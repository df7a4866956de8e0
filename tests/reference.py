"""Reference routes for the tests, each defined once, here.

Each one either recomputes a quantity the library computes by a different
route, so a test can compare the two, or supplies an operation the library
does not need (the series exp, inverse, log, square root, composition
and reversion; the Fock sum and product; polynomials in nilpotent
parameters).
The test modules import from this module and never from one another.  It
has no `test_` prefix, so pytest does not collect it.
"""

import json
import operator
from fractions import Fraction
from math import comb, factorial, prod
from typing import NamedTuple

from hilbclass import hilbert
from hilbclass.hilbert import TANGENT
from hilbclass.partitions import (
    _mn,
    beads,
    check_partition,
    enumerate_partitions,
    multiplicities,
    weight,
)
from hilbclass.series import TruncatedSeries, _convolve, _integer_numerators, lagrange_g

# Truncated power series.  The library has the product, `x -> -x` and the
# Lagrange solver; the rest are references.


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum of two series of one order."""
    assert a.order == b.order
    return TruncatedSeries(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def scale(s: TruncatedSeries, c) -> TruncatedSeries:
    """Multiple of every coefficient by the scalar c."""
    return TruncatedSeries(s.order, [a * c for a in s.coeffs])


def convolve(a, b, zero, plus=operator.add, times=operator.mul):
    """Truncated product of two coefficient lists, the plain double loop
    over every pair, to the length of `a`; `plus` adds two coefficients
    and `times` multiplies them."""
    n = len(a) - 1
    out = [zero] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = plus(out[i + j], times(a[i], b[j]))
    return out


def inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a rational series with nonzero constant term."""
    inv0 = 1 / s.coeffs[0]
    out = [inv0] + [Fraction(0)] * s.order
    for k in range(1, s.order + 1):
        out[k] = -sum(s.coeffs[j] * out[k - j] for j in range(1, k + 1)) * inv0
    return TruncatedSeries(s.order, out)


def exp(s: TruncatedSeries) -> TruncatedSeries:
    """Exp of a rational series with constant term 0, by
    n e_n = sum_j j a_j e_(n-j) over the nonzero a_j."""
    assert s.coeffs[0] == 0
    terms = [(j, a * j) for j, a in enumerate(s.coeffs) if a]
    out = [Fraction(1)] + [Fraction(0)] * s.order
    for n in range(1, s.order + 1):
        out[n] = Fraction(sum(ja * out[n - j] for j, ja in terms if j <= n), n)
    return TruncatedSeries(s.order, out)


def log(s: TruncatedSeries) -> TruncatedSeries:
    """Log of a rational series with constant term 1."""
    assert s.coeffs[0] == 1
    out = [Fraction(0)] * (s.order + 1)
    for n in range(1, s.order + 1):
        acc = s.coeffs[n] * n - sum(out[j] * s.coeffs[n - j] * j for j in range(1, n))
        out[n] = acc / n
    return TruncatedSeries(s.order, out)


def sqrt_unit(s: TruncatedSeries) -> TruncatedSeries:
    """Square root, with constant term 1, of a rational series with
    constant term 1."""
    assert s.coeffs[0] == 1
    out = [Fraction(1)] + [Fraction(0)] * s.order
    for n in range(1, s.order + 1):
        out[n] = (s.coeffs[n] - sum(out[j] * out[n - j] for j in range(1, n))) / 2
    return TruncatedSeries(s.order, out)


def x_derivative(s: TruncatedSeries) -> TruncatedSeries:
    """x d/dx, keeping the order."""
    return TruncatedSeries(s.order, [a * k for k, a in enumerate(s.coeffs)])


def derivative(s: TruncatedSeries) -> TruncatedSeries:
    """d/dx; the result has order one less."""
    return TruncatedSeries(s.order - 1, [s.coeffs[k] * k for k in range(1, s.order + 1)])


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner), by Horner evaluation; inner must kill the constant."""
    if inner.coeffs[0] != 0:
        raise ValueError("compose needs inner constant term 0")
    result = TruncatedSeries.from_coeffs([], outer.order)
    for c in reversed(outer.coeffs):
        result = result * inner
        result = TruncatedSeries(outer.order, (result.coeffs[0] + c,) + result.coeffs[1:])
    return result


def reference_lagrange_g(F: TruncatedSeries, order: int) -> TruncatedSeries:
    """The Lagrange power loop on `Fraction` series: g_m = [x^(m-1)] F^m / m^2,
    F^m one truncated series product per step, with no common denominator
    kept from one step to the next."""
    work = max(order - 1, 0)
    Ft = F.truncate(work)
    out = [Fraction(0)] * (order + 1)
    power = TruncatedSeries.one(work)
    for m in range(1, order + 1):
        power = power * Ft
        out[m] = power.coeffs[m - 1] * Fraction(1, m * m)
    return TruncatedSeries(order, out)


def revert(s: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse of a rational series, by Lagrange inversion:
    writing s as x/F, the inverse is t dg/dt for g = lagrange_g(F), here
    from the library solver.  Needs constant term 0 and a nonzero linear
    coefficient."""
    if s.coeffs[0] != 0:
        raise ValueError("revert needs constant term 0")
    if s.order < 1 or s.coeffs[1] == 0:
        raise ValueError("revert needs a unit linear coefficient")
    F = inverse(TruncatedSeries(s.order - 1, s.coeffs[1:]))
    return x_derivative(lagrange_g(F, s.order))


def fraction_set(bound: int, max_denominator: int) -> list[Fraction]:
    """Every rational in [-bound, bound] with denominator at most
    `max_denominator`, sorted: the support of `st.fractions(min_value=-bound,
    max_value=bound, max_denominator=max_denominator)`, for `st.sampled_from`,
    which draws from it without building a strategy per draw."""
    return sorted({Fraction(p, q) for q in range(1, max_denominator + 1)
                   for p in range(-bound * q, bound * q + 1)})


def one_minus_exp_minus_x_over_x(order: int) -> TruncatedSeries:
    """(1 - e^-x)/x = sum_k (-1)^k x^k / (k+1)!, written out."""
    return TruncatedSeries.from_coeffs(
        [Fraction((-1) ** k, factorial(k + 1)) for k in range(order + 1)], order)


# Polynomials in nilpotent parameters with integer coefficients, as dicts
# from exponent tuples to nonzero ints.  Parameter i has the bound
# bounds[i]: rho_i^(bounds[i] + 1) = 0, so a monomial over a bound drops.


class ParamBounds(NamedTuple):
    bounds: tuple[int, ...]

    def mul(self, a, b):
        return reference_mul(self, a, b)

    def constant(self, value: int) -> dict:
        return {(0,) * len(self.bounds): value} if value else {}

    def parameter(self, index: int) -> dict:
        return {tuple(int(i == index) for i in range(len(self.bounds))): 1}


def reference_mul(context, a, b):
    """The product, exponent tuples added coordinate by coordinate and
    those over a bound dropped."""
    bounds = context.bounds
    out = {}
    if len(a) > len(b):
        a, b = b, a
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if all(x <= m for x, m in zip(e, bounds)):
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_scale(a: dict, c: int) -> dict:
    return {e: v * c for e, v in a.items()} if c else {}


def poly_invert(context: ParamBounds, p: dict) -> dict:
    """Inverse of 1 plus a nilpotent part: the geometric series in 1 - p,
    which terminates."""
    one = context.constant(1)
    assert p.get(next(iter(one))) == 1, "not 1 plus a nilpotent part"
    step = poly_add(one, poly_scale(p, -1))
    result = power = one
    while power := context.mul(power, step):
        result = poly_add(result, power)
    return result


# Weight-truncated creation-monomial combinations, each a dict
# {partition: coefficient}.  The library has the expansion walk
# (`fock._exp_walk`, behind `hilbert_class`) and the cup product; the rest
# are references.


def exp_linear_reference(coeffs, bound: int, one=Fraction(1), dens=None,
                         times=operator.mul) -> dict:
    """exp(sum_k coeffs[k] q_k) by visiting every partition of every weight
    up to the bound, one coefficient multiply (`times`) per part, starting
    from `one`.  The coefficients may be rationals, each term then its
    product over prod m_i!, or ints or parameter polynomials with divisors
    `dens`, each term then the pair (product, prod dens[part] prod m_i!),
    kept apart, and dropped where the product vanishes."""
    terms = {}
    for n in range(bound + 1):
        for parts in enumerate_partitions(n):
            c = one
            for part in parts:
                c = times(c, coeffs[part])
            d = prod(factorial(m) for m in multiplicities(parts).values())
            if dens is not None:
                if c:
                    terms[parts] = (c, d * prod(dens[part] for part in parts))
            elif c := c * Fraction(1, d):
                terms[parts] = c
    return terms


def restrict(e: dict, only=None, degree=None) -> dict:
    """The terms of e of weight `only` and of algebraic degree `degree`
    (weight - length), each condition skipped when None."""
    return {
        p: c for p, c in e.items()
        if (only is None or weight(p) == only) and (degree is None or weight(p) - len(p) == degree)
    }


def record_text(partition, coeff) -> str:
    """The payload record {"coeff": str(coeff), "partition": [...]} after its
    separator, as json.dumps(indent=2, sort_keys=True) writes it one level
    deep: the text the CLI's record writer must give."""
    doc = {"coeff": str(coeff), "partition": list(partition)}
    return ",\n    " + json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\n    ")


def canonical(partitions) -> list:
    """Partitions in output order: by weight, then reverse-lexicographically."""
    out = sorted(partitions, reverse=True)
    out.sort(key=weight)  # stable: keeps revlex order
    return out


def fock_add(a: dict, b: dict, bound: int) -> dict:
    """Sum of two elements of weight at most `bound`, in canonical order; a
    coefficient that cancels is dropped, and a term over the bound raises."""
    if not isinstance(b, dict):
        raise TypeError("expected a dict of terms")
    if any(weight(p) > bound for e in (a, b) for p in e):
        raise ValueError(f"a term of weight over {bound}")
    out = dict(a)
    for parts, c in b.items():
        if parts in out:
            c = out.pop(parts) + c
            if not c:
                continue
        out[parts] = c
    return {p: out[p] for p in canonical(out)}


def fock_scale(e: dict, c) -> dict:
    """Multiple of every coefficient by the scalar c."""
    return {p: w for p, v in e.items() if (w := v * c)}


def fock_product(a: dict, b: dict, bound: int) -> dict:
    """Fock (symmetric-algebra) product: multiset union of partitions, terms
    of weight beyond `bound` dropped."""
    out = {}
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            if weight(p1) + weight(p2) <= bound:
                merged = tuple(sorted(p1 + p2, reverse=True))
                out[merged] = out.get(merged, 0) + c1 * c2
    return {p: c for p, c in out.items() if c}


def assert_valid_terms(e: dict, bound: int, only=None):
    """The invariant every producer of terms keeps: each key a partition
    of weight at most `bound` (exactly `only`, if given), each coefficient
    nonzero."""
    for p, c in e.items():
        assert check_partition(p) == p and weight(p) <= bound, p
        assert only is None or weight(p) == only, p
        assert c, p


# Partitions and characters.  The library reads the character on the
# n-cycle, the hook lengths and the contents of a hook from closed forms.


def partition_count(n: int) -> int:
    """p(n) via the coin-style dynamic program."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def conjugate(parts) -> tuple[int, ...]:
    """The transposed shape: part j counts the parts longer than j."""
    parts = check_partition(parts)
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def hooks(parts) -> tuple[int, ...]:
    """Multiset of hook lengths arm + leg + 1 over all cells of the Young
    diagram (English convention), sorted decreasingly."""
    parts = check_partition(parts)
    conj = conjugate(parts)
    return tuple(sorted((row - j - 1 + conj[j] - i for i, row in enumerate(parts)
                         for j in range(row)), reverse=True))


def contents(parts) -> tuple[int, ...]:
    """Cell contents row - column, in row-major order."""
    parts = check_partition(parts)
    return tuple(i - j for i, row in enumerate(parts) for j in range(row))


def chi_mn(lam, mu) -> int:
    """Irreducible character value by the Murnaghan-Nakayama recursion on
    the shape's beads, with both arguments checked."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if weight(lam) != weight(mu):
        raise ValueError("shape and cycle type must have equal weight")
    return _mn(beads(lam), mu)


def chi_on_n_cycle(parts) -> int:
    """Irreducible character on the full cycle: (-1)**s on the hook shape
    (n - s, 1, ..., 1), zero on every other shape.
    """
    parts = check_partition(parts)
    n = weight(parts)
    if n == 0:
        raise ValueError("character on the n-cycle needs weight >= 1")
    if all(p == 1 for p in parts[1:]):
        return (-1) ** (len(parts) - 1)
    return 0


# The fixed-point and telescoped-product sums as they were before the hook
# prefix-product tables.


def fixed_point_sum(f: TruncatedSeries, n: int, target: str) -> Fraction:
    """sum over lam |- n of chi^lam((n)) / (n H(lam)) times [x^(n-1)] of the
    product over the Chern roots r of lam (+-hook lengths for the tangent
    sheaf, contents for the tautological one) of f(r x): every partition,
    its character by the recursion, and each hook's product rebuilt from
    its roots on integer numerators over f's common denominator."""
    den, nums = _integer_numerators(f.coeffs[:n])
    total = Fraction(0)
    for lam in enumerate_partitions(n):
        chi = chi_mn(lam, (n,))
        if chi == 0:
            continue
        if target == TANGENT:
            rs = [r for h in hooks(lam) for r in (h, -h)]
        else:
            rs = contents(lam)
        product = [1] + [0] * (n - 1)
        for r in rs:
            factor = [a * r**k for k, a in enumerate(nums)]
            product = _convolve(product, factor, n - 1)
        total += Fraction(chi * product[n - 1], prod(hooks(lam)) * n * den ** len(rs))
    return total


def p_n_series(f: TruncatedSeries, n: int, order: int) -> TruncatedSeries:
    """P_n = sum_{s=0}^n (-1)^s/(s!(n-s)!) prod_{k=-(n-s)}^{s} f(k x), each
    summand's n + 1 factors f(k x) multiplied from scratch on integer
    numerators over f's common denominator d, the sum divided by
    n! d^(n+1) once per coefficient."""
    den, nums = _integer_numerators(f.coeffs[: order + 1])
    total = [0] * (order + 1)
    for s in range(n + 1):
        product = [1] + [0] * order
        for k in range(-(n - s), s + 1):
            factor = [a * k**j for j, a in enumerate(nums)]
            product = _convolve(product, factor, order)
        weight_s = (-1) ** s * comb(n, s)
        total = [t + weight_s * p for t, p in zip(total, product)]
    scale = factorial(n) * den ** (n + 1)
    return TruncatedSeries(order, [Fraction(t, scale) for t in total])


# The paper's nilpotent cup-product route, literally: F = f(-x) from its
# defining equation, as lists of parameter polynomials with the
# double-loop product and a nilpotent inverse, the Lagrange power loop on
# F1 F2 in the pair's parameters, and the multilinear coefficient of every
# term of the exponential.  It uses none of the library's cup code and
# not its Lagrange solver.


def inverse_params(context: ParamBounds, s):
    """Inverse of a list of parameter polynomials whose constant term is 1
    plus a nilpotent part."""
    inv0 = poly_invert(context, s[0])
    out = [inv0]
    for k in range(1, len(s)):
        acc = {}
        for j in range(1, k + 1):
            acc = poly_add(acc, context.mul(s[j], out[k - j]))
        out.append(poly_scale(context.mul(acc, inv0), -1))
    return out


def reference_f_minus(context: ParamBounds, first, mults, n):
    """Coefficients 0..n-1 of F = f(-x) for g = t + sum_k rho_k t^k, rho_k
    the parameters first, first + 1, ... of `context`, one per part size k
    in increasing order, from dg/dt (x/F) = F, that is
    F = 1 + sum_k k rho_k (x/F)^(k-1).  Each round of the fixed-point
    iteration fixes one more coefficient."""
    one = context.constant(1)
    F = [one] + [{}] * (n - 1)
    for _ in range(n):
        w = [{}] + inverse_params(context, F)[: n - 1]  # x/F
        new = [one] + [{}] * (n - 1)
        for i, k in enumerate(sorted(mults), first):
            term = [one] + [{}] * (n - 1)
            for _ in range(k - 1):
                term = convolve(term, w, {}, poly_add, context.mul)
            rho = poly_scale(context.parameter(i), k)
            new = [poly_add(x, context.mul(rho, y)) for x, y in zip(new, term)]
        F = new
    return F


def reference_pair_exponent(nu, nu2):
    """The pair's parameters and H_1..H_n, H_m = [x^(m-1)] (F1 F2)^m = m^2 h_m,
    with both F from their defining equations."""
    n = weight(nu)
    m1, m2 = multiplicities(nu), multiplicities(nu2)
    context = ParamBounds(tuple(m1[k] for k in sorted(m1)) + tuple(m2[k] for k in sorted(m2)))
    F1 = reference_f_minus(context, 0, m1, n)
    F2 = reference_f_minus(context, len(m1), m2, n)
    F = convolve(F1, F2, {}, poly_add, context.mul)
    H, power = [], [context.constant(1)] + [{}] * (n - 1)
    for m in range(1, n + 1):
        power = convolve(power, F, {}, poly_add, context.mul)
        H.append(power[m - 1])
    return context, H


def multilinear_part(context: ParamBounds, expansion: dict) -> dict:
    """Each term's coefficient at the top parameter monomial (every exponent
    at its bound b), times prod b!, over the term's divisor; terms where it
    vanishes are dropped."""
    bounds = context.bounds
    scale = prod(factorial(b) for b in bounds)
    out = {}
    for parts, (coeff, divisor) in expansion.items():
        c = Fraction(coeff.get(bounds, 0) * scale, divisor)
        if c:
            out[parts] = c
    return out


def reference_expansion(nu, nu2):
    """The pair's context and exp(sum_m h_m q_m) over every partition of
    every weight up to n, each term its parameter polynomial and divisor."""
    n = weight(nu)
    context, H = reference_pair_exponent(nu, nu2)
    dens = [m * m for m in range(n + 1)]  # h_m = H_m / m^2
    return context, exp_linear_reference([0, *H], n, context.constant(1), dens, context.mul)


def reference_cup_nilpotent(nu, nu2):
    """The nilpotent route in the pair's parameters: every partition of
    every weight visited, each term's product of H over prod part^2
    prod m_i!, and its multilinear coefficient read off; a nonzero one
    below weight n raises."""
    n = weight(nu)
    out = multilinear_part(*reference_expansion(nu, nu2))
    for parts, c in out.items():
        if weight(parts) < n:
            raise AssertionError(f"weight-{weight(parts)} term {parts} at rank {n}: {c}")
    return out


def reference_cup(a: dict, b: dict, n: int) -> dict:
    """The bilinear cup product as a double loop over `Fraction` terms, each
    pair product read from `hilbert._cup_basis_cached` in canonical order
    when called; zero terms dropped, reverse-lexicographic order."""
    assert all(weight(p) == n for p in (*a, *b))
    out = {}
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            for p, v in hilbert._cup_basis_cached(min(p1, p2), max(p1, p2)).items():
                out[p] = out.get(p, 0) + c1 * c2 * v
    return {p: out[p] for p in sorted(out, reverse=True) if out[p]}


def reference_assoc_violations() -> list:
    """The basis triples (a, b, c) of ranks 1 to 5 where (a b) c and
    a (b c) differ, each side through `reference_cup` with its inner
    product from `hilbert.cup_basis`: the associativity loop that
    `verify.suite_ring` ran over `Fraction` terms before it scaled its
    products to integers."""
    bad = []
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for a in parts:
            for b in parts:
                ab = hilbert.cup_basis(a, b)
                for c in parts:
                    if (reference_cup(ab, {c: Fraction(1)}, n)
                            != reference_cup({a: Fraction(1)}, hilbert.cup_basis(b, c), n)):
                        bad.append((a, b, c))
    return bad
