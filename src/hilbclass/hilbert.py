"""Multiplicative classes of the tangent and tautological sheaves on the
Hilbert schemes of points on the affine plane, and the cup product of their
cohomology rings.

A multiplicative class is determined by a power series f with f(0) = 1 and a
target (tangent sheaf or tautological sheaf of the structure sheaf).  The
exponent series g of the class in the creation-operator basis comes from a
Lagrange inversion:

* tangent:       dg/dt ( x / (f(x) f(-x)) ) = f(x) f(-x)
* tautological:  dg/dt ( x / f(-x) )        = f(-x)

The built-in f come from closed forms: (1 + x)^r (Chern at r = 1, Segre at
r = -1) from the binomial recurrence, which stops at its first zero
coefficient, and the square root of Todd as the -1/2 power of
(1 - e^-x)/x, by Miller's power recurrence on integer sums.

Both series are cross-checked by localisation at the torus fixed points:
the tangent Chern roots are the +-hook lengths of the cells, the
tautological ones the cell contents, and only the hooks (n-a, 1^a) have a
nonzero n-cycle character.  On a hook that character is (-1)^a, the hook
product n a! (n-a-1)!, the hook lengths {n} u {1..n-a-1} u {1..a} and the
contents {-(n-a-1)..a} (Macdonald, Symmetric Functions and Hall
Polynomials, I.1 and I.7).  So each hook's product of root factors is
T_j(-x) T_i(x) for one prefix-product table T_j = prod_(k=1..j) f(k x),
and the signed sum over the hooks is the appendix series P_(n-1) up to a
factor: one table and one sum give both oracles and P_n.  The sum's
summands pair off under x -> -x, so it takes half of them.

The cup product on the weight-n piece comes from the class algebra of the
symmetric group S_n (Lehn-Sorger): under q_lam <-> z(lam) * C_lam, with C_lam
the sum of the permutations of cycle type lam and z(lam) its centralizer
order, the ring is the degree-graded centre of Q[S_n].  The Frobenius
character formula gives each structure constant,

    [q_rho] q_lam * q_mu = (1/z(rho)) sum_chi chi(lam) chi(mu) chi(rho) H(chi),

H(chi) the hook product of the shape of chi, for every rho with
n - len(rho) = (n - len(lam)) + (n - len(mu)); all other coefficients vanish.
Both chi and H(chi) are read from the shape's beads, one int per shape.
The paper's own route, which multiplies two universal classes with
nilpotent parameter coefficients and extracts multilinear coefficients, is
kept as the independent oracle `cup_nilpotent`; it reads no character
table.  Each factor's F = f(-x) depends only on its part multiplicities
and n, and the coefficients 0..m-1 of F^m have a closed form by
Lagrange-Buermann inversion (Stanley, EC2 5.4; Gessel, "Lagrange
inversion", JCTA 144, 2016), tabulated once per factor over its own
parameters with no series reversion.  The two factors' parameters are
disjoint, so the multilinear coefficient of a pair's product splits into a
sum of products of one top-coefficient table per factor, and the pair's
own exponent series is never formed.  A depth-first walk builds each
table, computing only what the factor's top parameter monomial can still
reach.  No series or Fock element ever holds a parameter polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm, prod

from .exact import ParamContext, ParamPoly
from .fock import FockElement, exp_linear
from .partitions import (
    _mn,
    beads,
    check_partition,
    enumerate_partitions,
    hook_product,
    multiplicities,
    weight,
    z_of,
)
from .series import TruncatedSeries, _convolve, _integer_numerators, lagrange_g

TANGENT = "tangent"
TAUTOLOGICAL = "tautological"


def _require_unit_one(f: TruncatedSeries):
    if f.coeffs[0] != 1:
        raise ValueError("the defining series must have constant term 1")


# -- built-in defining series --------------------------------------------


def sqrt_todd_f(order: int) -> TruncatedSeries:
    """f = sqrt(x / (1 - e^-x)) (square root of the Todd class), the -1/2
    power of u = (1 - e^-x)/x, u_k = (-1)^k / (k+1)!.  From u f' = -(1/2) u' f,
    2n f_n = sum_(k=1..n) (k - 2n) u_k f_(n-k) (J. C. P. Miller's power
    recurrence; Knuth, TAOCP Vol. 2, 4.7).  Each f_n is one `Fraction` of
    one integer sum over L = lcm_k(den(f_(n-k)) (k+1)!): summing the terms
    as `Fraction`s instead was 2.4-4x slower at orders 20-240."""
    fact = [1]  # fact[k] = (k+1)!
    for k in range(2, order + 2):
        fact.append(fact[-1] * k)
    f = [Fraction(1)]
    for n in range(1, order + 1):
        dens = [f[n - k].denominator * fact[k] for k in range(1, n + 1)]
        L = lcm(*dens)
        total = sum((2 * n - k if k % 2 else k - 2 * n) * f[n - k].numerator * (L // den)
                    for k, den in enumerate(dens, 1))
        f.append(Fraction(total, 2 * n * L))
    return TruncatedSeries(order, f)


def cprime_pow_f(r, order: int) -> TruncatedSeries:
    """f = (1 + x)^r for rational r = p/q: the binomial series,
    c_k = c_(k-1) (p - (k-1) q) / (q k), each step factor one `Fraction` of
    two ints, up to its first zero coefficient (c_(r+1) for an integer
    r >= 0), then zeros.  A running numerator and denominator over q^k k!
    would leave one gcd of two k-fold products to every coefficient, which
    is slower for a long q: r = 10^-100 took 162 ms at order 120 that way,
    9 ms this way."""
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        step = p - (k - 1) * q
        if not step:
            break
        coeffs.append(coeffs[-1] * Fraction(step, q * k))
    return TruncatedSeries(order, coeffs + [Fraction(0)] * (order + 1 - len(coeffs)))


def builtin_f(name: str, order: int, r=None) -> TruncatedSeries:
    if name == "chern":
        return cprime_pow_f(1, order)
    if name == "segre":
        return cprime_pow_f(-1, order)
    if name == "sqrt-todd":
        return sqrt_todd_f(order)
    if name == "cprime-pow":
        if r is None:
            raise ValueError("cprime-pow needs the exponent r")
        return cprime_pow_f(r, order)
    raise ValueError(f"unknown class name {name!r}")


# -- exponent series of the two theorems ---------------------------------


def tangent_g(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """Exponent series for a multiplicative class of the tangent sheaf."""
    _require_unit_one(f)
    return lagrange_g(f * f.negate_arg(), order)


def taut_g(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """Exponent series for a multiplicative class of the tautological sheaf."""
    _require_unit_one(f)
    return lagrange_g(f.negate_arg(), order)


def exponent_g(f: TruncatedSeries, target: str, order: int) -> TruncatedSeries:
    """`tangent_g` or `taut_g` of f, as `target` names the sheaf."""
    if target == TANGENT:
        return tangent_g(f, order)
    if target == TAUTOLOGICAL:
        return taut_g(f, order)
    raise ValueError(f"unknown target {target!r}")


def hilbert_class(f: TruncatedSeries, target: str, bound: int, only: int | None = None,
                  degree: int | None = None, make=Fraction, label=None) -> FockElement:
    """The class of f (constant term 1, order at least `bound` - 1) on the
    sheaf `target`, all weights up to `bound` at once, or just its terms of
    weight `only` and/or algebraic degree `degree`: exp(sum_k g_k q_k)
    applied to the vacuum, each coefficient built by `make` and each key
    from the part table `label` (see `exp_linear`)."""
    return exp_linear(exponent_g(f, target, bound), bound, only, degree, make, label)


# -- fixed-point oracles --------------------------------------------------


def _hook_sum(nums, m: int) -> list[int]:
    """Integer numerators of K_m = sum_(s=0..m) (-1)^s C(m, s) T_(m-s)(-x) T_s(x),
    truncated at x^m, from the one prefix table T_j = prod_(k=1..j) f(k x),
    j = 0..m, for the f with numerators `nums` over a denominator d: K_m is
    over d^m.  T_j(-x) is T_j with its odd coefficients negated.  Summand
    m - s is summand s at -x times (-1)^m, so the two give twice summand s
    at the x^i with i + m even and cancel at the others, and the middle
    one, s = m/2, is its own mirror: only the summands s <= m/2 are formed."""
    table = [[1] + [0] * m]
    for k in range(1, m + 1):
        table.append(_convolve(table[-1], [a * k**i for i, a in enumerate(nums)], m))
    total = [0] * (m + 1)
    for s in range(m // 2 + 1):
        mirror = [(-1) ** i * a for i, a in enumerate(table[m - s])]
        weight_s = (-1) ** s * comb(m, s) * (1 if 2 * s == m else 2)
        total = [t + weight_s * p for t, p in zip(total, _convolve(mirror, table[s], m))]
    return [t if (i + m) % 2 == 0 else 0 for i, t in enumerate(total)]


def _fixed_point_sum(f: TruncatedSeries, n: int, tangent: bool) -> Fraction:
    """sum over the hooks (n-a, 1^a) of (-1)^a / (n H) [x^(n-1)] prod_r f(r x),
    r over the Chern roots, H = n a! (n-a-1)!: weight (-1)^a C(n-1, a) over
    n n!.  The contents -(n-a-1)..a give T_(n-1-a)(-x) f(0) T_a(x), so the
    sum is [x^(n-1)] K_(n-1)(f) / (n n!); the hook lengths {n} u
    {1..n-a-1} u {1..a} give [x^(n-1)] F(n x) K_(n-1)(F) / (n n!), F =
    f(x) f(-x), which is even.  On integer numerators, divided once."""
    if n < 1:
        raise ValueError("the oracle needs n >= 1")
    _require_unit_one(f)
    if f.order < n - 1:
        raise ValueError("series truncated too low for this n")
    den, nums = _integer_numerators(f.coeffs[:n])
    if not tangent:
        return Fraction(_hook_sum(nums, n - 1)[n - 1], n * factorial(n) * den ** (n - 1))
    nums = _convolve(nums, [(-1) ** i * a for i, a in enumerate(nums)], n - 1)
    hook_sum = _hook_sum(nums, n - 1)
    top = sum(a * n**i * hook_sum[n - 1 - i] for i, a in enumerate(nums))
    return Fraction(top, n * factorial(n) * den ** (2 * n))


def oracle_top_tangent(f: TruncatedSeries, n: int) -> Fraction:
    """The q_(n)-coefficient of the top-degree class on the weight-n piece,
    by summation over the torus fixed points whose n-cycle character is
    nonzero, the hooks (tangent Chern roots: +-hook length per cell).  Must
    equal coefficient n of tangent_g(f)."""
    return _fixed_point_sum(f, n, True)


def oracle_top_taut(f: TruncatedSeries, n: int) -> Fraction:
    """Same fixed-point sum for the tautological sheaf, whose Chern roots
    specialize to the cell contents row - column.  Must equal coefficient n
    of taut_g(f)."""
    return _fixed_point_sum(f, n, False)


# -- the two appendix identities -----------------------------------------


def lemma_b1(m: int, p: int) -> Fraction:
    """sum_{s=0}^m (-1)^s s^p / (s! (m-s)!) = sum_s (-1)^s C(m, s) s^p / m!;
    vanishes for p < m and equals (-1)^m at p = m."""
    if not 0 <= p <= m:
        raise ValueError("need 0 <= p <= m")
    return Fraction(sum((-1) ** s * comb(m, s) * s**p for s in range(m + 1)), factorial(m))


def p_n_series(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """P_n = sum_{s=0}^n (-1)^s/(s!(n-s)!) prod_{k=-(n-s)}^{s} f(k x), to x^n.

    Its coefficients below x^n vanish and the x^n coefficient equals
    (-1)^n [x^n] f^(n+1).  Summand s's product is T_(n-s)(-x) f(0) T_s(x),
    so P_n is the hook sum K_n / n!, on integer numerators over f's common
    denominator d, divided by n! d^n once per coefficient.
    """
    _require_unit_one(f)
    if f.order < n:
        raise ValueError("series truncated below the requested order")
    den, nums = _integer_numerators(f.coeffs[: n + 1])
    scale = factorial(n) * den**n
    return TruncatedSeries(n, [Fraction(t, scale) for t in _hook_sum(nums, n)])


# -- cup product in the class algebra of the symmetric group -------------


@lru_cache(maxsize=None)
def _cup_basis_cached(nu: tuple[int, ...], nu2: tuple[int, ...]) -> FockElement:
    n = weight(nu)
    length = len(nu) + len(nu2) - n  # degree additivity fixes the length
    shapes = [(mask, w * hook_product(mask)) for mask in map(beads, enumerate_partitions(n))
              if (w := _mn(mask, nu) * _mn(mask, nu2))]
    out = {}
    for rho in enumerate_partitions(n):
        if len(rho) != length:
            continue
        total = sum(w * _mn(mask, rho) for mask, w in shapes)
        if total:
            out[rho] = Fraction(total, z_of(rho))
    return FockElement(out)


def _same_rank_pair(nu, nu2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    nu = check_partition(nu)
    nu2 = check_partition(nu2)
    if weight(nu) != weight(nu2) or weight(nu) < 1:
        raise ValueError("the cup product needs two partitions of the same n >= 1")
    if nu2 < nu:  # cup is commutative; canonicalize
        nu, nu2 = nu2, nu
    return nu, nu2


def cup_basis(nu, nu2) -> FockElement:
    """Cup product of the basis monomials q_nu and q_nu2 on the weight-n
    piece, n = weight(nu) = weight(nu2).

    The ring is the degree-graded class algebra of the symmetric group
    S_n (Lehn-Sorger), with q_lam <-> z(lam) * C_lam, C_lam the sum of the
    permutations of cycle type lam.  The Frobenius character formula then
    gives every structure constant: for each rho with n - len(rho) =
    (n - len(nu)) + (n - len(nu2)),

        [q_rho] q_nu * q_nu2 = (1/z(rho)) sum_chi chi(nu) chi(nu2) chi(rho) H(chi)

    over the irreducible characters chi of S_n, H(chi) the hook product of
    its shape.  Other rho get coefficient zero.  `cup_nilpotent` is the
    independent oracle.  Unequal weights are rejected (the product across
    different weights is zero by definition; rejecting catches caller
    mistakes).
    """
    return _cup_basis_cached(*_same_rank_pair(nu, nu2))


def cup(a: FockElement, b: FockElement, n: int) -> FockElement:
    """Bilinear extension of cup_basis to elements supported in weight n >= 1,
    whose keys, partitions already, go to its product cache unchecked."""
    if n < 1:
        raise ValueError("the cup product needs n >= 1")
    for elem in (a, b):
        if any(weight(p) != n for p in elem.terms):
            raise ValueError(f"element has support outside weight {n}")
    out = {}
    for p1, c1 in a.terms.items():
        for p2, c2 in b.terms.items():
            c = c1 * c2
            pair = _cup_basis_cached(p1, p2) if p1 <= p2 else _cup_basis_cached(p2, p1)
            for p, v in pair.terms.items():
                out[p] = out.get(p, 0) + c * v
    # one weight, so the canonical order is reverse-lexicographic
    return FockElement({p: out[p] for p in sorted(out, reverse=True) if out[p]})


# -- oracle: cup product via nilpotent parameters -------------------------


@lru_cache(maxsize=None)
def _factor_powers(mults: tuple[tuple[int, int], ...], n: int):
    """Coefficients 0..m-1 of F^m, m = 1..n, for the F = f(-x) of the
    universal class with part multiplicities `mults` (sorted (part, count)
    pairs), over a context holding only this factor's parameters rho_k.

    x/F is the compositional inverse of t + sum_k k rho_k t^k, so by
    Lagrange-Buermann inversion, for 0 <= i < m,

        [x^i] F^m = m/(m-i) [t^i] (1 + sum_k k rho_k t^(k-1))^(m-i).

    As rho_k^(c_k + 1) = 0, the power is a finite multinomial sum over
    exponent vectors e <= c: e adds (m-i)! / ((m-i-|e|)! prod e_k!) prod k^(e_k)
    at rho^e t^(sum e_k (k-1)).  Both divisions are exact on ints:
    m (m-i-1)! / (m-i-|e|)! is m!/(m-|e|)! at i = 0 and has |e| >= 1
    otherwise, and F, so each term, is integral in the parameters."""
    context = ParamContext(tuple(c for _, c in mults))
    by_degree = [[] for _ in range(n)]  # t-degree -> (packed monomial, |e|, prod k^e_k, prod e_k!)
    for e in product(*(range(c + 1) for _, c in mults)):
        deg = sum(x * (k - 1) for x, (k, _) in zip(e, mults))
        if deg < n:
            powers = prod(k**x for x, (k, _) in zip(e, mults))
            by_degree[deg].append((context.pack(e), sum(e), powers, prod(map(factorial, e))))
    return tuple(
        tuple(ParamPoly._make(context, {key: m * factorial(m - i - 1) // factorial(m - i - size)
                                        * num // div for key, size, num, div in by_degree[i]
                                        if size <= m - i})
              for i in range(m))
        for m in range(1, n + 1))


@lru_cache(maxsize=None)
def _factor_tops(mults: tuple[tuple[int, int], ...], n: int):
    """{lam: (divisor, row, complement row)} over the partitions lam of n,
    reverse-lexicographically, for the factor with part multiplicities
    `mults`: the row maps each i with 0 <= i_j < lam_j to the nonzero
    T(lam, i) = [top] prod_j [x^(i_j)] F^(lam_j), the complement row maps
    lam - 1 - i to it, and the divisor is prod lam_j^2 prod m_i!.

    The walk appends parts in decreasing order.  [x^i] F^m is homogeneous
    of weighted degree i, a parameter of part size p weighing p - 1, so
    sum i_j must reach the top's degree D = n - len(nu), and after part k
    no factor raises a parameter of part size above k: before multiplying
    by [x^i] F^k the walk keeps only the monomials at their bounds in those
    fields, and where k ends the weight it reads the top coefficient alone."""
    powers = _factor_powers(mults, n)
    context = powers[0][0].context
    top = context.pack(context.bounds)
    D = sum((k - 1) * c for k, c in mults)
    fields = [((1 << b.bit_length()) - 1) << s for b, s in zip(context.bounds, context.shifts)]
    need = [(mask, top & mask) for mask in
            (sum(f for f, (p, _) in zip(fields, mults) if p > k) for k in range(n + 1))]
    # [x^i] F^k by top - x: the coefficient that completes x to the top monomial
    rev = [None] + [[{top - x: a for x, a in c.terms.items()} for c in row] for row in powers]
    out = {}
    # key, largest part allowed, weight left, divisor, last run, branches (i, sum i, terms);
    # a leaf, its parent's largest child, is written as its parent pops, so lam comes in order
    stack = [((), n, n, 1, 0, [((), 0, {0: 1})])]
    while stack:
        key, last, left, d, run, branches = stack.pop()
        for k in range(1, min(last, left) + 1):  # pushed in increasing order: the largest pops first
            m = run + 1 if k == last else 1
            rest = left - k
            if not rest:
                row = {}
                for i, s, c in branches:  # the cut below keeps 0 <= D - s < k
                    get = rev[k][D - s].get
                    if total := sum(a * get(x, 0) for x, a in c.items()):
                        row[i + (D - s,)] = total
                if row:
                    lam = key + (k,)
                    out[lam] = (d * k * k * m, row, {tuple(p - 1 - j for p, j in zip(lam, i)): t
                                                     for i, t in row.items()})
                continue
            mask, want = need[k]
            # the rest has at least ceil(rest / k) parts, each adding at most its size - 1
            reach = rest + (-rest // k)
            children = []
            for i, s, c in branches:
                kept = ParamPoly._make(context, {x: a for x, a in c.items() if x & mask == want})
                for j in range(max(0, D - s - reach), min(k, D - s + 1)):
                    if ck := kept * powers[k - 1][j]:
                        children.append((i + (j,), s + j, ck.terms))
            if children:
                stack.append((key + (k,), k, rest, d * k * k * m, m, children))
    return out


def cup_nilpotent(nu, nu2) -> FockElement:
    """cup_basis by the paper's route: take the universal class
    exp(sum (t-shifted parameter series) q_k) of each factor, multiply the
    two through the tautological Lagrange formula, and extract the
    coefficient multilinear in the parameters of both factors from the
    weight-n piece.  A parameter of bound b stands for b parts of one size,
    so that coefficient is the one at the top monomial (every exponent at
    its bound) times prod b!: for q_lam, that of prod H_(lam_j), H_m =
    [x^(m-1)] (F1 F2)^m = m^2 h_m, over prod lam_j^2 prod m_i!.  The
    factors' parameters are disjoint, so H_m = sum_i [x^i] F1^m
    [x^(m-1-i)] F2^m and that coefficient is the sum over i of
    T1(lam, i) T2(lam, lam - 1 - i) from the factors' `_factor_tops`."""
    nu, nu2 = _same_rank_pair(nu, nu2)
    n = weight(nu)
    length = len(nu) + len(nu2) - n  # degree additivity fixes the length
    m1, m2 = (tuple(sorted(multiplicities(p).items())) for p in (nu, nu2))
    scale = prod(factorial(c) for _, c in m1 + m2)
    tops = _factor_tops(m2, n)
    out = {}
    for lam, (d, _, complement) in _factor_tops(m1, n).items():
        if len(lam) == length and lam in tops:
            get = tops[lam][1].get
            if total := sum(a * get(i, 0) for i, a in complement.items()):
                out[lam] = Fraction(total * scale, d)
    return FockElement(out)
