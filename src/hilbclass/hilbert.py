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
T_j(-x) T_i(x) for one prefix-product table T_j = prod_(k=1..j) F(k x),
F = f (tautological) or f(x) f(-x) (tangent, times F(n x) for the hook
length n), and the signed sum over the hooks is the appendix series
P_(n-1) of F up to a factor.  That vanishes below x^(n-1), so F(n x) adds
only F(0) = 1.  One table, built once per series to the highest n asked,
gives every g_n of an oracle, or P_n; each coefficient is read from it as
a few dot products, since the summands pair off under x -> -x.

The cup product on the weight-n piece runs the paper's route in closed
form, a block sum in one walk over the blocks that places both factors'
parts at once, each factor's ways memoised (`cup_basis`, whose docstring
has the derivation).  The class algebra of the symmetric group, read
through the Frobenius character formula, is kept as the independent
oracle `cup_character`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod
from operator import mul

from .fock import _exp_walk
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
                  degree: int | None = None, make=None, label=None) -> dict | list:
    """The class of f (constant term 1, order at least `bound` - 1) on the
    sheaf `target`, all weights up to `bound` at once, or just its terms of
    weight `only` and/or algebraic degree `degree`: exp(sum_k g_k q_k)
    applied to the vacuum, g the exponent series, as the dict
    {partition: Fraction} in canonical order.  With each g_k = a_k / b_k
    reduced, a term is prod a_(lambda_i) over prod b_(lambda_i) prod m_i!,
    m_i the part multiplicities.  Given `make`, the terms are instead the
    list of make(key, product, divisor) in that order, each key label[0] +
    label[lambda_1] + ...: the partition by default, its text for a caller
    that only prints it (see `fock._exp_walk`)."""
    g = exponent_g(f, target, bound)
    if only is not None and not 0 <= only <= bound:
        raise ValueError("the single weight must lie in 0..bound")
    if degree is not None and degree < 0:
        raise ValueError("the degree must be nonnegative")
    terms = _exp_walk([c.numerator for c in g.coeffs], [c.denominator for c in g.coeffs],
                      bound, only, degree, make or (lambda key, c, d: (key, Fraction(c, d))),
                      label)
    return terms if make else dict(terms)


# -- fixed-point oracles --------------------------------------------------


def _hook_tables(f: TruncatedSeries, top: int, too_low: str) -> tuple[int, tuple[list, list]]:
    """Check f (constant term 1, order at least `top`, else `too_low`); give
    d and the prefix products T_j = prod_(k=1..j) f(k x), j = 0..top, to
    x^top on the integer numerators of f.coeffs[:top + 1] over d (T_j is
    over d^j), with their mirrors T_j(-x), odd coefficients negated."""
    _require_unit_one(f)
    if f.order < top:
        raise ValueError(too_low)
    den, nums = _integer_numerators(f.coeffs[: top + 1])
    table = [[1] + [0] * top]
    for k in range(1, top + 1):
        table.append(_convolve(table[-1], [a * k**i for i, a in enumerate(nums)], top))
    return den, (table, [[-a if i % 2 else a for i, a in enumerate(t)] for t in table])


def _hook_coeff(tables, m: int, e: int) -> int:
    """[x^e] K_m, K_m = sum_(s=0..m) (-1)^s C(m, s) T_(m-s)(-x) T_s(x), over
    d^m, from the `_hook_tables` pair `tables` (m, e <= top).  Summand m - s
    is summand s at -x times (-1)^m: the two give twice summand s when e + m
    is even and cancel otherwise, and s = m/2 is its own mirror, so only the
    s <= m/2 are read, one dot product each."""
    if (e + m) % 2:
        return 0
    table, mirror = tables
    return sum((-1) ** s * comb(m, s) * (1 if 2 * s == m else 2)
               * sum(map(mul, mirror[m - s], table[s][e::-1])) for s in range(m // 2 + 1))


def _fixed_point_series(F: TruncatedSeries, order: int) -> TruncatedSeries:
    """g_0..g_order, g_n = [x^(n-1)] K_(n-1)(F) / (n n!), every n read from
    one prefix table of F to x^(order-1).  Over the hooks (n-a, 1^a), g_n
    sums (-1)^a / (n H) [x^(n-1)] prod_r f(r x), r over the Chern roots,
    H = n a! (n-a-1)!: weight (-1)^a C(n-1, a) over n n!.  The contents
    give T_(n-1-a)(-x) f(0) T_a(x), so K_(n-1)(f); the hook lengths give
    F(n x) K_(n-1)(F), F = f(x) f(-x).  K_m vanishes below x^m (P_m =
    K_m / m!, the identity `lemma_b1` and `verify appendix` check), so
    F(n x) adds only F(0) = 1 and both sheaves read the one sum."""
    if order < 1:
        raise ValueError("the oracle needs n >= 1")
    den, tables = _hook_tables(F, order - 1, "series truncated too low for this n")
    return TruncatedSeries(order, [Fraction(0)] + [
        Fraction(_hook_coeff(tables, n - 1, n - 1), n * factorial(n) * den ** (n - 1))
        for n in range(1, order + 1)])


def oracle_top_tangent(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """The q_(n)-coefficients, n <= order, of the top-degree classes, by
    summation over the torus fixed points with a nonzero n-cycle character,
    the hooks (tangent Chern roots: +-hook length per cell).  Must equal
    tangent_g(f, order); F = f(x) f(-x) is written out here, not taken from
    `tangent_g`, so a wrong F there still fails `verify oracle`."""
    if order >= 1:  # F(0) = f(0)^2 would let f(0) = -1 through
        _require_unit_one(f)
    return _fixed_point_series(f * f.negate_arg(), order)


def oracle_top_taut(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """Same fixed-point sums for the tautological sheaf, whose Chern roots
    specialize to the cell contents row - column.  Must equal
    taut_g(f, order)."""
    return _fixed_point_series(f, order)


# -- the two appendix identities -----------------------------------------


def lemma_b1(m: int, p: int) -> Fraction:
    """sum_{s=0}^m (-1)^s s^p / (s! (m-s)!) = sum_s (-1)^s C(m, s) s^p / m!;
    vanishes for p < m and equals (-1)^m at p = m."""
    if not 0 <= p <= m:
        raise ValueError("need 0 <= p <= m")
    total, c = 0, 1  # c = (-1)^s C(m, s), carried from one s to the next
    for s in range(m + 1):
        total, c = total + c * s**p, -c * (m - s) // (s + 1)
    return Fraction(total, factorial(m))


def p_n_series_upto(f: TruncatedSeries, top: int) -> list[TruncatedSeries]:
    """P_0..P_top, P_n = sum_{s=0}^n (-1)^s/(s!(n-s)!) prod_{k=-(n-s)}^{s} f(k x),
    to x^n.

    Each P_n's coefficients below x^n vanish and its x^n coefficient equals
    (-1)^n [x^n] f^(n+1).  Summand s's product is T_(n-s)(-x) f(0) T_s(x),
    so P_n is the hook sum K_n / n!: every P_n is read from one prefix
    table (`_hook_tables`) to x^top on integer numerators over f's common
    denominator d, divided by n! d^n once per coefficient.
    """
    den, tables = _hook_tables(f, top, "series truncated below the requested order")
    return [TruncatedSeries(n, [Fraction(_hook_coeff(tables, n, e), factorial(n) * den**n)
                                for e in range(n + 1)]) for n in range(top + 1)]


# -- cup product as a block sum --------------------------------------------


@cache
def _block_ways(sizes: tuple[int, ...], rest: tuple[int, ...], p: int) -> dict:
    """{s: [(counts left, weight)]}: the ways one block of size p takes s of
    the parts of a factor whose distinct part sizes are `sizes`, increasing,
    r_k of size k left in `rest`, summing to p.  It takes e_k of the r_k in
    prod_k C(r_k, e_k) ways, and weighs (s - 1)!; sizes go largest first,
    each e_k covering what smaller parts cannot."""
    takes = [((), 0, 1, p)]  # (counts left, parts taken, weight, sum still to take)
    room = sum(k * r for k, r in zip(sizes, rest))
    for k, r in zip(reversed(sizes), reversed(rest)):
        room -= k * r  # what the smaller parts left can take
        takes = [((r - e,) + left, size + e, v * comb(r, e), q - k * e)
                 for left, size, v, q in takes
                 for e in range(max(0, -((room - q) // k)), min(r, q // k) + 1)]
    ways = {}
    for left, size, v, _ in takes:
        ways.setdefault(size, []).append((left, v * factorial(size - 1)))
    return ways


@cache
def _cup_basis_cached(nu: tuple[int, ...], nu2: tuple[int, ...]) -> dict:
    n = weight(nu)
    length = len(nu) + len(nu2) - n  # degree additivity fixes the length
    # each factor's distinct part sizes, increasing, and their counts
    (k1, c1), (k2, c2) = (zip(*sorted(multiplicities(p).items())) for p in (nu, nu2))
    scale = prod(nu) * prod(nu2)
    out = {}

    def walk(lam, left, states):  # states: (counts left of nu, of nu2) -> weight
        k = length - len(lam)  # parts of lam still to place, summing to left
        if not k:  # lam sums to n, so the one state left has placed every part
            out[lam] = Fraction(sum(states.values()) * scale,
                                prod(map(factorial, multiplicities(lam).values())))
            return
        # p at most the last part and leaving 1 for each later one, at least left / k
        for p in range(min(lam[-1] if lam else n, left - k + 1), (left - 1) // k, -1):
            after = {}
            for (r1, r2), w in states.items():
                ways2 = _block_ways(k2, r2, p)
                for s1, takes1 in _block_ways(k1, r1, p).items():
                    for l2, v2 in ways2.get(p + 1 - s1, ()):
                        for l1, v1 in takes1:
                            after[l1, l2] = after.get((l1, l2), 0) + w * v1 * v2
            if after:
                walk(lam + (p,), left - p, after)

    if length > 0:
        walk((), n, {(c1, c2): 1})
    return out


def cup_basis(nu, nu2) -> dict:
    """Cup product of the basis monomials q_nu and q_nu2 on the weight-n
    piece, n = weight(nu) = weight(nu2), by the paper's route in closed
    form, as {lam: Fraction} in reverse-lexicographic order.  The dict is
    the product cache's own, shared by every later call on the pair: a
    caller copies it before changing it.

    The paper takes the universal class exp(sum_m h_m q_m) of each factor,
    g = t + sum_k rho_k t^k with one nilpotent parameter rho_k per part
    size k, bound c_k = m_k(nu), multiplies the two through the
    tautological Lagrange formula, H_m = m^2 h_m = [x^(m-1)] (F1 F2)^m,
    and reads the coefficient of q_lam at the top monomial of both
    factors' parameters (every exponent at its bound) times prod c_k!.
    That coefficient is prod_j H_(lam_j) over prod lam_j^2 prod m_i(lam)!,
    and H_m = sum_i [x^i] F1^m [x^(m-1-i)] F2^m.

    x/F is the compositional inverse of t + sum_k k rho_k t^k, so by
    Lagrange-Buermann inversion (Stanley, EC2 5.4), for 0 <= i < m, the
    coefficient of rho^e in [x^i] F^m is
    m (m-i-1)! / ((m-i-|e|)! prod e_k!) prod k^(e_k), nonzero only at
    i = sum_k e_k (k - 1) with |e| <= m - i, that is sum_k k e_k <= m.  At
    the top monomial the blocks e^(j) of the factors [x^(i_j)] F^(lam_j)
    take every part of nu, and those sum to n = sum_j lam_j, so block j
    takes parts summing to exactly lam_j, s_j = |e^(j)| = lam_j - i_j of
    them, and contributes lam_j (s_j - 1)!.  The prod k^(e_k) make
    prod(nu); prod c_k! over prod e_k! counts the assignments alpha of the
    labelled parts to the blocks; the lam_j^2 of the two factors cancel the
    divisor; and i1_j + i2_j = lam_j - 1 becomes s1_j + s2_j = lam_j + 1.
    So, for each lam of length len(nu) + len(nu2) - n (summing the last
    condition over j),

        [q_lam] q_nu q_nu2 = prod(nu) prod(nu2) / prod_i m_i(lam)!
                             sum_(alpha, beta) prod_j (s_j(alpha) - 1)! (s_j(beta) - 1)!,

    beta assigning the parts of nu2 alike; other lam get coefficient zero.
    Per lam_j this is a count of minimal cactus factorisations of a
    lam_j-cycle (Goulden-Jackson, Europ. J. Combin. 13, 1992), what the
    degree-graded class algebra keeps.  One depth-first walk takes those
    lam in reverse-lexicographic order, keeping (parts of nu, of nu2 left)
    -> weight; each part p takes s1 parts of nu and p + 1 - s1 of nu2 at
    once (`_block_ways`, memoised by part sizes across pairs), and a
    prefix with no state left is cut.  It reads no character table and no
    series; `cup_character` is the independent oracle.  Unequal weights
    are rejected (the product across different weights is zero by
    definition; rejecting catches caller mistakes).
    """
    nu = check_partition(nu)
    nu2 = check_partition(nu2)
    if weight(nu) != weight(nu2) or weight(nu) < 1:
        raise ValueError("the cup product needs two partitions of the same n >= 1")
    if nu2 < nu:  # cup is commutative; canonicalize
        nu, nu2 = nu2, nu
    return _cup_basis_cached(nu, nu2)


def cup(a: dict, b: dict, n: int) -> dict:
    """Bilinear extension of cup_basis to elements {partition: Fraction}
    supported in weight n >= 1, whose keys, partitions already, go to its
    product cache unchecked; a new dict in reverse-lexicographic order, zero
    terms dropped.  It sums integer numerators, each operand over one common
    denominator and the cached pair products it reads over one more."""
    if n < 1:
        raise ValueError("the cup product needs n >= 1")
    for elem in (a, b):
        if any(weight(p) != n for p in elem):
            raise ValueError(f"element has support outside weight {n}")
    (da, na), (db, nb) = (_integer_numerators(e.values()) for e in (a, b))
    pairs = [(c1 * c2, _cup_basis_cached(p1, p2) if p1 <= p2 else _cup_basis_cached(p2, p1))
             for p1, c1 in zip(a, na) for p2, c2 in zip(b, nb)]
    den = lcm(*(v.denominator for _, pair in pairs for v in pair.values()))
    out = {}
    for c, pair in pairs:
        for p, v in pair.items():
            out[p] = out.get(p, 0) + c * v.numerator * (den // v.denominator)
    # one weight, so the canonical order is reverse-lexicographic
    return {p: Fraction(out[p], da * db * den) for p in sorted(out, reverse=True) if out[p]}


# -- oracle: cup product in the class algebra of the symmetric group -----


@cache
def _shapes(n: int) -> tuple[tuple[int, int], ...]:
    """(beads, hook product) of every shape of n, for `cup_character`."""
    return tuple((mask, hook_product(mask)) for mask in map(beads, enumerate_partitions(n)))


def cup_character(nu: tuple[int, ...], nu2: tuple[int, ...]) -> dict:
    """cup_basis by the class algebra of the symmetric group S_n
    (Lehn-Sorger), with no block table.

    Under q_lam <-> z(lam) C_lam, with C_lam the sum of the permutations of
    cycle type lam and z(lam) its centralizer order, the ring is the
    degree-graded centre of Q[S_n], and the Frobenius character formula
    gives every structure constant: for each rho with n - len(rho) =
    (n - len(nu)) + (n - len(nu2)),

        [q_rho] q_nu * q_nu2 = (1/z(rho)) sum_chi chi(nu) chi(nu2) chi(rho) H(chi)

    over the irreducible characters chi of S_n, H(chi) the hook product of
    its shape; other rho get coefficient zero.  Both chi and H(chi) are
    read from the shape's beads, one int per shape; the beads and hook
    products of rank n are built once, by `_shapes`.  Its callers, `verify`
    and the tests, pass two partitions of one n >= 1, unchecked; it caches
    no pair, since `_mn` caches the characters and each pair is asked once.
    """
    n = weight(nu)
    length = len(nu) + len(nu2) - n  # degree additivity fixes the length
    shapes = [(mask, w * hooks) for mask, hooks in _shapes(n)
              if (w := _mn(mask, nu) * _mn(mask, nu2))]
    out = {}
    for rho in enumerate_partitions(n):
        if len(rho) != length:
            continue
        total = sum(w * _mn(mask, rho) for mask, w in shapes)
        if total:
            out[rho] = Fraction(total, z_of(rho))
    return out
