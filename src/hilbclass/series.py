"""Truncated univariate formal power series over the rationals.

A series carries an explicit truncation order N and a dense tuple of N + 1
rational coefficients; every operation is exact to order N.  Operations on
series of different orders are rejected rather than silently truncated
(use :meth:`TruncatedSeries.truncate` to change order explicitly).

The operations are the ones some command reaches: the product, `x -> -x`,
`exp` (the square-root-of-Todd defining series) and the Lagrange solver.
The built-in defining series come from closed forms in
:mod:`hilbclass.hilbert`, with no `log`, inverse or square root, and the
nilpotent oracle's factor tables from a closed form there too, with no
reversion and no series over its parameters.

Every truncated product in the library goes through one convolution,
`_convolve`: the series product, the Lagrange solver's baby and giant
powers and the fixed-point and appendix sums of :mod:`hilbclass.hilbert`.
They hand it integer numerators over a common denominator, so it
multiplies and adds plain ints; the Lagrange solver keeps about
sqrt(order) powers of F on reduced integer numerators and builds one
`Fraction` per output coefficient, from one dot product of two of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .exact import QQ


class TruncatedSeries:
    __slots__ = ("order", "coeffs")
    ring = QQ  # read only by the series.mul counter of bench/tracer.py

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, order: int):
        """Build from leading rational coefficients, zero-padded up to `order`."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the requested order admits")
        return cls(order, coeffs + [Fraction(0)] * (order + 1 - len(coeffs)))

    @classmethod
    def one(cls, order: int):
        return cls.from_coeffs([1], order)

    # -- basics -----------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.order != other.order:
            raise ValueError(
                f"mismatched truncation orders {self.order} != {other.order}"
            )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)})"

    def truncate(self, order: int) -> "TruncatedSeries":
        """Explicitly lower the truncation order."""
        if order > self.order:
            raise ValueError("cannot raise the truncation order")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __mul__(self, other):
        """Truncated product, through `_convolve`: both operands enter as
        integer numerators over their common denominators, so the
        convolution multiplies and adds plain ints and each output
        coefficient becomes a `Fraction` once."""
        self._check_compatible(other)
        n = self.order
        den_a, a = _integer_numerators(self.coeffs)
        den_b, b = _integer_numerators(other.coeffs)
        den = den_a * den_b
        return TruncatedSeries(n, [Fraction(c, den) for c in _convolve(a, b, n)])

    def negate_arg(self) -> "TruncatedSeries":
        """Substitute x -> -x."""
        return TruncatedSeries(
            self.order, [a if k % 2 == 0 else -a for k, a in enumerate(self.coeffs)]
        )

    def exp(self) -> "TruncatedSeries":
        """exp of a series with constant term 0, by n e_n = sum_j j a_j e_(n-j)
        over the nonzero a_j."""
        if self.coeffs[0]:
            raise ValueError("exp needs constant term 0")
        terms = [(j, a * j) for j, a in enumerate(self.coeffs) if a]
        out = [Fraction(1)] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for j, ja in terms:
                if j > n:
                    break
                acc = acc + ja * out[n - j]
            out[n] = acc * Fraction(1, n)
        return TruncatedSeries(self.order, out)

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list[str]:
        """JSON form: coefficient strings indexed by exponent."""
        return [str(c) for c in self.coeffs]


def _integer_numerators(coeffs):
    """A common denominator d of rational coefficients (ints included), and
    the integer numerators n_k with coeffs[k] = n_k / d."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _convolve(a, b, n: int) -> list:
    """Coefficients 0..n of the product of the coefficient lists `a` and `b`
    (of any lengths), summed over their nonzero terms only: the inner loop
    stops at j > n - i, so the zero tests are linear in the lengths."""
    a_terms = [(i, c) for i, c in enumerate(a[: n + 1]) if c]
    b_terms = [(j, c) for j, c in enumerate(b[: n + 1]) if c]
    out = [0] * (n + 1)
    for i, ai in a_terms:
        last = n - i
        for j, bj in b_terms:
            if j > last:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def lagrange_g(F: TruncatedSeries, order: int) -> TruncatedSeries:
    """Solve dg/dt (x / F) = F for g, truncated at `order`.

    Coefficientwise this is g_m = [x^(m-1)] F^m / m^2; equivalently
    t * dg/dt is the compositional inverse of x / F.  F needs a unit
    constant term and order at least `order` - 1.

    Baby step / giant step (Paterson-Stockmeyer, SIAM J. Comput. 1973;
    Brent-Kung, JACM 1978): with s = max(isqrt(order), 1), the baby powers
    F^0..F^s and the giant power F^(js), each kept to x^(order-1) on integer
    numerators over one denominator, give g_m for m = js + a, 0 <= a < s, as
    one dot product of [x^i] F^a with [x^(m-1-i)] F^(js).  Every s steps the
    giant power takes one `_convolve` with F^s, so the solve is about
    2 sqrt(order) products, not `order`.  Each power is divided by the gcd of
    its denominator and numerators when formed; without that they keep every
    factor the reduced coefficients cancel, and the big-int products swamp
    the solve (one power per step, sqrt-Todd tautological order 61: 0.04 s
    with the gcd, 0.59 s without).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    work = max(order - 1, 0)
    if F.order < work:
        raise ValueError("F is truncated too low for the requested order")
    if F.coeffs[0] == 0:
        raise ValueError("lagrange_g needs a unit constant term")
    den_f, f = _integer_numerators(F.truncate(work).coeffs)

    def times(power, den, other, den_other):
        power, den = _convolve(power, other, work), den * den_other
        common = gcd(den, *power)
        return [c // common for c in power], den // common

    s = max(isqrt(order), 1)
    baby = [([1] + [0] * work, 1)]  # padded: F^(js) is read backwards from x^(m-1)
    for _ in range(s):
        baby.append(times(*baby[-1], f, den_f))
    giant = baby[0]
    out = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        a = m % s
        if not a:
            giant = times(*giant, *baby[s])
        (low, den_low), (high, den_high) = baby[a], giant
        out[m] = Fraction(sum(map(mul, low[:m], high[m - 1::-1])), den_low * den_high * m * m)
    return TruncatedSeries(order, out)
