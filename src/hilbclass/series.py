"""Truncated univariate formal power series over the rationals.

A series carries an explicit truncation order N and a dense tuple of N + 1
rational coefficients; every operation is exact to order N.  Operations on
series of different orders are rejected rather than silently truncated
(use :meth:`TruncatedSeries.truncate` to change order explicitly).

The operations are the ones some command reaches: the product, `x -> -x`
and the Lagrange solver.  The built-in defining series come from
coefficient recurrences in :mod:`hilbclass.hilbert`, with no series
`exp`, `log`, inverse or square root.  The cup product there is a
closed-form block sum and uses no series at all.

Every truncated product in the library goes through one convolution,
`_convolve`: the series product, the Lagrange solver's baby and giant
powers and the fixed-point and appendix sums of :mod:`hilbclass.hilbert`.
They hand it integer numerators over a common denominator, so it
multiplies and adds plain ints.  The Lagrange solver runs on the stride d
of F (F = G(x^d); d = 2 for every tangent F, which is even), keeps about
sqrt(order/d) powers of G to order/d on reduced integer numerators, and
builds one `Fraction` per nonzero output coefficient, from one dot
product of two of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul


class RationalField:
    """The rational field, kept as the `ring` class attribute of `TruncatedSeries`."""

    zero = Fraction(0)
    one = Fraction(1)


QQ = RationalField()


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

    The solve runs on the stride of F: with d the gcd of the exponents of
    F's nonzero coefficients (1 when F is constant; 2 for every tangent F,
    which is even), F = G(y) with y = x^d, so g_m vanishes unless
    m = dj + 1, and then g_m = [y^j] G^m / m^2, with every power kept to
    y^J, J = (order - 1) // d.

    Baby step / giant step (Paterson-Stockmeyer, SIAM J. Comput. 1973;
    Brent-Kung, JACM 1978): with H = G^d and t = isqrt(J + 1), the
    baby powers B_a = G H^a = G^(da+1), a < t, and the giant power H^(kt),
    each on integer numerators over one denominator, give g_m for
    j = kt + a as one dot product of [y^i] B_a with [y^(j-i)] H^(kt).
    Every t steps the giant power takes one `_convolve` with
    H^t = B_(t-1) G^(d-1), so the solve is about 2 sqrt(order/d) products
    of length order/d, not one product of length `order` per g_m.  Each
    power is divided by the gcd of its denominator and numerators when
    formed; without that they keep every factor the reduced coefficients
    cancel, and the big-int products swamp the solve (one power per step,
    sqrt-Todd tautological order 61: 0.04 s with the gcd, 0.59 s without).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    work = max(order - 1, 0)
    if F.order < work:
        raise ValueError("F is truncated too low for the requested order")
    if F.coeffs[0] == 0:
        raise ValueError("lagrange_g needs a unit constant term")
    out = [Fraction(0)] * (order + 1)
    if not order:
        return TruncatedSeries(0, out)
    coeffs = F.truncate(work).coeffs
    d = gcd(*(k for k, c in enumerate(coeffs) if c)) or 1
    J = work // d
    den_g, g = _integer_numerators(coeffs[::d])

    def times(power, den, other, den_other):
        power, den = _convolve(power, other, J), den * den_other
        common = gcd(den, *power)
        return [c // common for c in power], den // common

    t = isqrt(J + 1)
    one = ([1] + [0] * J, 1)  # padded: H^(kt) is read backwards from y^j
    lift = one  # G^(d-1)
    for _ in range(d - 1):
        lift = times(*lift, g, den_g)
    h = times(*lift, g, den_g)
    baby = [(g, den_g)]
    for _ in range(t - 1):
        baby.append(times(*baby[-1], *h))
    step = times(*baby[-1], *lift)
    giant = one
    for j in range(J + 1):
        a = j % t
        if j and not a:
            giant = times(*giant, *step)
        m = d * j + 1
        (low, den_low), (high, den_high) = baby[a], giant
        out[m] = Fraction(sum(map(mul, low[: j + 1], high[j::-1])), den_low * den_high * m * m)
    return TruncatedSeries(order, out)
