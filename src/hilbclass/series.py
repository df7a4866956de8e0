"""Truncated univariate formal power series over an exact coefficient ring.

A series carries an explicit truncation order N and a dense coefficient
tuple of length N + 1; every operation is exact to order N.  Operations on
series of different orders are rejected rather than silently truncated
(use :meth:`TruncatedSeries.truncate` to change order explicitly).

The coefficient ring is either :data:`hilbclass.exact.QQ` or a
:class:`hilbclass.exact.ParamRing`; the latter is what allows reversion of a
series whose linear coefficient is 1 + nilpotent.  The operations are the
ones some command reaches: the product, `x -> -x`, `x d/dx`, `exp` (the
square-root-of-Todd defining series), the inverse and reversion (reached
over a parameter ring only), and the Lagrange solver.  The built-in
defining series come from closed forms in :mod:`hilbclass.hilbert`, with no
`log`, inverse or square root.

Every truncated product in the library goes through one convolution,
`_convolve`: the series product, the Lagrange solver's power loop and the
fixed-point and appendix sums of :mod:`hilbclass.hilbert`.  Over QQ they
hand it integer numerators over a common denominator, so it multiplies
and adds plain ints; the Lagrange solver keeps F^m on reduced integer
numerators from one step to the next and builds one `Fraction` per output
coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact import QQ


class TruncatedSeries:
    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, order: int, ring=QQ):
        """Build from leading coefficients, zero-padded up to `order`."""
        coeffs = [ring.from_rational(c) if isinstance(c, (int, Fraction)) else c
                  for c in coeffs]
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the requested order admits")
        coeffs = coeffs + [ring.zero] * (order + 1 - len(coeffs))
        return cls(ring, order, coeffs)

    @classmethod
    def one(cls, order: int, ring=QQ):
        return cls.from_coeffs([1], order, ring)

    # -- basics -----------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.ring != other.ring:
            raise ValueError("mismatched coefficient rings")
        if self.order != other.order:
            raise ValueError(
                f"mismatched truncation orders {self.order} != {other.order}"
            )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    __hash__ = None

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)})"

    def truncate(self, order: int) -> "TruncatedSeries":
        """Explicitly lower the truncation order."""
        if order > self.order:
            raise ValueError("cannot raise the truncation order")
        return TruncatedSeries(self.ring, order, self.coeffs[: order + 1])

    def __mul__(self, other):
        """Truncated product, through `_convolve`.

        Over QQ both operands enter as integer numerators over their common
        denominators, so the convolution multiplies and adds plain ints and
        each output coefficient becomes a `Fraction` once; over a parameter
        ring the coefficients enter as they are.
        """
        self._check_compatible(other)
        n = self.order
        if self.ring == QQ:
            den_a, a = _integer_numerators(self.coeffs)
            den_b, b = _integer_numerators(other.coeffs)
            den = den_a * den_b
            out = [Fraction(c, den) for c in _convolve(a, b, n)]
        else:
            out = _convolve(self.coeffs, other.coeffs, n, self.ring.zero)
        return TruncatedSeries(self.ring, n, out)

    def negate_arg(self) -> "TruncatedSeries":
        """Substitute x -> -x."""
        return TruncatedSeries(
            self.ring, self.order,
            [a if k % 2 == 0 else -a for k, a in enumerate(self.coeffs)],
        )

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; needs a unit constant term.  Commands reach it
        only over a `ParamRing` (through `revert` and the nilpotent oracle),
        and `QQ` has no `inv`."""
        ring = self.ring
        if not ring.is_unit(self.coeffs[0]):
            raise ValueError("inverse needs a unit constant term")
        inv0 = ring.inv(self.coeffs[0])
        out = [inv0] + [ring.zero] * self.order
        for k in range(1, self.order + 1):
            acc = ring.zero
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -(acc * inv0)
        return TruncatedSeries(ring, self.order, out)

    def x_derivative(self) -> "TruncatedSeries":
        """x * d/dx, keeping the order."""
        return TruncatedSeries(
            self.ring, self.order,
            [a * Fraction(k) for k, a in enumerate(self.coeffs)],
        )

    def exp(self) -> "TruncatedSeries":
        """exp of a series with constant term 0, by n e_n = sum_j j a_j e_(n-j)
        over the nonzero a_j."""
        ring = self.ring
        if self.coeffs[0] != ring.zero:
            raise ValueError("exp needs constant term 0")
        terms = [(j, a * j) for j, a in enumerate(self.coeffs) if a != ring.zero]
        out = [ring.one] + [ring.zero] * self.order
        for n in range(1, self.order + 1):
            acc = ring.zero
            for j, ja in terms:
                if j > n:
                    break
                acc = acc + ja * out[n - j]
            out[n] = acc * Fraction(1, n)
        return TruncatedSeries(ring, self.order, out)

    # -- reversion --------------------------------------------------------

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse, by Lagrange inversion: writing self as
        x/F, the inverse is t dg/dt for g = lagrange_g(F).

        Needs constant term 0 and a unit linear coefficient (which may be of
        the shape rational-unit + nilpotent over a parameter ring).
        """
        ring = self.ring
        if self.coeffs[0] != ring.zero:
            raise ValueError("revert needs constant term 0")
        if self.order < 1 or not ring.is_unit(self.coeffs[1]):
            raise ValueError("revert needs a unit linear coefficient")
        F = TruncatedSeries(ring, self.order - 1, self.coeffs[1:]).inverse()
        return lagrange_g(F, self.order).x_derivative()

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list[str]:
        """JSON form: coefficient strings indexed by exponent (QQ only)."""
        if self.ring != QQ:
            raise ValueError("only rational-coefficient series serialize")
        return [str(c) for c in self.coeffs]


def _integer_numerators(coeffs):
    """A common denominator d of rational coefficients (ints included), and
    the integer numerators n_k with coeffs[k] = n_k / d."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _convolve(a, b, n: int, zero=0) -> list:
    """Coefficients 0..n of the product of the coefficient lists `a` and `b`
    (of any lengths), summed over their nonzero terms only: the inner loop
    stops at j > n - i, so the zero tests are linear in the lengths."""
    a_terms = [(i, c) for i, c in enumerate(a[: n + 1]) if c != zero]
    b_terms = [(j, c) for j, c in enumerate(b[: n + 1]) if c != zero]
    out = [zero] * (n + 1)
    for i, ai in a_terms:
        last = n - i
        for j, bj in b_terms:
            if j > last:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def lagrange_g(F: TruncatedSeries, order: int) -> TruncatedSeries:
    """Solve dg/dt (x / F) = F for g, truncated at `order`.

    Coefficientwise this is g_n = [x^(n-1)] F^n / n^2; equivalently
    t * dg/dt is the compositional inverse of x / F.  F needs a unit
    constant term and order at least `order` - 1.

    The power F^m is kept from one step to the next as numerators over one
    denominator `den`, and each step is one `_convolve` with F's
    numerators.  Over QQ these are ints over F's common denominator d, so
    `den` gains a factor d per step, and each step divides `den` and every
    numerator by their gcd.  Without that, numerators and `den` keep every
    factor d^m that the reduced coefficients cancel, and the big-int
    products swamp the loop (sqrt-Todd, tautological, order 61: 0.04 s
    with the gcd, 0.59 s without).  Over a parameter ring the coefficients
    enter as they are and `den` stays 1.
    """
    ring = F.ring
    if order < 0:
        raise ValueError("order must be nonnegative")
    work = max(order - 1, 0)
    if F.order < work:
        raise ValueError("F is truncated too low for the requested order")
    if not ring.is_unit(F.coeffs[0]):
        raise ValueError("lagrange_g needs a unit constant term")
    Ft = F.truncate(work)
    rational = ring == QQ
    if rational:
        den_f, f = _integer_numerators(Ft.coeffs)
        zero, one = 0, 1
    else:
        den_f, f, zero, one = 1, Ft.coeffs, ring.zero, ring.one
    out = [ring.zero] * (order + 1)
    power, den = [one], 1
    for m in range(1, order + 1):
        power = _convolve(power, f, work, zero)
        den *= den_f
        if rational:
            common = gcd(den, *power)
            if common > 1:
                den //= common
                power = [c // common for c in power]
        out[m] = power[m - 1] * Fraction(1, den * m * m)
    return TruncatedSeries(ring, order, out)
