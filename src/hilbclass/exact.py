"""Exact coefficient arithmetic.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), and every
series and Fock element has rational coefficients.  Beside them sits
:class:`ParamPoly`, a multivariate polynomial with integer coefficients in
finitely many formal parameters, each nilpotent of a fixed order, for the
nilpotent cup-product oracle of :mod:`hilbclass.hilbert` alone.  It
carries what that oracle uses: packed construction from integer
coefficients, the product of two values and a truth value (a product of
parameters can vanish).  It has no denominator, sum, negation, inverse,
scalar multiple or change of context; the oracle keeps every denominator
in its walk's divisor, works in one factor's context at a time, sums
integer coefficients itself and reads the coefficients it needs off the
packed terms.
All values are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate


@dataclass(frozen=True)
class ParamContext:
    """Per-parameter nilpotency bounds; parameter i is the one with bounds[i].

    A parameter with bound b satisfies rho**(b+1) = 0.  A monomial packs into
    one int: parameter i's exponent sits at bit shifts[i], in a field of
    k = b.bit_length() bits plus a guard bit.  Adding two packed monomials
    adds exponents without carries between fields, and the sum exceeds a
    bound iff (sum + bias) & guard, each field of `bias` holding 2**k - 1 - b.
    """

    bounds: tuple[int, ...]

    def __post_init__(self):
        if any(b < 1 for b in self.bounds):
            raise ValueError("nilpotency bounds must be positive")
        ks = [b.bit_length() for b in self.bounds]
        shifts = tuple(accumulate((k + 1 for k in ks), initial=0))[:-1]
        fields = list(zip(ks, self.bounds, shifts))
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "bias", sum(((1 << k) - 1 - b) << s for k, b, s in fields))
        object.__setattr__(self, "guard", sum(1 << (s + k) for k, _, s in fields))

    def pack(self, exps) -> int:
        """The packed monomial of `exps`, each exponent between 0 and its bound."""
        exps = tuple(exps)
        if len(exps) != len(self.bounds):
            raise ValueError("exponent vector has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        if any(e > b for e, b in zip(exps, self.bounds)):
            raise ValueError("exponent over its bound")
        return sum(e << s for e, s in zip(exps, self.shifts))


class ParamPoly:
    """Polynomial in nilpotent parameters with integer coefficients: `terms`
    maps packed monomials (see `ParamContext`) to nonzero ints, so equal
    values store equal data.  `_make` builds one from monomials within the
    bounds; the product drops those over a bound.  Zero is {}, and false.
    """

    __slots__ = ("context", "terms")

    @classmethod
    def _make(cls, context, terms) -> "ParamPoly":
        """The value with nonzero int coefficients `terms`, stored as given."""
        self = object.__new__(cls)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    def __bool__(self):
        return bool(self.terms)

    def __mul__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        context = self.context
        if other.context is not context and other.context != context:
            raise ValueError("mismatched parameter contexts")
        bias, guard = context.bias, context.guard
        # the smaller term map goes outside; keys of `out` carry the bias
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in a.items():
            k1 += bias
            for k2, c2 in b.items():
                k = k1 + k2
                if not k & guard:
                    out[k] = get(k, 0) + c1 * c2
        return ParamPoly._make(context, {k - bias: c for k, c in out.items() if c})

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return (self.context, self.terms) == (other.context, other.terms)

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "ParamPoly(0)"
        shifts, bounds = self.context.shifts, self.context.bounds
        bits = []
        for exps, c in sorted(
            (tuple(k >> s & ((1 << b.bit_length()) - 1) for s, b in zip(shifts, bounds)), c)
            for k, c in self.terms.items()
        ):
            mono = "*".join(f"p{i}^{e}" if e > 1 else f"p{i}" for i, e in enumerate(exps) if e)
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "ParamPoly(" + " + ".join(bits) + ")"


class RationalField:
    """The rational field, kept as the `ring` class attribute of `TruncatedSeries`."""

    zero = Fraction(0)
    one = Fraction(1)


QQ = RationalField()
