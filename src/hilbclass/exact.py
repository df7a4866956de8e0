"""Exact coefficient arithmetic.

Scalars are arbitrary-precision rationals (`fractions.Fraction`).  On top of
those sits :class:`ParamPoly`, a multivariate polynomial in finitely many
formal parameters, each nilpotent of a fixed order.  Truncation by the
nilpotency bounds happens at construction time, so elements of the shape
``nonzero rational + (parameter terms)`` are always invertible.

Both kinds of scalar are exposed to the series layer through small ring
objects (:data:`QQ` and :class:`ParamRing`) that provide the few operations
one cannot spell with operators alone (unit test, inverse, coercion from a
rational).  All values are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ParamContext:
    """Ordered parameter names with per-parameter nilpotency bounds.

    A parameter with bound b satisfies rho**(b+1) = 0.
    """

    names: tuple[str, ...]
    bounds: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.bounds):
            raise ValueError("names and bounds must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate parameter names")
        if any(b < 1 for b in self.bounds):
            raise ValueError("nilpotency bounds must be positive")

    def index(self, name: str) -> int:
        return self.names.index(name)


class ParamPoly:
    """Polynomial in nilpotent parameters over the rationals.

    Stored as a map from exponent vectors to nonzero rational coefficients.
    Exponent vectors exceeding a per-parameter bound are dropped on
    construction; zero is the empty map.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: ParamContext, terms):
        clean = {}
        bounds = context.bounds
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != len(bounds):
                raise ValueError("exponent vector has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if any(e > b for e, b in zip(exps, bounds)):
                continue
            c = Fraction(c)
            if c:
                clean[exps] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    @classmethod
    def constant(cls, context: ParamContext, value) -> "ParamPoly":
        zero_exps = (0,) * len(context.names)
        return cls(context, {zero_exps: Fraction(value)})

    @classmethod
    def parameter(cls, context: ParamContext, name: str) -> "ParamPoly":
        exps = [0] * len(context.names)
        exps[context.index(name)] = 1
        return cls(context, {tuple(exps): Fraction(1)})

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.context.names), Fraction(0))

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return ParamPoly.constant(self.context, other)
        if isinstance(other, ParamPoly):
            if other.context != self.context:
                raise ValueError("mismatched parameter contexts")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return ParamPoly(self.context, out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return ParamPoly(self.context, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if other.context != self.context:
            raise ValueError("mismatched parameter contexts")
        bounds = self.context.bounds
        out: dict[tuple[int, ...], Fraction] = {}
        # iterate the smaller term map on the outside
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if any(x > m for x, m in zip(e, bounds)):
                    continue
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return ParamPoly(self.context, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / c)
        if isinstance(other, ParamPoly):
            return self * other.invert()
        return NotImplemented

    def invert(self) -> "ParamPoly":
        """Two-sided inverse within the truncation.

        Requires a nonzero rational part; the parameter part is nilpotent,
        so the geometric series terminates.
        """
        c = self.constant_term
        if c == 0:
            raise ValueError("not a unit: zero rational part")
        inv_c = Fraction(1) / c
        nil = self - c
        result = ParamPoly.constant(self.context, inv_c)
        power = ParamPoly.constant(self.context, 1)
        step = nil * (-inv_c)
        while True:
            power = power * step
            if power.is_zero:
                break
            result = result + power * inv_c
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.constant(self.context, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    __hash__ = None

    def sorted_terms(self):
        """Terms in lexicographic order on the exponent vector."""
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero:
            return "ParamPoly(0)"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.context.names, exps)
                if e
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "ParamPoly(" + " + ".join(bits) + ")"


class RationalField:
    """Ring object for plain rational coefficients."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_rational(self, a) -> Fraction:
        return Fraction(a)

    def is_unit(self, a) -> bool:
        return a != 0

    def inv(self, a) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class ParamRing:
    """Ring object for `ParamPoly` coefficients over a fixed context."""

    def __init__(self, context: ParamContext):
        self.context = context
        self.zero = ParamPoly(context, {})
        self.one = ParamPoly.constant(context, 1)

    def from_rational(self, a) -> ParamPoly:
        return ParamPoly.constant(self.context, a)

    def is_unit(self, a: ParamPoly) -> bool:
        return a.constant_term != 0

    def inv(self, a: ParamPoly) -> ParamPoly:
        return a.invert()

    def parameter(self, name: str) -> ParamPoly:
        return ParamPoly.parameter(self.context, name)

    def __eq__(self, other):
        return isinstance(other, ParamRing) and self.context == other.context

    def __hash__(self):
        return hash((ParamRing, self.context))

    def __repr__(self):
        return f"ParamRing({self.context.names})"
