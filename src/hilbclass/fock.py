"""Weight-truncated linear combinations of creation monomials.

An element is a linear combination of monomials q_lambda (one creation
operator per part of the partition lambda, applied to the vacuum), with all
partitions of weight at most a fixed bound N.  The weight-n piece models the
cohomology of the Hilbert scheme of n points on the affine plane; the
algebraic degree of q_lambda is weight(lambda) - length(lambda).  The cup
product of such elements lives in :mod:`hilbclass.hilbert`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import itemgetter

from .exact import QQ
from .partitions import check_partition, weight
from .series import _integer_numerators


class FockElement:
    """sum_lambda terms[lambda] q_lambda, stored as given: every producer keeps
    each key a valid partition (`check_partition`) of weight at most `bound`,
    and each coefficient nonzero.  `monomial` is where hand-built terms are
    checked."""

    __slots__ = ("ring", "bound", "terms")

    def __init__(self, ring, bound: int, terms):
        if bound < 0:
            raise ValueError("weight bound must be nonnegative")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("FockElement is immutable")

    @classmethod
    def monomial(cls, parts, bound: int, coeff=1):
        """coeff * q_parts over QQ; zero if coeff is 0 or parts is over the bound."""
        parts, coeff = check_partition(parts), Fraction(coeff)
        return cls(QQ, bound, {parts: coeff} if coeff and weight(parts) <= bound else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "FockElement"):
        if not isinstance(other, FockElement):
            raise TypeError("expected a FockElement")
        if self.ring != other.ring:
            raise ValueError("mismatched coefficient rings")
        if self.bound != other.bound:
            raise ValueError("mismatched weight bounds")

    def __eq__(self, other):
        if not isinstance(other, FockElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.bound == other.bound
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other):
        self._check_compatible(other)
        zero = self.ring.zero
        out = dict(self.terms)
        for parts, c in other.terms.items():
            c = out.pop(parts, zero) + c
            if c != zero:
                out[parts] = c
        return FockElement(self.ring, self.bound, out)

    def scale(self, c) -> "FockElement":
        zero = self.ring.zero
        return FockElement(self.ring, self.bound,
                           {p: w for p, v in self.terms.items() if (w := v * c) != zero})

    def degree_component(self, d: int) -> "FockElement":
        """Restriction to algebraic degree d, i.e. weight - length = d."""
        return FockElement(
            self.ring, self.bound,
            {p: c for p, c in self.terms.items() if weight(p) - len(p) == d},
        )

    def sorted_terms(self):
        """Terms sorted by weight, then reverse-lexicographically."""
        out = sorted(self.terms.items(), key=itemgetter(0), reverse=True)
        out.sort(key=lambda item: weight(item[0]))  # stable: keeps revlex order
        return out

    def __repr__(self):
        if self.is_zero:
            return "FockElement(0)"
        bits = [f"{c!r}*q{list(p)}" for p, c in self.sorted_terms()]
        return "FockElement(" + " + ".join(bits) + ")"


def exp_linear(g, bound: int, only: int | None = None) -> FockElement:
    """exp(sum_k g_k q_k) applied to the vacuum, or with `only` just its
    weight-`only` terms: q_lambda gets prod_i g_{lambda_i} / prod_i m_i!, m_i
    the part multiplicities.  Requires g(0) = 0 and g truncated at order >=
    bound.  A depth-first walk appends parts in decreasing order, drawn from
    the k with g_k != 0, so every term is a partition within the bound with a
    nonzero coefficient, as `FockElement` requires.  Over QQ it multiplies
    integer numerators N_k over one common denominator D and builds one
    Fraction per term, prod N_{lambda_i} / (D^len(lambda) prod m_i!).
    """
    ring = g.ring
    if g.coeffs[0] != ring.zero:
        raise ValueError("exp_linear needs a series with zero constant term")
    if g.order < bound:
        raise ValueError("series truncated below the requested weight bound")
    if only is not None and not 0 <= only <= bound:
        raise ValueError("the single weight must lie in 0..bound")
    top = bound if only is None else only
    rational = ring == QQ
    if rational:
        den, coeffs = _integer_numerators(g.coeffs[: top + 1])
        zero, one = 0, 1
    else:
        den, coeffs = 1, g.coeffs[: top + 1]
        zero, one = ring.zero, ring.one
    support = [k for k in range(top, 0, -1) if coeffs[k] != zero]
    terms = {}
    # parts, first support index allowed, weight left, product, divisor, last multiplicity
    stack = [((), 0, top, one, 1, 0)]
    while stack:
        parts, first, left, c, d, run = stack.pop()
        if only is None or left == 0:
            terms[parts] = Fraction(c, d) if rational else c * Fraction(1, d)
        for i, k in enumerate(support[first:], first):
            if k > left:
                continue
            m = run + 1 if i == first and parts else 1
            ck = c * coeffs[k]
            if ck != zero:  # a product of nilpotent parameters can vanish
                stack.append((parts + (k,), i, left - k, ck, d * den * m, m))
    return FockElement(ring, bound, terms)


def hilb_unit(n: int) -> FockElement:
    """The cohomological unit of the weight-n piece: q_{1^n} / n!."""
    return FockElement.monomial((1,) * n, n, Fraction(1, factorial(n)))
