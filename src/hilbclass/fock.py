"""Weight-truncated linear combinations of creation monomials.

An element is a linear combination of monomials q_lambda (one creation
operator per part of the partition lambda, applied to the vacuum), with all
partitions of weight at most a fixed bound N.  The weight-n piece models the
cohomology of the Hilbert scheme of n points on the affine plane; the
algebraic degree of q_lambda is weight(lambda) - length(lambda).

The product implemented here is the symmetric-algebra (Fock) product,
multiset union on partitions with weight overflow dropped.  It is *not* the
cup product; that lives in :mod:`hilbclass.hilbert`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import itemgetter

from .exact import QQ
from .partitions import check_partition, weight
from .series import _integer_numerators


class FockElement:
    __slots__ = ("ring", "bound", "terms")

    def __init__(self, ring, bound: int, terms):
        if bound < 0:
            raise ValueError("weight bound must be nonnegative")
        clean = {}
        for parts, c in terms.items():
            parts = check_partition(parts)
            if weight(parts) > bound:
                continue
            if c != ring.zero:
                clean[parts] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FockElement is immutable")

    @classmethod
    def vacuum(cls, bound: int, ring=QQ):
        return cls(ring, bound, {(): ring.one})

    @classmethod
    def monomial(cls, parts, bound: int, coeff=1, ring=QQ):
        coeff = ring.from_rational(coeff) if isinstance(coeff, (int, Fraction)) else coeff
        return cls(ring, bound, {check_partition(parts): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, parts):
        return self.terms.get(check_partition(parts), self.ring.zero)

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
        out = dict(self.terms)
        for parts, c in other.terms.items():
            out[parts] = out.get(parts, self.ring.zero) + c
        return FockElement(self.ring, self.bound, out)

    def __sub__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for parts, c in other.terms.items():
            out[parts] = out.get(parts, self.ring.zero) - c
        return FockElement(self.ring, self.bound, out)

    def scale(self, c) -> "FockElement":
        return FockElement(
            self.ring, self.bound, {p: v * c for p, v in self.terms.items()}
        )

    def __mul__(self, other):
        """Fock (symmetric-algebra) product: multiset union of partitions,
        terms of weight beyond the bound silently truncated."""
        self._check_compatible(other)
        out: dict[tuple[int, ...], object] = {}
        for p1, c1 in self.terms.items():
            w1 = weight(p1)
            for p2, c2 in other.terms.items():
                if w1 + weight(p2) > self.bound:
                    continue
                merged = tuple(sorted(p1 + p2, reverse=True))
                prev = out.get(merged)
                prod = c1 * c2
                out[merged] = prod if prev is None else prev + prod
        return FockElement(self.ring, self.bound, out)

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
    the k with g_k != 0.  Over QQ it multiplies integer numerators N_k over one
    common denominator D and builds one Fraction per term,
    prod N_{lambda_i} / (D^len(lambda) prod m_i!).
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


def hilb_unit(n: int, bound: int | None = None, ring=QQ) -> FockElement:
    """The cohomological unit of the weight-n piece: q_{1^n} / n!."""
    if bound is None:
        bound = n
    return FockElement.monomial((1,) * n, bound, Fraction(1, factorial(n)), ring)
