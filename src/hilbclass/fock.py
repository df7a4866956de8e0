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

from .exact import QQ
from .partitions import check_partition, enumerate_partitions, multiplicities, weight


def _revlex_key(parts: tuple[int, ...]):
    return (sum(parts), tuple(-p for p in parts))


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

    def component(self, n: int) -> "FockElement":
        """Restriction to terms of weight n."""
        if n > self.bound:
            raise ValueError("weight beyond the truncation bound")
        return FockElement(
            self.ring, self.bound,
            {p: c for p, c in self.terms.items() if weight(p) == n},
        )

    def degree_component(self, d: int) -> "FockElement":
        """Restriction to algebraic degree d, i.e. weight - length = d."""
        return FockElement(
            self.ring, self.bound,
            {p: c for p, c in self.terms.items() if weight(p) - len(p) == d},
        )

    def sorted_terms(self):
        """Terms sorted by weight, then reverse-lexicographically."""
        return sorted(self.terms.items(), key=lambda item: _revlex_key(item[0]))

    def to_records(self) -> list[dict]:
        """JSON form: [{"partition": [...], "coeff": "p/q"}, ...]."""
        if self.ring != QQ:
            raise ValueError("only rational-coefficient elements serialize")
        return [
            {"partition": list(p), "coeff": str(c)}
            for p, c in self.sorted_terms()
        ]

    def __repr__(self):
        if self.is_zero:
            return "FockElement(0)"
        bits = [f"{c!r}*q{list(p)}" for p, c in self.sorted_terms()]
        return "FockElement(" + " + ".join(bits) + ")"


def exp_linear(g, bound: int) -> FockElement:
    """exp of the linear creation field with weight-k coefficient g_k.

    Expands exp(sum_k g_k q_k) applied to the vacuum: the monomial q_lambda
    receives prod_i g_{lambda_i} divided by the product of part-multiplicity
    factorials.  Requires g(0) = 0 and g truncated at order >= bound.
    """
    ring = g.ring
    if g.coeffs[0] != ring.zero:
        raise ValueError("exp_linear needs a series with zero constant term")
    if g.order < bound:
        raise ValueError("series truncated below the requested weight bound")
    terms = {}
    for n in range(bound + 1):
        for parts in enumerate_partitions(n):
            c = ring.one
            for part in parts:
                c = c * g.coeffs[part]
            denom = 1
            for m in multiplicities(parts).values():
                denom *= factorial(m)
            c = c * Fraction(1, denom)
            if c != ring.zero:
                terms[parts] = c
    return FockElement(ring, bound, terms)


def hilb_unit(n: int, bound: int | None = None, ring=QQ) -> FockElement:
    """The cohomological unit of the weight-n piece: q_{1^n} / n!."""
    if bound is None:
        bound = n
    return FockElement.monomial((1,) * n, bound, Fraction(1, factorial(n)), ring)
