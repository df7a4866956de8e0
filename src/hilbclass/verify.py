"""Self-verification suites: every closed form, identity and cross-oracle in
the engine, runnable from the CLI (`hilbclass verify <suite>`) and reused by
the acceptance tests.

All checks are exact; a failure carries the mismatching values in its detail
string.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, lcm

from .fock import hilb_unit
from .hilbert import (
    TAUTOLOGICAL,
    _cup_basis_cached,
    builtin_f,
    cprime_pow_f,
    cup,
    cup_basis,
    cup_character,
    hilbert_class,
    lemma_b1,
    oracle_top_tangent,
    oracle_top_taut,
    p_n_series_upto,
    sqrt_todd_f,
    tangent_g,
    taut_g,
)
from .partitions import enumerate_partitions, weight
from .series import TruncatedSeries

Check = namedtuple("Check", "name passed detail", defaults=("",))


def _check(name: str, bad: list, words: str = "mismatches", shown: int = 2) -> Check:
    """The check `name`, passed when `bad`, its list of failures, is empty;
    a failed one's detail is `words` and the first `shown` failures."""
    return Check(name, not bad, f"{words} {bad[:shown]}" if bad else "")


def _series_check(name: str, g: TruncatedSeries, ok: bool, why: str = "") -> Check:
    """A closed-form check of the series g; a failed one's detail is g's
    first 8 coefficients and `why`."""
    return Check(name, ok, "" if ok else f"got {g.to_strings()[:8]}{why}")


def random_unit_series(rng: random.Random, order: int) -> TruncatedSeries:
    """Random series with constant term 1 and coefficients p/q, |p| <= 3, 1 <= q <= 3."""
    coeffs = [Fraction(1)]
    for _ in range(order):
        coeffs.append(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return TruncatedSeries.from_coeffs(coeffs, order)


# -- suite: appendix ------------------------------------------------------


def suite_appendix() -> list[Check]:
    grid = []
    for m in range(26):
        for p in range(m + 1):
            value = lemma_b1(m, p)
            expected = Fraction((-1) ** m) if p == m else Fraction(0)
            if value != expected:
                grid.append((m, p, value))

    rng = random.Random(1002)
    bad = []
    for i in range(5):
        f = random_unit_series(rng, 9)
        fpow = TruncatedSeries.one(9)
        for n, p in enumerate(p_n_series_upto(f, 8)):
            low = [k for k in range(n) if p.coeffs[k] != 0]
            lead = p.coeffs[n]
            fpow = fpow * f  # f^(n+1)
            expected = Fraction((-1) ** n) * fpow.coeffs[n]
            if low or lead != expected:
                bad.append((i, n, low, lead, expected))
    return [
        _check("alternating-factorial sum grid m <= 25", grid, "mismatches at", 3),
        _check("telescoped product series: sub-leading vanishing and leading term, n <= 8",
               bad, "mismatches at"),
    ]


# -- suite: examples ------------------------------------------------------


def suite_examples() -> list[Check]:
    checks = []

    g = tangent_g(builtin_f("chern", 40), 41)
    ok = all(g.coeffs[2 * n + 1] == Fraction((-1) ** n * comb(2 * n, n),
                                             (n + 1) * (2 * n + 1))
             for n in range(21))
    ok = ok and all(g.coeffs[2 * n] == 0 for n in range(21))
    checks.append(_series_check("Chern exponent series to order 41", g, ok))

    g = tangent_g(builtin_f("segre", 40), 41)
    ok = all(g.coeffs[2 * n + 1] == Fraction(comb(3 * n, n), (2 * n + 1) ** 2)
             for n in range(21))
    checks.append(_series_check("Segre exponent series to order 41", g, ok))

    g = tangent_g(sqrt_todd_f(20), 21)
    ok = all(g.coeffs[2 * n + 1] == Fraction(1, 4**n * (2 * n + 1)
                                             * factorial(2 * n + 1))
             for n in range(11))
    checks.append(_series_check(
        "sqrt-Todd exponent series to order 21, hyperbolic-sine-integral "
        "closed form", g, ok,
        "; the quoted closed form "
        "1/(4^n (2n+1)(2n+1)!) does not satisfy the defining equation "
        "dg/dt(x/F) = F (it integrates x/F itself instead of its "
        "compositional inverse); see the companion check",
    ))

    # The defining equation forces x dg/dx = 2 arcsinh(x/2) composed back,
    # i.e. g_{2n+1} = (-1)^n C(2n,n) / (16^n (2n+1)^2).  This is what the
    # engine produces, and the fixed-point oracle confirms it independently.
    ok = all(g.coeffs[2 * n + 1] == Fraction((-1) ** n * comb(2 * n, n),
                                             16**n * (2 * n + 1) ** 2)
             for n in range(11))
    ok = ok and all(g.coeffs[2 * n] == 0 for n in range(11))
    ok = ok and oracle_top_tangent(sqrt_todd_f(4), 3).coeffs[3] == Fraction(-1, 72)
    checks.append(_series_check(
        "sqrt-Todd exponent series to order 21, inversion-consistent "
        "closed form with fixed-point confirmation", g, ok))

    g = taut_g(builtin_f("chern", 19), 20)
    ok = all(g.coeffs[n] == Fraction((-1) ** (n - 1), n) for n in range(1, 21))
    checks.append(_series_check("tautological Chern (Lehn) series to order 20", g, ok))

    bad = []
    for r in (1, 2, 3):
        g = taut_g(cprime_pow_f(r, 14), 15)
        for n in range(1, 16):
            expected = Fraction((-1) ** (n - 1) * comb(r * n, n - 1), n * n)
            if g.coeffs[n] != expected:
                bad.append((r, n, g.coeffs[n], expected))
    checks.append(_check("tautological power series (1+x)^r, r in {1,2,3}", bad, shown=3))
    return checks


# -- suite: oracle --------------------------------------------------------


def suite_oracle() -> list[Check]:
    rng = random.Random(1001)
    bad_tan, bad_taut = [], []
    for i in range(10):
        f = random_unit_series(rng, 12)
        for route, oracle, bad in ((tangent_g, oracle_top_tangent, bad_tan),
                                   (taut_g, oracle_top_taut, bad_taut)):
            g, o = route(f, 10), oracle(f, 10)
            if o != g:
                bad.extend((i, n, o.coeffs[n], g.coeffs[n]) for n in range(1, 11)
                           if o.coeffs[n] != g.coeffs[n])
    return [
        _check("tangent fixed-point sum equals Lagrange route, 10 random f, n <= 10",
               bad_tan),
        _check("tautological fixed-point sum equals Lagrange route, 10 random f, n <= 10",
               bad_taut),
    ]


# -- suite: ring ----------------------------------------------------------


def suite_ring() -> list[Check]:
    anchored = [
        (((1, 1), (1, 1)), {(1, 1): Fraction(2)}),
        (((2,), (2,)), {}),
        (((2, 1), (2, 1)), {(3,): Fraction(4)}),
    ]
    bad_anchored = [(nu, nu2, got, expected) for (nu, nu2), expected in anchored
                    if (got := cup_basis(nu, nu2)) != expected]

    bad_pairs, bad_assoc = [], []
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        raw = {(a, b): _cup_basis_cached(a, b) for a in parts for b in parts}
        inner = {(a, b): cup_basis(a, b) for a in parts for b in parts}
        for a in parts:
            if cup(hilb_unit(n), {a: Fraction(1)}, n) != {a: Fraction(1)}:
                bad_pairs.append(("unit", n, a))
            for b in parts:
                ab = raw[a, b]
                if ab != raw[b, a]:
                    bad_pairs.append(("commutativity", a, b))
                deg = (n - len(a)) + (n - len(b))
                if deg > n - 1 and ab:
                    bad_pairs.append(("over-degree vanishing", a, b))
                if any(weight(p) - len(p) != deg for p in ab):
                    bad_pairs.append(("degree additivity", a, b))
        if any(weight(p) != n for ab in inner.values() for p in ab):
            raise ValueError(f"element has support outside weight {n}")
        # the associator (ab)c - a(bc) times D^2, D one denominator of both
        # tables: inner products from cup_basis, outer ones from the cache
        # as cup reads it (min, max), so a wrong cup_basis cannot feed both
        den = lcm(*(v.denominator for table in (raw, inner) for ab in table.values()
                    for v in ab.values()))
        canonical = {(a, b): raw[min(a, b), max(a, b)] for a, b in raw}
        inner, outer = ({key: {p: v.numerator * (den // v.denominator) for p, v in ab.items()}
                         for key, ab in table.items()} for table in (inner, canonical))
        for a, b, c in product(parts, repeat=3):
            diff = {}
            for terms, x, sign in ((inner[a, b], c, 1), (inner[b, c], a, -1)):
                for p, v in terms.items():
                    for lam, w in outer[p, x].items():
                        diff[lam] = diff.get(lam, 0) + sign * v * w
            if any(diff.values()):
                bad_assoc.append((a, b, c))

    bad_lehn = []
    for n in range(1, 7):
        lehn = power = hilbert_class(builtin_f("chern", n - 1), TAUTOLOGICAL, n, n)
        for r in (2, 3):
            power = cup(power, lehn, n)
            direct = hilbert_class(cprime_pow_f(r, n - 1), TAUTOLOGICAL, n, n)
            if direct != power:
                bad_lehn.append((r, n, direct, power))
    return [
        _check("anchored basis cup products", bad_anchored, shown=3),
        _check("cup unit, commutativity, degree additivity, over-degree vanishing, n <= 5",
               bad_pairs, "violations", 3),
        _check("cup associativity on all basis triples, n <= 5", bad_assoc, "violations", 3),
        _check("(1+x)^r class equals r-fold cup power of Lehn's class, r in {2,3}, n <= 6",
               bad_lehn, shown=1),
    ]


# -- suite: crossoracle ---------------------------------------------------


def suite_crossoracle() -> list[Check]:
    """`cup_basis`, the paper's route as a block sum, against
    `cup_character`, the character-table route (q_lam <-> z(lam) C_lam),
    on every unordered pair of ranks 2..7.  Ranks 2 and 3 are reported
    apart, as the calibration of the identification.  The two check names
    keep their old "class-sum" wording, which the golden `verify` digests
    pin."""
    calibration, agreement = [], []
    for n in range(2, 8):
        for nu, nu2 in combinations_with_replacement(enumerate_partitions(n), 2):
            got = cup_basis(nu, nu2)
            expected = cup_character(nu, nu2)
            if got != expected:
                bad = calibration if n < 4 else agreement
                bad.append((n, nu, nu2, got, expected))
    return [
        _check("class-sum calibration on ranks 2 and 3", calibration, shown=1),
        _check("class-sum oracle agreement for all pairs, ranks 4..7", agreement, shown=1),
    ]


SUITES = {
    "appendix": suite_appendix,
    "examples": suite_examples,
    "oracle": suite_oracle,
    "ring": suite_ring,
    "crossoracle": suite_crossoracle,
}


def run_suite(name: str) -> list[Check]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [check for key in (SUITES if name == "all" else (name,))
            for check in SUITES[key]()]
