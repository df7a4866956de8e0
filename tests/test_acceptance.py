"""Acceptance gate: ten exact criteria, one printed pass/fail line each.

Every comparison is exact rational equality; there are no tolerances.
Criterion 3 checks the square-root-of-Todd exponent series against the
closed form its defining equation dg/dt(x/F) = F forces,
g_{2n+1} = (-1)^n C(2n,n) / (16^n (2n+1)^2), and against the fixed-point
oracle, which does not use Lagrange inversion.  The closed form quoted
for this series in the source, 1/(4^n (2n+1) (2n+1)!), does not solve that
equation; the test records why.
"""

import random
import sys
from fractions import Fraction
from math import comb

from hilbclass.exact import QQ
from hilbclass.fock import FockElement, hilb_unit
from hilbclass.hilbert import (
    TAUTOLOGICAL,
    ClassSpec,
    chern_f,
    cprime_pow_f,
    cup,
    cup_basis,
    cup_nilpotent,
    hilbert_class,
    lemma_b1,
    oracle_top_tangent,
    oracle_top_taut,
    p_n_series,
    segre_f,
    sqrt_todd_f,
    tangent_g,
    taut_g,
)
from hilbclass.partitions import enumerate_partitions, weight
from hilbclass.series import TruncatedSeries, lagrange_g
from hilbclass.verify import random_unit_series


def report(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} [{status}] {title}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_chern_series():
    g = tangent_g(chern_f(40), 41)
    ok = all(
        g.coeffs[2 * n + 1]
        == Fraction((-1) ** n * comb(2 * n, n), (n + 1) * (2 * n + 1))
        for n in range(21)
    ) and all(g.coeffs[2 * n] == 0 for n in range(21))
    report(1, "Chern exponent series, odd closed form and even vanishing, "
              "order 41", ok)


def test_criterion_02_segre_series():
    g = tangent_g(segre_f(40), 41)
    ok = all(
        g.coeffs[2 * n + 1] == Fraction(comb(3 * n, n), (2 * n + 1) ** 2)
        for n in range(21)
    )
    report(2, "Segre exponent series closed form, order 41", ok)


def test_criterion_03_sqrt_todd_series():
    # The source quotes g_{2n+1} = 1/(4^n (2n+1) (2n+1)!).  That is the
    # integral of dx/F with F = f(x) f(-x) = x / (2 sinh(x/2)), which does
    # not solve the defining equation dg/dt(x/F) = F: the same rule applied
    # to Chern (F = 1 - x^2) gives g_3 = +1/3, while criterion 1 requires
    # -1/3.  Solving the equation gives t = x/F = 2 sinh(x/2), hence
    # t dg/dt = 2 arcsinh(t/2) and g_{2n+1} = (-1)^n C(2n,n) / (16^n (2n+1)^2).
    # The fixed-point oracle sums over torus fixed points without Lagrange
    # inversion; it agrees with this form and disagrees with the quoted one
    # at n = 3, 5, 7 and 9 (g_3 = -1/72, not 1/72).
    f = sqrt_todd_f(20)
    g = tangent_g(f, 21)
    ok = all(
        g.coeffs[2 * n + 1]
        == Fraction((-1) ** n * comb(2 * n, n), 16**n * (2 * n + 1) ** 2)
        for n in range(11)
    ) and all(g.coeffs[2 * n] == 0 for n in range(11))
    ok = ok and all(oracle_top_tangent(f, n) == g.coeffs[n] for n in range(1, 10))
    report(3, "sqrt-Todd exponent series, inversion-consistent closed form "
              "(-1)^n C(2n,n)/(16^n (2n+1)^2) and even vanishing, order 21, "
              "fixed-point oracle n <= 9", ok)


def test_criterion_04_lehn_specialization():
    g = taut_g(chern_f(19), 20)
    ok = all(g.coeffs[n] == Fraction((-1) ** (n - 1), n) for n in range(1, 21))
    for r in (1, 2, 3):
        gr = taut_g(cprime_pow_f(r, 14), 15)
        ok = ok and all(
            gr.coeffs[n] == Fraction((-1) ** (n - 1) * comb(r * n, n - 1), n * n)
            for n in range(1, 16)
        )
    report(4, "tautological specializations: Lehn series order 20 and "
              "(1+x)^r series order 15, r in {1,2,3}", ok)


def test_criterion_05_oracle_equivalence():
    rng = random.Random(1001)
    ok = True
    for _ in range(10):
        f = random_unit_series(rng, 12)
        gt = tangent_g(f, 12)
        gq = taut_g(f, 12)
        for n in range(1, 11):
            ok = ok and oracle_top_tangent(f, n) == gt.coeffs[n]
            ok = ok and oracle_top_taut(f, n) == gq.coeffs[n]
    report(5, "fixed-point partition sums equal both exponent series, "
              "10 random f, n <= 10", ok)


def test_criterion_06_appendix_identities():
    ok = all(
        lemma_b1(m, p) == (Fraction((-1) ** m) if p == m else 0)
        for m in range(26)
        for p in range(m + 1)
    )
    rng = random.Random(1002)
    for _ in range(5):
        f = random_unit_series(rng, 9)
        for n in range(9):
            p = p_n_series(f, n, 9)
            ok = ok and all(p.coeffs[k] == 0 for k in range(n))
            fpow = TruncatedSeries.one(9)
            for _ in range(n + 1):
                fpow = fpow * f
            ok = ok and p.coeffs[n] == Fraction((-1) ** n) * fpow.coeffs[n]
    report(6, "alternating-factorial grid m <= 25 and telescoped product "
              "series identity n <= 8, 5 random f", ok)


def test_criterion_07_lagrange_inversion():
    rng = random.Random(1003)
    ok = True
    for _ in range(10):
        F = random_unit_series(rng, 14)
        g = lagrange_g(F, 14)
        x_over_F = (TruncatedSeries.identity(14) * F.inverse()).truncate(13)
        dg = TruncatedSeries(
            QQ, 13, [g.coeffs[k + 1] * (k + 1) for k in range(14)]
        )
        ok = ok and dg.compose(x_over_F) == F.truncate(13)
        # revert round trips on t dg/dt, whose linear coefficient is a unit
        tdg = g.x_derivative()
        r = tdg.revert()
        x = TruncatedSeries.identity(14)
        ok = ok and tdg.compose(r) == x and r.compose(tdg) == x
    report(7, "Lagrange functional equation at order 13 and reversion "
              "round trips, 10 random F at order 14", ok)


def test_criterion_08_cup_ring_axioms():
    ok = (
        cup_basis((1, 1), (1, 1)).terms == {(1, 1): Fraction(2)}
        and cup_basis((2,), (2,)).is_zero
        and cup_basis((2, 1), (2, 1)).terms == {(3,): Fraction(4)}
    )
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        unit = hilb_unit(n, bound=n)
        basis = {p: FockElement.monomial(p, n) for p in parts}
        for a in parts:
            ok = ok and cup(unit, basis[a], n) == basis[a]
            for b in parts:
                ab = cup_basis(a, b)
                ok = ok and ab == cup_basis(b, a)
                deg = (n - len(a)) + (n - len(b))
                ok = ok and all(weight(p) - len(p) == deg for p in ab.terms)
                if deg > n - 1:
                    ok = ok and ab.is_zero
                for c in parts:
                    ok = ok and cup(ab, basis[c], n) == cup(
                        basis[a], cup_basis(b, c), n
                    )
    report(8, "cup: unit, commutativity, associativity, degree additivity, "
              "over-degree vanishing, n <= 5, plus anchored products", ok)


def test_criterion_09_cross_path():
    ok = True
    for r in (2, 3):
        for n in range(1, 7):
            direct = hilbert_class(
                ClassSpec(cprime_pow_f(r, max(n - 1, 0)), TAUTOLOGICAL), n
            ).component(n)
            power = hilbert_class(
                ClassSpec(chern_f(max(n - 1, 0)), TAUTOLOGICAL), n
            ).component(n)
            lehn = power
            for _ in range(r - 1):
                power = cup(power, lehn, n)
            ok = ok and direct == power
    report(9, "(1+x)^r tautological class equals the r-fold cup power of "
              "Lehn's class, r in {2,3}, n <= 6", ok)


def test_criterion_10_class_algebra_cross_oracle():
    calibration_ok = all(
        cup_basis(lam, mu) == cup_nilpotent(lam, mu)
        for n in (2, 3)
        for lam in enumerate_partitions(n)
        for mu in enumerate_partitions(n)
    )
    if not calibration_ok:
        report(10, "class-algebra cup against the nilpotent-parameter oracle",
               False, "calibration of the centralizer-order identification "
               "failed on ranks 2 and 3")
    ok = True
    for n in range(4, 8):
        parts = enumerate_partitions(n)
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                ok = ok and cup_basis(lam, mu) == cup_nilpotent(lam, mu)
    report(10, "class-algebra cup against the nilpotent-parameter oracle: "
               "calibrated on ranks 2-3, agreement "
               "for all pairs at ranks 4-7", ok)
