"""Reference routes kept for the tests alone: the checked character
recursion, the cell contents, and the fixed-point and telescoped-product
sums as they were before the hook prefix-product tables.

The library reads the character on the n-cycle, the hook lengths and the
contents of a hook from their closed forms; these walk every partition and
build every product from scratch, so the tests can compare the two.
"""

from fractions import Fraction
from math import comb, factorial

from hilbclass.hilbert import TANGENT
from hilbclass.partitions import (
    _mn,
    check_partition,
    enumerate_partitions,
    hook_product,
    hooks,
    weight,
)
from hilbclass.series import TruncatedSeries, _convolve, _integer_numerators


def contents(parts) -> tuple[int, ...]:
    """Cell contents row - column, in row-major order."""
    parts = check_partition(parts)
    return tuple(i - j for i, row in enumerate(parts) for j in range(row))


def chi_mn(lam, mu) -> int:
    """Irreducible character value by the Murnaghan-Nakayama recursion.

    Border strips are located through beta-numbers (first-column hook
    lengths), which makes the height sign a simple count of skipped rows.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if weight(lam) != weight(mu):
        raise ValueError("shape and cycle type must have equal weight")
    return _mn(lam, mu)


def fixed_point_sum(f: TruncatedSeries, n: int, target: str) -> Fraction:
    """sum over lam |- n of chi^lam((n)) / (n H(lam)) times [x^(n-1)] of the
    product over the Chern roots r of lam (+-hook lengths for the tangent
    sheaf, contents for the tautological one) of f(r x): every partition,
    its character by the recursion, and each hook's product rebuilt from
    its roots on integer numerators over f's common denominator."""
    den, nums = _integer_numerators(f.coeffs[:n])
    total = Fraction(0)
    for lam in enumerate_partitions(n):
        chi = chi_mn(lam, (n,))
        if chi == 0:
            continue
        if target == TANGENT:
            rs = [r for h in hooks(lam) for r in (h, -h)]
        else:
            rs = contents(lam)
        product = [1] + [0] * (n - 1)
        for r in rs:
            factor = [a * r**k for k, a in enumerate(nums)]
            product = _convolve(product, factor, n - 1)
        total += Fraction(chi * product[n - 1], hook_product(lam) * n * den ** len(rs))
    return total


def p_n_series(f: TruncatedSeries, n: int, order: int) -> TruncatedSeries:
    """P_n = sum_{s=0}^n (-1)^s/(s!(n-s)!) prod_{k=-(n-s)}^{s} f(k x), each
    summand's n + 1 factors f(k x) multiplied from scratch on integer
    numerators over f's common denominator d, the sum divided by
    n! d^(n+1) once per coefficient."""
    den, nums = _integer_numerators(f.coeffs[: order + 1])
    total = [0] * (order + 1)
    for s in range(n + 1):
        product = [1] + [0] * order
        for k in range(-(n - s), s + 1):
            factor = [a * k**j for j, a in enumerate(nums)]
            product = _convolve(product, factor, order)
        weight_s = (-1) ** s * comb(n, s)
        total = [t + weight_s * p for t, p in zip(total, product)]
    scale = factorial(n) * den ** (n + 1)
    return TruncatedSeries(order, [Fraction(t, scale) for t in total])
