"""Integer partitions: enumeration, hooks, centralizer orders and symmetric
group characters.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the unique partition of 0.  Young diagrams use the English
convention, with the hook length of a cell equal to arm + leg + 1.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial


def check_partition(parts) -> tuple[int, ...]:
    """Validate and normalize a partition to a tuple."""
    parts = tuple(map(int, parts))
    if parts and min(parts) < 1:
        raise ValueError(f"partition parts must be positive: {parts}")
    if list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def weight(parts) -> int:
    return sum(parts)


def multiplicities(parts) -> dict[int, int]:
    """Map part size -> number of occurrences."""
    return dict(Counter(parts))


@cache
def enumerate_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, in reverse-lexicographic order.

    enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, max_part: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, max_part), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return tuple(gen(n, n, ()))


def hooks(parts) -> tuple[int, ...]:
    """Multiset of hook lengths over all cells, sorted decreasingly."""
    parts = check_partition(parts)
    conj = _conjugate(parts)
    out = []
    for i, row in enumerate(parts):
        for j in range(row):
            arm = row - j - 1
            leg = conj[j] - i - 1
            out.append(arm + leg + 1)
    return tuple(sorted(out, reverse=True))


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def hook_product(parts) -> int:
    prod = 1
    for h in hooks(parts):
        prod *= h
    return prod


def z_of(parts) -> int:
    """Centralizer order of a permutation of this cycle type:
    product over part sizes j of j**m_j * m_j!.
    """
    parts = check_partition(parts)
    z = 1
    for j, m in multiplicities(parts).items():
        z *= j**m * factorial(m)
    return z


@cache
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam(mu) by the Murnaghan-Nakayama recursion: border strips are
    found through beta-numbers (first-column hook lengths), so the height
    sign is a count of skipped rows."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    beta = [lam[i] + (len(lam) - 1 - i) for i in range(len(lam))]
    beta_set = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        new_beta = sorted(beta_set - {b} | {nb}, reverse=True)
        height = sum(1 for x in beta if nb < x < b)
        new_lam = tuple(
            x - (len(new_beta) - 1 - i) for i, x in enumerate(new_beta)
        )
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** height * _mn(new_lam, rest)
    return total
