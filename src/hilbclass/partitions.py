"""Integer partitions: enumeration, centralizer orders, and the hook
products and symmetric group characters of shapes given by their beads.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the unique partition of 0.  A shape's characters and hook product
are read from its beta-set, packed into one int by `beads`.
"""

from __future__ import annotations

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
    """Map part size -> number of occurrences, in order of first occurrence."""
    counts = {}
    for k in parts:
        counts[k] = counts.get(k, 0) + 1
    return counts


@cache
def enumerate_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, in reverse-lexicographic order.

    enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out, parts = [], [n] if n else []
    while True:
        out.append(tuple(parts))
        # the next partition: lower the last part k + 1 > 1 to k and refill
        # what it and the trailing 1s held with parts k, then the remainder
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return tuple(out)
        k = parts.pop() - 1
        rest = ones + 1
        parts.append(k)
        while rest > k:
            parts.append(k)
            rest -= k
        parts.append(rest)


def z_of(parts) -> int:
    """Centralizer order of a permutation of this cycle type:
    product over part sizes j of j**m_j * m_j!.
    """
    parts = check_partition(parts)
    z = 1
    for j, m in multiplicities(parts).items():
        z *= j**m * factorial(m)
    return z


def beads(parts) -> int:
    """The beta-set of a shape as bead positions on one runner, packed into
    an int: bit parts[i] + (len - 1 - i) for each part.  Every part is
    positive, so there is no bead at 0, and distinct shapes have distinct
    masks (James-Kerber, The Representation Theory of the Symmetric Group, 2.7)."""
    mask = 0
    for i, p in enumerate(reversed(parts)):
        mask |= 1 << (p + i)
    return mask


def hook_product(mask: int) -> int:
    """H(lam) from the beads of lam: a bead at b over a gap at g < b is one
    hook, of length b - g."""
    gaps, prod = [], 1
    for b in range(mask.bit_length()):
        if mask >> b & 1:
            for g in gaps:
                prod *= b - g
        else:
            gaps.append(b)
    return prod


@cache
def _mn(mask: int, mu: tuple[int, ...]) -> int:
    """chi^lam(mu) by the Murnaghan-Nakayama recursion on the beads of lam:
    removing a border strip of length r moves a bead from b to a gap at
    b - r, and its height is the number of beads strictly between."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    between = (1 << (r - 1)) - 1
    gaps = mask >> r & ~mask  # bit g: a bead at g + r over a gap at g
    total = 0
    while gaps:
        low = gaps & -gaps
        gaps ^= low
        moved = mask ^ low ^ low << r
        if moved & 1:  # a bead at 0 is a zero part: shift out the run from 0
            moved >>= (moved ^ moved + 1).bit_length() - 1
        g = low.bit_length() - 1
        sign = -1 if (mask >> (g + 1) & between).bit_count() & 1 else 1
        total += sign * _mn(moved, rest)
    return total
