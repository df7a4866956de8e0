"""Tests for partitions, beads, hook products and symmetric-group characters.

The character recursion and the hook product run on bead masks; they are
checked against data built without beads: the Euler partition-counting
recurrence, explicit small character tables built from permutation fixed
points, the hook lengths of the Young diagram, the hook-length dimension
formula, and column and row orthogonality.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbclass.partitions import (
    beads,
    check_partition,
    enumerate_partitions,
    hook_product,
    multiplicities,
    weight,
    z_of,
)
from reference import chi_mn, chi_on_n_cycle, conjugate, contents, hooks, partition_count


def test_check_partition():
    assert check_partition([3, 1, 1]) == (3, 1, 1)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


@pytest.mark.parametrize("parts,expected", [
    ((), ()),
    ((3, 1, 1), (3, 1, 1)),
    ((True, True), (1, 1)),
    ([2.0, 1], (2, 1)),
    ("21", (2, 1)),
    ((0,), "partition parts must be positive: (0,)"),
    ((3, 0), "partition parts must be positive: (3, 0)"),
    ((2, 3), "partition parts must be weakly decreasing: (2, 3)"),
    ((1, -1), "partition parts must be positive: (1, -1)"),
])
def test_check_partition_result_or_message(parts, expected):
    if isinstance(expected, tuple):
        assert check_partition(parts) == expected
    else:
        with pytest.raises(ValueError) as info:
            check_partition(parts)
        assert str(info.value) == expected


def test_enumeration_matches_count():
    for n in range(31):
        assert len(enumerate_partitions(n)) == partition_count(n)


def test_enumeration_reverse_lex():
    assert enumerate_partitions(4) == (
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    )
    for n in range(12):
        parts = enumerate_partitions(n)
        assert all(weight(p) == n for p in parts)
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1, 1, 1)) == {3: 1, 2: 2, 1: 3}
    assert multiplicities(()) == {}


def test_beads_are_distinct_and_leave_zero_empty():
    assert [beads(lam) for lam in ((), (1,), (2, 1), (1, 1, 1), (3, 3))] == [
        0, 0b10, 0b1010, 0b1110, 0b11000]
    seen = set()
    for n in range(13):
        for lam in enumerate_partitions(n):
            mask = beads(lam)
            assert mask & 1 == 0, lam
            assert mask.bit_count() == len(lam), lam
            seen.add(mask)
    assert len(seen) == sum(partition_count(n) for n in range(13))


def test_hooks_anchored():
    assert hooks((1,)) == (1,)
    assert hooks((2, 1)) == (3, 1, 1)
    assert hooks((2, 2)) == (3, 2, 2, 1)
    assert hook_product(beads((3, 1))) == 4 * 2 * 1 * 1
    assert hook_product(beads(())) == 1


def test_bead_hook_product_is_product_of_hooks():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert hook_product(beads(lam)) == prod(hooks(lam)), lam


def test_hook_length_dimension_formula():
    # sum over shapes of (n!/hook product)^2 = n!
    for n in range(1, 9):
        total = sum(
            (factorial(n) // hook_product(beads(lam))) ** 2
            for lam in enumerate_partitions(n)
        )
        assert total == factorial(n)


def test_z_of():
    assert z_of(()) == 1
    assert z_of((1, 1, 1)) == 6
    assert z_of((2, 1)) == 2
    assert z_of((3,)) == 3
    # class sizes n!/z partition the group
    for n in range(1, 9):
        assert sum(
            factorial(n) // z_of(mu) for mu in enumerate_partitions(n)
        ) == factorial(n)


def test_contents():
    assert contents((1,)) == (0,)
    assert contents((2,)) == (0, -1)
    assert contents((1, 1)) == (0, 1)
    assert contents((2, 1)) == (0, -1, 1)


@given(st.integers(min_value=1, max_value=9), st.randoms())
def test_contents_of_conjugate_negate(n, rnd):
    lam = rnd.choice(enumerate_partitions(n))
    conj = conjugate(lam)
    assert sorted(contents(conj)) == sorted(-c for c in contents(lam))
    assert hooks(conj) == hooks(lam)


def _cycle_type(perm):
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        length, i = 0, s
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


def _fixed_points(perm):
    return sum(1 for i, v in enumerate(perm) if i == v)


def test_chi_mn_against_s3_table():
    """S_3 table built from scratch: trivial, sign, and the standard
    representation fix(sigma) - 1."""
    for perm in permutations(range(3)):
        mu = _cycle_type(perm)
        sign = (-1) ** (3 - len(mu))
        assert chi_mn((3,), mu) == 1
        assert chi_mn((1, 1, 1), mu) == sign
        assert chi_mn((2, 1), mu) == _fixed_points(perm) - 1


def test_chi_mn_against_s4_table():
    """S_4: trivial, sign, standard fix-1, its sign twist, and the
    two-dimensional character recovered from the regular character."""
    for perm in permutations(range(4)):
        mu = _cycle_type(perm)
        sign = (-1) ** (4 - len(mu))
        std = _fixed_points(perm) - 1
        assert chi_mn((4,), mu) == 1
        assert chi_mn((1, 1, 1, 1), mu) == sign
        assert chi_mn((3, 1), mu) == std
        assert chi_mn((2, 1, 1), mu) == sign * std
        # regular character: 24 at identity, else 0; solve for the last one
        regular = 24 if mu == (1, 1, 1, 1) else 0
        assert 2 * chi_mn((2, 2), mu) == regular - 1 - sign - 3 * std * (
            1 + sign
        )


def test_chi_mn_dimensions():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            assert chi_mn(lam, (1,) * n) == factorial(n) // prod(hooks(lam))


def test_chi_mn_column_orthogonality():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        table = {lam: [chi_mn(lam, mu) for mu in parts] for lam in parts}
        for i, mu in enumerate(parts):
            for j, nu in enumerate(parts):
                total = sum(row[i] * row[j] for row in table.values())
                assert total == (z_of(mu) if mu == nu else 0)


def test_chi_mn_row_orthogonality():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        table = {lam: [chi_mn(lam, mu) for mu in parts] for lam in parts}
        zs = [z_of(mu) for mu in parts]
        for lam in parts:
            for kappa in parts:
                total = sum(Fraction(a * b, z) for a, b, z in zip(table[lam], table[kappa], zs))
                assert total == (lam == kappa), (lam, kappa)


def test_chi_on_n_cycle():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            assert chi_on_n_cycle(lam) == chi_mn(lam, (n,))
    with pytest.raises(ValueError):
        chi_on_n_cycle(())


def test_chi_mn_weight_mismatch():
    with pytest.raises(ValueError):
        chi_mn((2,), (3,))
