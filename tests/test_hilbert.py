"""Tests for the class engine: exponent series, fixed-point oracles, the
appendix identities, and the block-sum cup product with its
character-table cross-oracle."""

import hashlib
import importlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbclass import hilbert, partitions, series
from hilbclass.cli import MAX_ORDER, main
from hilbclass.fock import hilb_unit
from hilbclass.hilbert import (
    TANGENT,
    TAUTOLOGICAL,
    _block_ways,
    _cup_basis_cached,
    builtin_f,
    cprime_pow_f,
    cup,
    cup_basis,
    cup_character,
    exponent_g,
    hilbert_class,
    lemma_b1,
    oracle_top_tangent,
    oracle_top_taut,
    p_n_series_upto,
    sqrt_todd_f,
    tangent_g,
    taut_g,
)
from hilbclass.partitions import enumerate_partitions, weight
from hilbclass.series import TruncatedSeries
from hilbclass.verify import random_unit_series
from reference import (
    assert_valid_terms, derivative, exp, fixed_point_sum, fock_add, fraction_set, inverse, log,
    multilinear_part, one_minus_exp_minus_x_over_x, reference_cup, reference_cup_nilpotent,
    reference_expansion, scale, sqrt_unit,
)
from reference import p_n_series as loop_p_n_series


def test_builtin_series():
    assert builtin_f("chern", 3).coeffs == (1, 1, 0, 0)
    assert builtin_f("chern", 0).coeffs == (1,)
    assert builtin_f("segre", 3).coeffs == (1, -1, 1, -1)
    assert sqrt_todd_f(3).coeffs == (
        1, Fraction(1, 4), Fraction(1, 96), Fraction(-1, 384)
    )
    half = cprime_pow_f(Fraction(1, 2), 6)
    assert half * half == builtin_f("chern", 6)
    assert cprime_pow_f(2, 4).coeffs == (1, 2, 1, 0, 0)
    with pytest.raises(ValueError):
        builtin_f("cprime-pow", 4)
    with pytest.raises(ValueError):
        builtin_f("euler", 4)


# The earlier constructions of the closed-form defining series, through the
# series exp, log, inverse and square root, kept as references over the
# benchmark's range of orders.
REFERENCE_ORDERS = list(range(31)) + [41, 61, 81, 121]
REFERENCE_R = [Fraction(r) for r in
               ("-5/2", "-3/2", "-1/2", "2/3", "3/2", "5/2", "-1", "0", "2", "7/3")]


def one_plus_x(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs([1, 1][: order + 1], order)


@pytest.mark.parametrize("r", REFERENCE_R, ids=str)
def test_cprime_pow_matches_log_scale_exp(r):
    for order in REFERENCE_ORDERS:
        reference = exp(scale(log(one_plus_x(order)), r))
        assert cprime_pow_f(r, order) == reference, order


def test_cprime_pow_at_a_natural_r_is_the_binomial_polynomial():
    """The recurrence stops at its first zero coefficient, c_(r+1), and pads
    with zeros, at orders below r too."""
    for r in range(4):
        for order in range(122):
            f = cprime_pow_f(r, order)
            assert f.coeffs == tuple(comb(r, k) for k in range(order + 1)), (r, order)
            assert all(type(c) is Fraction for c in f.coeffs), (r, order)


def test_segre_and_sqrt_todd_match_inverse_routes():
    for order in REFERENCE_ORDERS:
        assert builtin_f("segre", order) == inverse(one_plus_x(order)), order
        minus_x = TruncatedSeries.from_coeffs([0, -1], order + 1)
        body = TruncatedSeries(order, exp(minus_x).coeffs[1:])  # (e^-x - 1)/x
        reference = sqrt_unit(inverse(scale(body, -1)))
        assert sqrt_todd_f(order) == reference, order


@pytest.mark.parametrize("r", REFERENCE_R, ids=str)
def test_cprime_pow_solves_its_differential_equation(r):
    """(1 + x) f' = r f, coefficientwise up to x^120."""
    f = cprime_pow_f(r, 121)
    df = derivative(f)
    assert all(df.coeffs[k] + k * f.coeffs[k] == r * f.coeffs[k] for k in range(121))


def test_sqrt_todd_squared_inverts_its_body():
    """f^2 (1 - e^-x)/x = 1 at the CLI's largest order."""
    f = sqrt_todd_f(MAX_ORDER)
    assert f * f * one_minus_exp_minus_x_over_x(MAX_ORDER) == TruncatedSeries.one(MAX_ORDER)


def test_class_spec_validation():
    """A class is specified by (f, target): an unknown target, an f without
    constant term 1 and an f truncated below the weight bound all raise."""
    with pytest.raises(ValueError, match="unknown target 'normal'"):
        hilbert_class(builtin_f("chern", 3), "normal", 3)
    with pytest.raises(ValueError, match="unknown target 'normal'"):
        exponent_g(builtin_f("chern", 3), "normal", 3)
    for target in (TANGENT, TAUTOLOGICAL):
        with pytest.raises(ValueError, match="constant term 1"):
            hilbert_class(TruncatedSeries.from_coeffs([2, 1], 3), target, 3)
        with pytest.raises(ValueError, match="truncated too low"):
            hilbert_class(builtin_f("chern", 1), target, 5)


def test_exponent_g_calls_the_engines_by_their_global_names(monkeypatch, capsys):
    """`hilbert_class` and `gseries` pick `tangent_g` or `taut_g` in one place,
    `exponent_g`, which looks each up in the module, where a tracer rebinds it."""
    called = []
    for name in ("tangent_g", "taut_g"):
        engine = getattr(hilbert, name)
        monkeypatch.setattr(hilbert, name, lambda f, order, name=name, engine=engine: (
            called.append(name) or engine(f, order)))
    hilbert_class(builtin_f("chern", 3), TANGENT, 3)
    hilbert_class(builtin_f("chern", 3), TAUTOLOGICAL, 3)
    assert main(["gseries", "chern", "tautological", "--order", "3"]) == 0
    assert called == ["tangent_g", "taut_g", "taut_g"]
    assert capsys.readouterr().out


def test_hilbert_class_weight_two():
    assert hilbert_class(builtin_f("chern", 1), TANGENT, 2) == {
        (): Fraction(1),
        (1,): Fraction(1),
        (1, 1): Fraction(1, 2),
    }


def test_oracles_match_series_for_fixed_f():
    for f in (builtin_f("chern", 7), builtin_f("segre", 7), sqrt_todd_f(7)):
        assert oracle_top_tangent(f, 6) == tangent_g(f, 7).truncate(6)
        assert oracle_top_taut(f, 6) == taut_g(f, 7).truncate(6)


ORACLES = {TANGENT: oracle_top_tangent, TAUTOLOGICAL: oracle_top_taut}


@pytest.mark.parametrize("target", (TANGENT, TAUTOLOGICAL))
def test_oracles_match_every_partition_route(target):
    """The hook prefix tables against the route over every partition, with
    the character from the recursion and each hook's product rebuilt from
    its roots, and against the Lagrange route, up to n = 12."""
    rng = random.Random(1601)
    for _ in range(10):
        f = random_unit_series(rng, 11)
        g = exponent_g(f, target, 12)
        oracle = ORACLES[target](f, 12)
        assert oracle == g
        for n in range(1, 13):
            assert oracle.coeffs[n] == fixed_point_sum(f, n, target), n


@pytest.mark.parametrize("target", (TANGENT, TAUTOLOGICAL))
def test_oracles_match_literal_fixed_point_sum(target):
    """Up to n = 8, six draws with zero and negative coefficients and the
    three built-in classes, against the same every-partition route."""
    rng = random.Random(2024)
    drawn = [random_unit_series(rng, 7) for _ in range(6)]
    tails = [c for f in drawn for c in f.coeffs[1:]]
    assert 0 in tails and min(tails) < 0
    for f in drawn + [builtin_f(name, 7) for name in ("chern", "segre", "sqrt-todd")]:
        oracle = ORACLES[target](f, 8)
        for n in range(1, 9):
            assert oracle.coeffs[n] == fixed_point_sum(f, n, target), n


@pytest.mark.parametrize("target", (TANGENT, TAUTOLOGICAL))
def test_oracle_series_prefixes_agree(target):
    """On the draws of `verify oracle`, the series to order 12 begins with
    the series to every lower order, though their common denominators span
    different prefixes of f."""
    rng = random.Random(1001)
    for _ in range(10):
        f = random_unit_series(rng, 12)
        full = ORACLES[target](f, 12)
        for n in range(1, 13):
            assert full.coeffs[: n + 1] == ORACLES[target](f, n).coeffs, n


@pytest.mark.parametrize("target", (TANGENT, TAUTOLOGICAL))
def test_oracle_input_errors(target):
    oracle = ORACLES[target]
    with pytest.raises(ValueError, match="n >= 1"):
        oracle(builtin_f("chern", 3), 0)
    with pytest.raises(ValueError, match="constant term 1"):
        oracle(TruncatedSeries.from_coeffs([2, 1], 3), 2)
    with pytest.raises(ValueError, match="truncated too low"):
        oracle(builtin_f("chern", 3), 5)
    assert oracle(builtin_f("chern", 3), 4).coeffs[1:] == tuple(
        fixed_point_sum(builtin_f("chern", 3), n, target) for n in range(1, 5))


def test_oracle_anchored_values():
    # n = 2 tautological Chern: two fixed points with contents {0,-1} and
    # {0,1} combine to -1/2
    assert oracle_top_taut(builtin_f("chern", 3), 2).coeffs[2] == Fraction(-1, 2)
    assert oracle_top_tangent(builtin_f("chern", 3), 3).coeffs[3] == Fraction(-1, 3)


def test_lemma_b1():
    assert lemma_b1(0, 0) == 1
    assert lemma_b1(25, 25) == -1
    assert all(lemma_b1(7, p) == 0 for p in range(7))
    with pytest.raises(ValueError):
        lemma_b1(3, 4)


def test_p_n_series_for_chern():
    f = builtin_f("chern", 8)
    for n, p in enumerate(p_n_series_upto(f, 6)):
        assert all(p.coeffs[k] == 0 for k in range(n))
        # leading term (-1)^n [x^n] (1+x)^(n+1) = (-1)^n (n+1)
        assert p.coeffs[n] == Fraction((-1) ** n * (n + 1))


def test_p_n_series_matches_per_summand_loop():
    """Over the range of `verify appendix` (its five draws, n <= 8) and the
    built-in classes, against each summand multiplied from scratch, both
    from a table to x^n and, as `verify appendix` reads them, from one
    table to x^8."""
    rng = random.Random(1002)
    drawn = [random_unit_series(rng, 9) for _ in range(5)]
    for f in drawn + [builtin_f(name, 9) for name in ("chern", "segre", "sqrt-todd")]:
        p_ns = p_n_series_upto(f, 8)
        for n in range(9):
            expected = loop_p_n_series(f, n, n)
            assert p_n_series_upto(f, n)[n] == expected, n
            assert p_ns[n] == expected, n


@pytest.mark.parametrize("target", (TANGENT, TAUTOLOGICAL))
def test_oracle_is_the_top_coefficient_of_p_n(target):
    """n^2 times the fixed-point sum is [x^(n-1)] P_(n-1) of the sheaf's F
    (f, or f(x) f(-x) for the tangent sheaf), and P_(n-1) vanishes below
    x^(n-1), so the tangent hook length n's factor F(n x) adds only F(0):
    on the draws of `verify oracle` and the built-in classes, n <= 12."""
    rng = random.Random(1001)
    drawn = [random_unit_series(rng, 12) for _ in range(10)]
    for f in drawn + [builtin_f(name, 12) for name in ("chern", "segre", "sqrt-todd")]:
        F = f * f.negate_arg() if target == TANGENT else f
        oracle, p_ns = ORACLES[target](f, 12), p_n_series_upto(F, 11)
        for n in range(1, 13):
            assert n**2 * oracle.coeffs[n] == p_ns[n - 1].coeffs[n - 1], n
            assert not any(p_ns[n - 1].coeffs[: n - 1]), n


def test_fixed_point_sums_read_no_partition_table(monkeypatch):
    """The fixed-point oracles and P_n read the hooks' closed forms alone:
    with every function `hilbert` imports from `partitions` raising (the
    Murnaghan-Nakayama recursion, the bead masks, the hook product and the
    partition enumeration among them), in `partitions` and in `hilbert`,
    they give the values computed before, up to n = 8."""
    rng = random.Random(1602)
    fs = [random_unit_series(rng, 8) for _ in range(3)] + [builtin_f("chern", 8), sqrt_todd_f(8)]

    def values():
        return [(oracle_top_tangent(f, n), oracle_top_taut(f, n))
                for f in fs for n in range(1, 9)] + [p_n_series_upto(f, 8) for f in fs]

    expected = values()

    def forbidden(*args):
        raise AssertionError("the fixed-point sum read a partition table")

    names = [name for name, value in vars(hilbert).items()
             if getattr(value, "__module__", None) == partitions.__name__]
    assert {"_mn", "beads", "enumerate_partitions", "hook_product"} <= set(names)
    for module in (partitions, hilbert):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError):
        partitions.hook_product(partitions.beads((2, 1)))
    assert values() == expected


def test_fixed_point_oracles_call_no_lagrange_route(monkeypatch):
    """The oracles stay independent of the route they check: with
    `lagrange_g` (in `series` and in `hilbert`), `tangent_g`, `taut_g` and
    `exponent_g` raising, they give the values computed before, up to
    n = 8."""
    rng = random.Random(1602)
    fs = [random_unit_series(rng, 8) for _ in range(3)] + [builtin_f("chern", 8), sqrt_todd_f(8)]

    def values():
        return [(oracle_top_tangent(f, n), oracle_top_taut(f, n)) for f in fs for n in range(1, 9)]

    expected = values()

    def forbidden(*args):
        raise AssertionError("the fixed-point oracle ran the Lagrange route")

    monkeypatch.setattr(series, "lagrange_g", forbidden)
    for name in ("lagrange_g", "tangent_g", "taut_g", "exponent_g"):
        monkeypatch.setattr(hilbert, name, forbidden)
    with pytest.raises(AssertionError):
        tangent_g(fs[0], 8)  # the unpatched engine reaches the patched solver
    assert values() == expected


def test_cup_basis_anchored():
    assert cup_basis((1, 1), (1, 1)) == {(1, 1): Fraction(2)}
    assert cup_basis((2,), (2,)) == {}
    assert cup_basis((2, 1), (2, 1)) == {(3,): Fraction(4)}
    assert cup_basis((1,), (1,)) == {(1,): Fraction(1)}


def test_cup_basis_guards():
    with pytest.raises(ValueError):
        cup_basis((2,), (1,))
    with pytest.raises(ValueError):
        cup_basis((), ())


def test_cup_unit_and_bilinearity():
    n = 4
    unit = hilb_unit(n)
    a = {(3, 1): Fraction(2, 3)}
    b = {(2, 2): Fraction(5)}
    a_plus_b = fock_add(a, b, n)
    assert cup(unit, a_plus_b, n) == a_plus_b
    left = cup(a_plus_b, b, n)
    assert left == fock_add(cup(a, b, n), cup(b, b, n), n)


def test_cup_guards():
    a = {(2,): Fraction(1)}
    with pytest.raises(ValueError):
        cup(a, a, 3)  # support in weight 2, not 3


@pytest.mark.parametrize("target", (TANGENT, TAUTOLOGICAL))
def test_cup_matches_the_fraction_loop(target):
    """`cup` on integer numerators gives the terms of the double loop over
    `Fraction` terms, in the same order: on products of seeded class
    components at ranks 6, 8 and 10, on a pair whose terms cancel, and with
    an empty operand."""
    rng = random.Random(39)
    for n in (6, 8, 10):
        a, b = (hilbert_class(random_unit_series(rng, n - 1), target, n, n) for _ in range(2))
        for x, y in ((a, b), (b, a), (a, a), (a, {}), ({}, b)):
            assert list(cup(x, y, n).items()) == list(reference_cup(x, y, n).items()), n
    # q_(2,1)^2 / 4 = q_(3) cancels the -q_(3) that the unit's term gives
    a = {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 4)}
    b = {(2, 1): Fraction(1), (3,): Fraction(-1)}
    assert list(cup(a, b, 3).items()) == list(reference_cup(a, b, 3).items()) == [
        ((2, 1), Fraction(1))]


def test_cup_unit_at_higher_rank():
    for n in range(8, 11):
        unit = hilb_unit(n)
        for lam in enumerate_partitions(n):
            q = {lam: Fraction(1)}
            assert cup(unit, q, n) == q


def test_transposition_class_squared():
    # q_(2,1^(n-2)) squared, from C_T^2 = (n(n-1)/2) C_1 + 3 C_(3,1^(n-3))
    # + 2 C_(2,2,1^(n-4)) with q_lam = z(lam) C_lam
    assert cup_basis((2, 1), (2, 1)) == {(3,): Fraction(4)}
    for n in range(4, 13):
        t = (2,) + (1,) * (n - 2)
        assert cup_basis(t, t) == {
            (3,) + (1,) * (n - 3): 4 * factorial(n - 2) * (n - 2),
            (2, 2) + (1,) * (n - 4): factorial(n - 2) * (n - 2) * (n - 3),
        }


def test_cup_terms_keep_the_fock_invariant():
    for n in range(1, 7):
        for nu in enumerate_partitions(n):
            for nu2 in enumerate_partitions(n):
                assert_valid_terms(cup_basis(nu, nu2), n, n)
                if n <= 4:
                    assert_valid_terms(cup_character(nu, nu2), n, n)


def _pairs(max_n):
    for n in range(1, max_n + 1):
        yield from combinations_with_replacement(enumerate_partitions(n), 2)


def test_cup_basis_matches_pair_ring_route():
    for nu, nu2 in _pairs(6):
        expected = reference_cup_nilpotent(nu, nu2)
        assert cup_basis(nu, nu2) == expected, (nu, nu2)
        assert cup_basis(nu2, nu) == expected, (nu2, nu)


def _empty_cup_caches():
    _block_ways.cache_clear()
    _cup_basis_cached.cache_clear()


def test_cup_basis_reads_no_character_table(monkeypatch):
    """The block sum needs no character table: with the Murnaghan-Nakayama
    recursion raising, in `partitions` and in `hilbert`, which imports it,
    `cup_basis` still gives every product of rank <= 10, in both orders up
    to rank 5, its caches emptied first."""
    pairs = list(_pairs(10))
    assert len(pairs) == 1860
    expected = [cup_character(nu, nu2) for nu, nu2 in pairs]

    def forbidden(*args):
        raise AssertionError("the block sum read the character table")

    for module in (partitions, hilbert):
        monkeypatch.setattr(module, "_mn", forbidden)
    with pytest.raises(AssertionError):
        partitions._mn((2, 1), (3,))
    _empty_cup_caches()
    for (nu, nu2), want in zip(pairs, expected):
        assert cup_basis(nu, nu2) == want, (nu, nu2)
        if weight(nu) <= 5:
            assert cup_basis(nu2, nu) == want, (nu2, nu)


def test_character_oracle_reads_no_block_table(monkeypatch):
    """cup_character stays an independent oracle: with the block walk's
    cached ways, the product cache and cup_basis all raising in `hilbert`,
    it still gives every product of rank <= 10, in both orders up to rank
    5, its Murnaghan-Nakayama cache and shape tables emptied first."""
    pairs = list(_pairs(10))
    expected = [cup_basis(nu, nu2) for nu, nu2 in pairs]

    def forbidden(*args):
        raise AssertionError("the character oracle read the block sum")

    for name in ("_block_ways", "_cup_basis_cached", "cup_basis"):
        monkeypatch.setattr(hilbert, name, forbidden)
    with pytest.raises(AssertionError):
        hilbert.cup({(1,): Fraction(1)}, {(1,): Fraction(1)}, 1)
    partitions._mn.cache_clear()
    hilbert._shapes.cache_clear()
    for (nu, nu2), want in zip(pairs, expected):
        assert cup_character(nu, nu2) == want, (nu, nu2)
        if weight(nu) <= 5:
            assert cup_character(nu2, nu) == want, (nu2, nu)


def test_cup_routes_give_terms_in_the_same_order():
    """The writer prints a product's terms in their stored order, which
    dict equality ignores: both routes store the same terms in the same
    order on every pair of rank <= 10."""
    for nu, nu2 in _pairs(10):
        assert list(cup_basis(nu, nu2).items()) == list(
            cup_character(nu, nu2).items()), (nu, nu2)


def test_cup_basis_ignores_cache_state_and_argument_order(capsys):
    """Every pair of rank <= 7 gives the same terms, in the same order,
    with the block walk's ways and the product cache emptied first,
    with them warm, with its two factors in either order, and from the
    uncached block sum with its factors out of canonical order.  The
    `cup` command reads the cached dict and leaves it as it was."""
    for nu, nu2 in _pairs(7):
        results = []
        for a, b in ((nu, nu2), (nu2, nu)):
            _empty_cup_caches()
            results += [cup_basis(a, b), cup_basis(a, b), cup_basis(b, a),
                        _cup_basis_cached.__wrapped__(a, b)]
        assert all(list(r.items()) == list(results[0].items()) for r in results), (nu, nu2)
    assert main(["cup", "[2,1]", "[2,1]"]) == 0
    assert capsys.readouterr().out
    assert cup_basis((2, 1), (2, 1)) == {(3,): Fraction(4)}


def test_bench_worker_empties_the_block_tables(monkeypatch):
    """The bench worker empties every functools cache its module scan finds
    before each request, so that each `cup` and `verify` request stays
    cold; that scan reaches the block walk's ways, the product cache
    and the character oracle's per-rank shape tables, and emptying what it
    finds empties them."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    worker = importlib.import_module("worker")
    _empty_cup_caches()
    hilbert._shapes.cache_clear()
    cup_basis((2, 1, 1), (3, 1))
    cup_character((2, 1, 1), (3, 1))
    caches = (_block_ways, _cup_basis_cached, hilbert._shapes)
    assert all(cache.cache_info().currsize for cache in caches)
    clears = worker.find_caches()
    assert all(cache.cache_clear in clears for cache in caches)
    for clear in clears:
        clear()
    assert not any(cache.cache_info().currsize for cache in caches)


def test_nilpotent_route_vanishes_below_weight_n():
    # cup_basis expands weight n only; the full expansion of the same h
    # must carry no multilinear coefficient at a lower weight
    for nu, nu2 in _pairs(5):
        full = multilinear_part(*reference_expansion(nu, nu2))
        assert all(weight(parts) == weight(nu) for parts in full), (nu, nu2, full)
        assert full == cup_basis(nu, nu2)


# Past rank 10 no pair is checked in full, so a seeded sample of pairs with
# len(nu) + len(nu2) > n, the degree bound a nonzero product must meet (a
# random pair is almost always a zero product), fixed before its first run.
HIGH_RANKS = (12, 14, 16, 18, 20)
HIGH_RANK_PAIRS = 4


def test_cup_basis_matches_character_table_past_rank_ten():
    """The block sum against the character table on 4 seeded pairs at each
    of the ranks 12, 14, 16, 18 and 20, where bead masks run past 7 beads,
    term for term in stored order, which the writer prints; every product
    drawn is nonzero."""
    rng = random.Random(3112)
    nonzero = 0
    for n in HIGH_RANKS:
        shapes = enumerate_partitions(n)
        drawn = 0
        while drawn < HIGH_RANK_PAIRS:
            nu, nu2 = rng.choice(shapes), rng.choice(shapes)
            if len(nu) + len(nu2) <= n:
                continue
            drawn += 1
            got = cup_basis(nu, nu2)
            assert list(got.items()) == list(cup_character(nu, nu2).items()), (nu, nu2)
            nonzero += bool(got)
    assert nonzero == len(HIGH_RANKS) * HIGH_RANK_PAIRS


# Two products at MAX_RANK = 28, where the character table takes seconds
# per pair, pinned by the SHA-256 of the payload list `cup` prints, recorded
# from an earlier route that built one block table per factor and lam.
RANK_28_PRODUCTS = [
    ((5,) + (2,) * 6 + (1,) * 11, (4, 4, 3, 2, 2) + (1,) * 13, 376,
     "2c034488446f45be449355197bd6efe3f5eebfd5cb5c93dbc9a700effcfe7b02"),
    ((10,) + (1,) * 18, (10,) + (1,) * 18, 2,
     "51ebf1f2fcb3cc8409c8d1500cd76f881976529bbb4a8bb898756bab55cf72d4"),
]


@pytest.mark.parametrize("nu, nu2, terms, digest", RANK_28_PRODUCTS)
def test_cup_basis_at_rank_28_is_pinned(capsys, nu, nu2, terms, digest):
    assert len(cup_basis(nu, nu2)) == terms
    assert main(["cup", str(list(nu)), str(list(nu2))]) == 0
    payload = capsys.readouterr().out.split('"payload": ', 1)[1].split(',\n  "request": ', 1)[0]
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


_small_rational = st.sampled_from(fraction_set(3, 3))


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    target=st.sampled_from((TANGENT, TAUTOLOGICAL)),
    tails=st.lists(st.lists(_small_rational, min_size=7, max_size=7),
                   min_size=2, max_size=2),
)
def test_class_is_multiplicative(n, target, tails):
    f1, f2 = (TruncatedSeries.from_coeffs([1] + tail[: n - 1], n - 1)
              for tail in tails)

    def component(f):
        return hilbert_class(f, target, n, n)

    assert cup(component(f1), component(f2), n) == component(f1 * f2)
