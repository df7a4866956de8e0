"""Tests for finite creation-monomial combinations, each a plain dict
{partition: coefficient}.

An element carries only its terms; the weight bound of a class expansion
is an argument of the expansion and of every reference that truncates or
guards by weight.  The expansion of exp(sum_k g_k q_k), the walk
`_exp_walk` that `hilbert_class` runs over the numerators and
denominators of its exponent series, is checked against a visit of every
partition (`exp_linear_reference`), as an exponential through the
reference Fock (symmetric-algebra) product, and, cut to one weight or
degree, against the full expansion filtered (`restrict`).  No command
multiplies Fock elements that way; the cup product lives in
`hilbclass.hilbert`.  Every producer must keep the canonical term order
(`canonical`).  The walk also runs here over lists of int numerators and
divisors with gaps in their support, each term then the pair (product,
divisor), kept apart.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbclass
from hilbclass.cli import MAX_RANK, MAX_WEIGHT, PART_TEXT, _emit, _record, main
from hilbclass.fock import _exp_walk, hilb_unit
from hilbclass.hilbert import (
    TANGENT, builtin_f, cup, cup_basis, cup_character,
    hilbert_class, tangent_g, taut_g,
)
from hilbclass.partitions import enumerate_partitions, weight
from hilbclass.series import TruncatedSeries
from reference import (
    add, assert_valid_terms, canonical, exp_linear_reference, fock_add, fock_product,
    fock_scale, fraction_set, restrict,
)

small_rationals = st.sampled_from(fraction_set(4, 5))


def walk(g, bound: int, only=None, degree=None) -> dict:
    """`_exp_walk` over a series g with g(0) = 0, as `hilbert_class` runs it
    on an exponent series, as {partition: Fraction}; or over a pair of lists,
    int numerators g_0..g_bound and divisors, each term the pair (product,
    divisor), kept apart.  No partition may come twice."""
    series = isinstance(g, TruncatedSeries)
    if series:
        g = [c.numerator for c in g.coeffs], [c.denominator for c in g.coeffs]
    terms = _exp_walk(*g, bound, only, degree,
                      lambda key, c, d: (key, Fraction(c, d) if series else (c, d)))
    out = dict(terms)
    assert len(out) == len(terms)
    return out


def assert_canonical(e: dict):
    assert list(e) == canonical(e)


def test_truncation_drops_overflow():
    a = {(2,): Fraction(1)}
    assert fock_product(a, a, 3) == {}  # weight 4 > bound 3
    c = {(1,): Fraction(1)}
    assert fock_product(a, c, 3).get((2, 1), 0) == 1


def test_product_merges_partitions():
    a = {(2, 1): Fraction(2)}
    b = {(3, 2): Fraction(1, 2)}
    assert fock_product(a, b, 8) == {(3, 2, 2, 1): Fraction(1)}


def test_linear_structure():
    a = {(2,): Fraction(1)}
    b = {(1, 1): Fraction(1)}
    s = fock_add(a, fock_scale(b, 3), 3)
    assert s.get((1, 1), 0) == 3
    assert fock_add(s, fock_scale(s, -1), 3) == {}
    assert fock_scale(s, 0) == {}
    assert fock_add(s, fock_scale(b, -3), 3) == {(2,): 1}


def test_compatibility_guards():
    a = {(1,): Fraction(1)}
    b = {(3,): Fraction(1)}
    with pytest.raises(ValueError):
        fock_add(a, b, 2)  # b's term is over the bound
    with pytest.raises(TypeError):
        fock_add(a, 1, 2)


def test_components_partition_element():
    g = TruncatedSeries.from_coeffs([0, 1, Fraction(-1, 2), Fraction(1, 3)], 3)
    e = walk(g, 3)
    rebuilt = {}
    for n in range(4):
        piece = walk(g, 3, n)
        assert piece and all(weight(p) == n for p in piece)
        rebuilt = fock_add(rebuilt, piece, 3)
    assert rebuilt == e
    by_degree = {}
    for d in range(4):
        by_degree = fock_add(by_degree, restrict(e, degree=d), 3)
    assert by_degree == e
    for only in (-1, 4):
        with pytest.raises(ValueError, match="the single weight"):
            hilbert_class(builtin_f("chern", 2), TANGENT, 3, only)


def test_exp_linear_anchored():
    g = TruncatedSeries.from_coeffs([0, 1, Fraction(-1, 2)], 2)
    assert walk(g, 2) == {
        (): Fraction(1),
        (1,): Fraction(1),
        (2,): Fraction(-1, 2),
        (1, 1): Fraction(1, 2),
    }


def test_hilbert_class_guards_keep_their_order():
    """The series is checked first (by `exponent_g`), then the single
    weight, then the degree, whichever of the later ones is also bad."""
    f = builtin_f("chern", 3)
    cases = [
        ((TruncatedSeries.from_coeffs([2, 1], 3), TANGENT, 4, 5, -1), "constant term 1"),
        ((f, "sheaf", 4, 5, -1), "unknown target"),
        ((f, TANGENT, 4, 5, -1), "the single weight"),
        ((f, TANGENT, 4, -1, None), "the single weight"),
        ((f, TANGENT, 4, None, -1), "the degree"),
        ((f, TANGENT, 4, 4, -1), "the degree"),
    ]
    for args, words in cases:
        with pytest.raises(ValueError, match=words):
            hilbert_class(*args)


g_value = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
)
g_tail = st.one_of(  # dense, or mostly zero
    st.lists(g_value, max_size=12),
    st.lists(st.one_of(st.just(0), st.just(0), st.just(0), g_value), max_size=12),
)


small_denominators = st.lists(  # a denominator of its own per part, zeros among them
    st.one_of(st.just(0), st.sampled_from(fraction_set(9, 7))),
    max_size=12,
)


@given(st.one_of(g_tail, small_denominators), st.integers(min_value=0, max_value=12),
       st.data())
@settings(max_examples=100, deadline=None)
def test_exp_linear_matches_reference(tail, bound, data):
    tail = (tail + [0] * bound)[:bound]
    g = TruncatedSeries.from_coeffs([0] + tail, bound)
    expected = exp_linear_reference(g.coeffs, bound)
    got = walk(g, bound)
    assert got == expected
    assert_valid_terms(got, bound)
    for only in range(bound + 1):
        piece = walk(g, bound, only)
        assert piece == restrict(expected, only)
        assert_valid_terms(piece, bound, only)
    cut = st.one_of(st.none(), st.integers(min_value=0, max_value=bound))
    only, degree = data.draw(cut), data.draw(cut)
    pruned = walk(g, bound, only, degree)
    assert pruned == restrict(expected, only, degree)
    assert_valid_terms(pruned, bound)
    assert_canonical(pruned)


def integer_pairs_g() -> tuple[list, list]:
    # numerators and divisors of g = t + 2 t^2 - 3/3 t^3 + 6/4 t^5 + 2/5 t^6,
    # no t^4 term, each divisor kept as given
    return [0, 1, 2, -3, 0, 6, 2], [1, 1, 1, 3, 1, 4, 5]


def even_support_g() -> tuple[list, list]:
    # g = 3/2 t^2 - 5/3 t^4 + 7/4 t^6: no part 1, so no term of odd weight
    return [0, 0, 3, 0, -5, 0, 7], [1, 1, 2, 1, 3, 1, 4]


def run_factors_g() -> tuple[list, list]:
    # g = -2/3 t + 3/2 t^2 + 6/4 t^4 - 1/5 t^6: each run 1^j carries
    # (-2)^j over 3^j j!, and 6/4 is kept unreduced
    return [0, -2, 3, 0, 6, 0, -1], [1, 3, 2, 1, 4, 1, 5]


def test_exp_walk_matches_reference_over_integer_pairs():
    for nums, dens in (integer_pairs_g(), run_factors_g()):
        bound = len(nums) - 1
        expected = exp_linear_reference(nums, bound, 1, dens)
        for only in (None, *range(bound + 1)):
            for degree in (None, *range(bound + 1)):
                got = walk((nums, dens), bound, only, degree).items()
                want = restrict(expected, only, degree).items()
                assert list(got) == list(want), (nums, only, degree)


def test_exp_walk_at_bound_zero():
    for only, degree in ((None, None), (0, None), (None, 0), (0, 1)):
        expected = {(): (1, 1)} if degree != 1 else {}
        assert walk(([0], [1]), 0, only, degree) == expected


def degree_cases():
    """(g, bound) for both targets over the rationals, and for two pairs
    of int lists whose support has gaps."""
    f = builtin_f("cprime-pow", 9, Fraction(-5, 2))
    dense = TruncatedSeries.from_coeffs([1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3),
                                         -1, Fraction(1, 5), Fraction(3, 4), Fraction(-2, 7)], 9)
    return [
        pytest.param(tangent_g(f, 10), 10, id="tangent"),
        pytest.param(taut_g(f, 10), 10, id="tautological"),
        pytest.param(tangent_g(dense, 10), 10, id="dense-tangent"),
        pytest.param(taut_g(dense, 10), 10, id="dense-tautological"),
        pytest.param(integer_pairs_g(), 6, id="integer-pairs"),
        pytest.param(even_support_g(), 6, id="even-support"),
    ]


@pytest.mark.parametrize("g,bound", degree_cases())
def test_degree_pruned_walk_equals_filtered_walk(g, bound):
    for only in (None, *range(bound + 1)):
        full = walk(g, bound, only)
        rebuilt = {}
        for degree in range(bound + 1):
            pruned = walk(g, bound, only, degree)
            assert pruned == restrict(full, degree=degree), (only, degree)
            assert_valid_terms(pruned, bound)
            assert_canonical(pruned)
            rebuilt = fock_add(rebuilt, pruned, bound)
        assert rebuilt == full


def test_degree_guard():
    f = builtin_f("chern", 1)
    for only in (None, 2):
        with pytest.raises(ValueError, match="the degree"):
            hilbert_class(f, TANGENT, 2, only, -1)
    g = TruncatedSeries.from_coeffs([0, 1, Fraction(-1, 2)], 2)
    assert walk(g, 2, None, 2) == {}  # degree 2 needs weight 3


@given(
    st.lists(small_rationals, min_size=5, max_size=5),
    st.lists(small_rationals, min_size=5, max_size=5),
)
@settings(max_examples=30)
def test_exp_linear_is_exponential(c1, c2):
    g1 = TruncatedSeries.from_coeffs([0] + c1, 5)
    g2 = TruncatedSeries.from_coeffs([0] + c2, 5)
    assert walk(add(g1, g2), 5) == fock_product(walk(g1, 5), walk(g2, 5), 5)


def test_every_producer_keeps_canonical_order():
    dense = "1,1/2,-1/3,2/3,-1,1/5,3/4,-2/7"
    f = TruncatedSeries.from_coeffs([Fraction(c) for c in dense.split(",")], 11)
    for g in (tangent_g(f, 12), taut_g(f, 12)):
        for only in (None, 0, 7, 12):
            for degree in (None, 0, 4, 11):
                assert_canonical(walk(g, 12, only, degree))
    p = integer_pairs_g()
    for only in (None, 4):
        for degree in (None, 2):
            assert_canonical(walk(p, 6, only, degree))
    for n in range(1, 7):
        for nu in enumerate_partitions(n):
            for nu2 in enumerate_partitions(n):
                assert_canonical(cup_basis(nu, nu2))
    for nu, nu2 in (((2, 1, 1), (3, 1)), ((2, 2, 1), (2, 1, 1, 1)), ((1, 1, 1), (2, 1))):
        assert_canonical(cup_character(nu, nu2))
    a = hilbert_class(builtin_f("sqrt-todd", 5), TANGENT, 6, 6)
    b = hilbert_class(f, TANGENT, 6, 6)
    assert len(a) > 1 and len(b) > 1
    assert_canonical(cup(a, b, 6))
    for n in range(5):
        assert_canonical(hilb_unit(n))


def test_sum_restores_canonical_order():
    odd = {(1,): Fraction(1), (3,): Fraction(2), (5,): Fraction(3)}
    even = {(): Fraction(1), (2,): Fraction(-1), (2, 2): Fraction(1, 2), (3, 1): Fraction(1, 4)}
    for total in (fock_add(odd, even, 5), fock_add(even, odd, 5)):
        assert list(total) == [(), (1,), (2,), (3,), (3, 1), (2, 2), (5,)]
        assert_canonical(total)
    cancelled = fock_add(odd, {(3,): Fraction(-2), (1, 1): Fraction(1)}, 5)
    assert list(cancelled) == [(1,), (1, 1), (5,)]


def test_records_of_a_canonical_element(capsys):
    """`_record` and `_emit` write the bytes json.dumps(indent=2, sort_keys=True)
    writes: for the `class` walk's text keys, from the empty partition to the
    table's top part, and for no terms; and `cup` requests at the largest rank,
    one with a part of that rank, print their products as json.dumps would."""
    g = TruncatedSeries.from_coeffs([0, 1] + [0] * 38 + [Fraction(-3, 7)], MAX_WEIGHT)
    nums, dens = [c.numerator for c in g.coeffs], [c.denominator for c in g.coeffs]
    records = _exp_walk(nums, dens, MAX_WEIGHT, None, None, _record, PART_TEXT)
    plain = walk(g, MAX_WEIGHT)
    assert len(PART_TEXT) == MAX_WEIGHT + 1 > MAX_RANK
    assert () in plain and (MAX_WEIGHT,) in plain
    request = {"subcommand": "class"}
    for terms, expected in ((records, plain), ([], {})):
        _emit(request, terms, None)
        doc = {"request": request, "engine": f"hilbclass {hilbclass.__version__}",
               "payload": [{"coeff": str(c), "partition": list(p)} for p, c in expected.items()]}
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    t = (2,) + (1,) * (MAX_RANK - 2)  # a transposition: times q_(MAX_RANK-1,1), q_(MAX_RANK)
    for nu, nu2, keys in ((t, (MAX_RANK - 1, 1), [(MAX_RANK,)]),
                          (t, t, [(3,) + (1,) * (MAX_RANK - 3), (2, 2) + (1,) * (MAX_RANK - 4)])):
        product = cup_basis(nu, nu2)
        assert list(product) == keys
        doc = {"request": {"subcommand": "cup", "a": list(nu), "b": list(nu2)},
               "payload": [{"coeff": str(c), "partition": list(p)} for p, c in product.items()],
               "engine": f"hilbclass {hilbclass.__version__}"}
        assert main(["cup", json.dumps(nu), json.dumps(nu2)]) == 0
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_hilb_unit():
    assert hilb_unit(3) == {(1, 1, 1): Fraction(1, 6)}
    assert hilb_unit(0) == {(): Fraction(1)}
