"""Each `hilbclass verify` suite reports a failure: with one name that
`hilbclass.verify` imports replaced by a wrong one, the checks that read it
fail, each detail opens with its words and shows at most as many failures
as the check prints, and the suite's other checks still pass.  The golden
digests pin only the passing output.  The ring suite's associativity check
on integer tables is held to the loop over `Fraction` terms it replaced."""

from fractions import Fraction
from math import factorial, prod

import pytest

from hilbclass import hilbert, verify
from hilbclass.hilbert import oracle_top_tangent, tangent_g
from hilbclass.partitions import multiplicities
from reference import reference_assoc_violations

QUOTED_SQRT_TODD = ("sqrt-Todd exponent series to order 21, "
                    "hyperbolic-sine-integral closed form")

# suite: (name replaced, its replacement, {failing check: (words, entries shown at most)})
BROKEN = {
    "appendix": ("lemma_b1", lambda m, p: Fraction(0), {
        "alternating-factorial sum grid m <= 25": ("mismatches at", 3),
    }),
    "examples": ("taut_g", tangent_g, {
        QUOTED_SQRT_TODD: ("got", 8),  # the erratum, which fails unbroken too
        "tautological Chern (Lehn) series to order 20": ("got", 8),
        "tautological power series (1+x)^r, r in {1,2,3}": ("mismatches", 3),
    }),
    "oracle": ("oracle_top_taut", oracle_top_tangent, {
        "tautological fixed-point sum equals Lagrange route, 10 random f, n <= 10":
            ("mismatches", 2),
    }),
    "ring": ("cup_basis", lambda nu, nu2: {nu: Fraction(1)}, {
        "anchored basis cup products": ("mismatches", 3),
        "cup associativity on all basis triples, n <= 5": ("violations", 3),
    }),
    "crossoracle": ("cup_character", lambda nu, nu2: {nu: Fraction(1)}, {
        "class-sum calibration on ranks 2 and 3": ("mismatches", 1),
        "class-sum oracle agreement for all pairs, ranks 4..7": ("mismatches", 1),
    }),
}


def shown_entries(detail: str, words: str) -> list:
    """The failures a detail lists after its words; the quoted sqrt-Todd
    check gives its reason after them, past a '; '."""
    assert detail.startswith(words + " ["), detail
    listed = detail[len(words) + 1:].split("; ", 1)[0]
    # the suite's own repr of its failures: tuples, dicts, strings and Fractions
    return eval(listed, {"__builtins__": {}, "Fraction": Fraction})


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite_reports_a_broken_route(suite, monkeypatch):
    name, wrong, failing = BROKEN[suite]
    monkeypatch.setattr(verify, name, wrong)
    checks = verify.SUITES[suite]()
    assert {c.name for c in checks} >= set(failing)
    for check in checks:
        if check.name in failing:
            words, shown = failing[check.name]
            assert not check.passed, check.name
            assert 0 < len(shown_entries(check.detail, words)) <= shown, check.detail
        else:
            assert check.passed and not check.detail, check


ASSOCIATIVITY = "cup associativity on all basis triples, n <= 5"

# wrong pair products: (nu, nu2, the right terms) -> the terms given instead
PRODUCT_ERRORS = {
    "scale dropped": lambda nu, nu2, terms: {
        lam: v / (prod(nu) * prod(nu2)) for lam, v in terms.items()},
    "extra factorial": lambda nu, nu2, terms: {
        lam: v * prod(map(factorial, multiplicities(lam).values())) for lam, v in terms.items()},
    "asymmetric": lambda nu, nu2, terms: (
        {lam: 2 * v for lam, v in terms.items()} if nu2 < nu else terms),
}


@pytest.mark.parametrize("error", list(PRODUCT_ERRORS))
def test_ring_associativity_reports_what_the_fraction_loop_did(error, monkeypatch):
    """With the product cache giving wrong products, in `verify` and in
    `hilbert` (so `cup_basis` and `cup` read them too), the associativity
    check on integer tables reports what the loop over `Fraction` terms in
    `reference` reports."""
    right = hilbert._cup_basis_cached

    def wrong(nu, nu2):
        return PRODUCT_ERRORS[error](nu, nu2, right(nu, nu2))

    for module in (verify, hilbert):
        monkeypatch.setattr(module, "_cup_basis_cached", wrong)
    expected = verify._check(ASSOCIATIVITY, reference_assoc_violations(), "violations", 3)
    assert expected.passed == (error == "asymmetric")
    assert [c for c in verify.suite_ring() if c.name == ASSOCIATIVITY] == [expected]


def test_ring_makes_no_per_triple_cup_calls(monkeypatch):
    """`suite_ring` calls `cup` only for the unit clause (one call per basis
    element of ranks 1 to 5, 18) and the Lehn powers (two per rank 1 to 6,
    12); associativity reads its integer tables."""
    calls = []

    def counted(a, b, n):
        calls.append(n)
        return hilbert.cup(a, b, n)

    monkeypatch.setattr(verify, "cup", counted)
    assert all(c.passed for c in verify.suite_ring())
    assert len(calls) == 30


def test_ring_rejects_a_product_outside_the_weight(monkeypatch):
    """A `cup_basis` term outside weight n stops the suite with the error
    `cup` gives for such an element, not a lookup error in its tables."""
    monkeypatch.setattr(verify, "cup_basis", lambda nu, nu2: {nu + (1,): Fraction(1)})
    with pytest.raises(ValueError, match="^element has support outside weight 1$"):
        verify.suite_ring()
