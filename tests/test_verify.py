"""Each `hilbclass verify` suite reports a failure: with one name that
`hilbclass.verify` imports replaced by a wrong one, the checks that read it
fail, each detail opens with its words and shows at most as many failures
as the check prints, and the suite's other checks still pass.  The golden
digests pin only the passing output."""

from fractions import Fraction

import pytest

from hilbclass import verify
from hilbclass.hilbert import oracle_top_tangent, tangent_g

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
