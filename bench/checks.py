"""Output checks: the recorded digest of every pool request, plus closed forms
that hold independently of the engine.

A request passes when its exit status and the SHA-256 of its stdout match
`golden.json`, and when every independent check that applies to it holds:

* `gseries` of (1+x)^r, i.e. chern (r = 1), segre (r = -1) and cprime-pow,
  against the Lagrange coefficient of (1 -+ x)^(r n), for both targets; for
  r = 1 and r = -1 this is the Chern, Lehn and Segre closed forms;
* `gseries` of sqrt-todd on the tangent sheaf against the
  inversion-consistent form (-1)^n C(2n,n) / (16^n (2n+1)^2), not the
  quoted erratum form;
* `class` outputs: every partition lies in the requested weight or degree,
  and the coefficient of each single-part monomial q_(k) equals g_k whenever
  g has a closed form above;
* `cup` outputs: every partition has the rank of the inputs and the sum of
  their degrees;
* `verify`: exit 0 with every check passed, except the `examples` suite,
  which must exit 1 with exactly the criterion-3 check failing.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import comb

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# The one check of `verify examples` that is meant to fail: the quoted
# sqrt-Todd closed form is a source erratum (acceptance criterion 3).
CRITERION_3 = ("sqrt-Todd exponent series to order 21, hyperbolic-sine-integral "
               "closed form")

BUILTIN_R = {"chern": Fraction(1), "segre": Fraction(-1)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def binom(a: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient a (a-1) ... (a-k+1) / k!."""
    out = Fraction(1)
    for i in range(k):
        out = out * (a - i) / (i + 1)
    return out


def power_g(r: Fraction, target: str, n: int) -> Fraction:
    """g_n for f = (1+x)^r.  The defining equation gives
    g_n = [x^(n-1)] F^n / n^2 with F = (1-x^2)^r (tangent) or (1-x)^r
    (tautological), and F^n is again a binomial power."""
    if target == "tautological":
        return (-1) ** (n - 1) * binom(r * n, n - 1) / (n * n)
    if n % 2 == 0:
        return Fraction(0)
    m = (n - 1) // 2
    return (-1) ** m * binom(r * n, m) / (n * n)


def sqrt_todd_tangent_g(n: int) -> Fraction:
    if n % 2 == 0:
        return Fraction(0)
    m = (n - 1) // 2
    return Fraction((-1) ** m * comb(2 * m, m), 16**m * n * n)


def _option(argv, name):
    """Value of --name given as "--name value" or "--name=value"."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def closed_form(argv):
    """The function n -> g_n when the request's class has a closed form on its
    target, else None."""
    kind, target = argv[1], argv[2]
    if kind in BUILTIN_R:
        r = BUILTIN_R[kind]
    elif kind == "cprime-pow":
        r = Fraction(_option(argv, "--r"))
    elif kind == "sqrt-todd" and target == "tangent":
        return sqrt_todd_tangent_g
    else:
        return None
    return lambda n: power_g(r, target, n)


def _check_gseries(argv, doc) -> str | None:
    g = closed_form(argv)
    if g is None:
        return None
    for n, text in enumerate(doc["payload"], start=1):
        if Fraction(text) != g(n):
            return f"g_{n} = {text}, closed form gives {g(n)}"
    return None


def _check_class(argv, doc) -> str | None:
    weight_only = _option(argv, "--weight-only")
    degree = _option(argv, "--degree")
    g = closed_form(argv)
    for rec in doc["payload"]:
        parts = rec["partition"]
        if weight_only is not None and sum(parts) != int(weight_only):
            return f"partition {parts} outside weight {weight_only}"
        if degree is not None and sum(parts) - len(parts) != int(degree):
            return f"partition {parts} outside degree {degree}"
        if g is not None and len(parts) == 1 and Fraction(rec["coeff"]) != g(parts[0]):
            return f"q_{parts} coefficient {rec['coeff']}, closed form gives {g(parts[0])}"
    return None


def _check_cup(argv, doc) -> str | None:
    a, b = json.loads(argv[1]), json.loads(argv[2])
    n = sum(a)
    deg = (n - len(a)) + (n - len(b))
    for rec in doc["payload"]:
        parts = rec["partition"]
        if sum(parts) != n or sum(parts) - len(parts) != deg:
            return f"partition {parts} is not of rank {n} and degree {deg}"
    return None


def _check_verify(argv, doc, rc) -> str | None:
    failing = [c["check"] for c in doc["payload"] if not c["passed"]]
    expected = [CRITERION_3] if argv[1] == "examples" else []
    if failing != expected:
        return f"failing checks {failing}, expected {expected}"
    if rc != (1 if expected else 0):
        return f"exit status {rc}, expected {1 if expected else 0}"
    return None


def independent_check(argv, rc, out) -> str | None:
    """Problem found by the closed-form and structural checks, or None."""
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if argv[0] == "gseries":
        return _check_gseries(argv, doc)
    if argv[0] == "class":
        return _check_class(argv, doc)
    if argv[0] == "cup":
        return _check_cup(argv, doc)
    if argv[0] == "verify":
        return _check_verify(argv, doc, rc)
    return f"no checks for subcommand {argv[0]!r}"


def check(golden: dict, key: str, argv, rc, out) -> str | None:
    """Why the request's result is wrong, or None when it is right."""
    expected = golden.get(key)
    if expected is None:
        return "request has no recorded output"
    if rc != expected["exit"]:
        return f"exit status {rc}, recorded {expected['exit']}"
    if digest(out) != expected["sha256"]:
        return "stdout differs from the recorded output"
    return independent_check(argv, rc, out)
