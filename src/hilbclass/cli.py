"""Command-line surface: exponent series tables, class expansions in the
creation-operator basis, cup products, and the verification suites.

Every invocation emits one deterministic JSON document on stdout (or to --out),
the bytes of json.dumps(indent=2, sort_keys=True) written by hand.  Each term of
a `class` or `cup` result is written once, as its whole record, by `_record`:
the `class` walk calls it on each term as it reaches it.  A request is
parsed by its subcommand's parser alone; anything else, and every bad argument,
is reported as the full parser reports it.  Exit status is nonzero exactly when
input is invalid or a verification check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import gcd

from . import __version__
from .hilbert import (
    TANGENT, TAUTOLOGICAL, builtin_f, cup_basis, exponent_g, hilbert_class,
)
from .partitions import check_partition, weight
from .series import TruncatedSeries
from .verify import SUITES, run_suite

DEFAULT_ORDER = 12

MAX_WEIGHT = 40  # a dense class: 0.6-1.0 s and 82 MB, doubling every 4 weights (README)
MAX_RANK = 28  # the slowest cold cup pair measured: 0.14 s and 18 MB (README)
MAX_ORDER = 241  # the slowest gseries takes 3.4-3.6 s at this order, 3x that at 321 (README)

CLASS_NAMES = ("chern", "segre", "sqrt-todd", "cprime-pow", "custom")

# Each part's JSON text after its separator, for every part a `class` weight or a
# `cup` rank can hold: the `class` walk grows each key from it one part per step,
# and `cmd_cup` joins it for a product's partitions; `_record` writes the key
PART_TEXT = ["", *(",\n        " + str(k) for k in range(1, max(MAX_WEIGHT, MAX_RANK) + 1))]


def _echo(text: str, show=repr) -> str:
    """show(text), or past 200 characters show(its first 100) and its length."""
    return show(text) if len(text) <= 200 else f"{show(text[:100])}... ({len(text)} characters)"


def _parse_partition(field: str, text: str) -> tuple[int, ...]:
    message = f"{field} must be a JSON array of integers: {_echo(text)}"
    try:
        parts = json.loads(text)
    except (RecursionError, ValueError) as exc:  # too deep, malformed, or a part too long to print
        raise ValueError(message) from exc
    if not isinstance(parts, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in parts
    ):
        raise ValueError(message)
    try:
        return check_partition(parts)
    except ValueError as exc:
        raise ValueError(f"{field}: {_echo(str(exc), str)}") from None


def _parse_rational(field: str, text: str, index: int | None = None) -> Fraction:
    where = f"--{field}" if index is None else f"--{field} entry {index}"
    limit = sys.get_int_max_str_digits()  # digits str() prints of one int; 0 for no limit
    # Fraction builds 10**|e| first; past 3 * limit, no nonzero digits it reads (at most
    # limit each side of the point) leave both parts printable
    e = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", text, re.I)
    if limit and e and (len(e[1]) > limit or abs(int(e[1])) > 3 * limit):
        raise ValueError(f"{where} has an exponent beyond +-{3 * limit}: {_echo(text)}")
    too_long = f"{where} has a numerator or denominator over {limit} digits: {_echo(text)}"
    # Fraction reads each digit run with int(), which refuses a run past the limit
    if limit and any(len(run) - run.count("_") > limit
                     for run in re.findall(r"\d+(?:_\d+)*", text)):
        raise ValueError(too_long)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{where} is not a rational p/q with q != 0: {_echo(text)}") from None
    top = max(abs(value.numerator), value.denominator)
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:  # 8**limit < 10**limit
        raise ValueError(too_long)
    return value


def _check_range(flag: str, value: int | None, top: int | None = None) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    if top is not None and value > top:
        raise ValueError(f"{flag} must be at most {top}, got {value}")


def _defining_series(args, min_order: int) -> TruncatedSeries:
    for flag, value, owner in (("--r", args.r, "cprime-pow"), ("--f", args.f, "custom")):
        if value is not None and args.class_name != owner:
            raise ValueError(f"{flag} applies only to class '{owner}', not '{args.class_name}'")
    if args.class_name == "custom":
        if args.f is None:
            raise ValueError("class 'custom' requires --f c0,c1,...")
        coeffs = [_parse_rational("f", c, i) for i, c in enumerate(args.f.split(","))]
        if not coeffs or coeffs[0] != 1:
            raise ValueError("custom series must have leading coefficient 1")
        # coefficients past min_order cannot reach the output; every entry is still parsed
        return TruncatedSeries.from_coeffs(coeffs[: min_order + 1], min_order)
    if args.class_name == "cprime-pow" and args.r is None:
        raise ValueError("class 'cprime-pow' requires --r p/q")
    r = _parse_rational("r", args.r) if args.r is not None else None
    return builtin_f(args.class_name, min_order, r)


class _UnprintableCoefficient(ValueError):
    """A coefficient's numerator or denominator is past the interpreter's digit limit."""


def _record(key: str, c: int, d: int) -> str:
    """The `{"coeff", "partition"}` record of a term, after its separator, as json.dumps(
    indent=2, sort_keys=True) writes it one level deep: the coefficient str(Fraction(c, d))
    for ints c and d > 0, reduced by one gcd, and the partition whose `PART_TEXT` pieces
    make `key`.  The `make` of the `class` command's walk, so a term is written once."""
    g = gcd(c, d)
    try:
        coeff = str(c // g) if d == g else f"{c // g}/{d // g}"
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise _UnprintableCoefficient from None
    if not key:  # the empty partition
        return f',\n    {{\n      "coeff": "{coeff}",\n      "partition": []\n    }}'
    return f',\n    {{\n      "coeff": "{coeff}",\n      "partition": [{key[1:]}\n      ]\n    }}'


def _unprintable(request: dict) -> ValueError:
    """The error for a result coefficient too long to print, naming the flags that size it."""
    flags = [f"--{k}" for k in ("order", "weight", "r", "f") if request.get(k)]
    return ValueError(f"a result coefficient has more than {sys.get_int_max_str_digits()} "
                      f"digits, too many to print; check {' and '.join(flags)}")


def _value(v) -> str:
    """A str, int, None or list of ints as json.dumps(indent=2) writes it two levels deep."""
    if isinstance(v, list):
        return "[\n      " + ",\n      ".join(map(str, v)) + "\n    ]" if v else "[]"
    if isinstance(v, str):
        return json.encoder.encode_basestring_ascii(v)  # the stdlib's C escaper
    return "null" if v is None else str(v)


def _emit(request: dict, payload, out_path: str | None) -> None:
    """{"engine", "payload", "request"} as json.dumps(indent=2, sort_keys=True, default=str)
    writes it, and a newline, in pieces: `_record` texts as they are, check dicts re-indented."""
    try:
        if payload and isinstance(payload[0], str):  # the first separator opens the list
            body = ["[", payload[0][1:], *payload[1:], "\n  ]"]
        elif payload and isinstance(payload[0], dict):
            body = [json.dumps(payload, indent=2, sort_keys=True).replace("\n", "\n  ")]
        else:
            body = ['[\n    "' + '",\n    "'.join(map(str, payload)) + '"\n  ]'
                    if payload else "[]"]
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise _unprintable(request) from None
    fields = ",\n    ".join([f'"{k}": {_value(v)}' for k, v in sorted(request.items())])
    pieces = ['{\n  "engine": "hilbclass ', __version__, '",\n  "payload": ', *body,
              ',\n  "request": {\n    ', fields, "\n  }\n}\n"]
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:  # exit 2, as for bad input, not 1, a failed check
            raise ValueError(f"--out {_echo(out_path)}: {exc.strerror or exc}") from None
    else:
        sys.stdout.writelines(pieces)


def cmd_gseries(args) -> int:
    order = args.order
    _check_range("--order", order, MAX_ORDER)
    f = _defining_series(args, max(order - 1, 0))
    g = exponent_g(f, args.target, order)
    request = {
        "subcommand": "gseries", "class": args.class_name, "target": args.target,
        "order": order, "r": args.r, "f": args.f,
    }
    _emit(request, g.coeffs[1:], args.out)  # prints each as its str()
    return 0


def cmd_class(args) -> int:
    bound = args.weight
    _check_range("--weight", bound, MAX_WEIGHT)
    _check_range("--degree", args.degree)
    if args.weight_only is not None and not 0 <= args.weight_only <= bound:
        raise ValueError(
            f"--weight-only must lie in 0..{bound} (0..--weight), got {args.weight_only}"
        )
    f = _defining_series(args, max(bound - 1, 0))
    request = {
        "subcommand": "class", "class": args.class_name, "target": args.target,
        "weight": bound, "degree": args.degree, "r": args.r, "f": args.f,
    }
    try:
        records = hilbert_class(f, args.target, bound, args.weight_only, args.degree,
                                _record, PART_TEXT)
    except _UnprintableCoefficient:
        raise _unprintable(request) from None
    _emit(request, records, args.out)
    return 0


def cmd_cup(args) -> int:
    nu = _parse_partition("partition_a", args.partition_a)
    n = weight(nu)
    if not n:
        raise ValueError(f"partition_a must have rank at least 1, got rank 0: "
                         f"{_echo(args.partition_a, str)}")
    if n > MAX_RANK:
        raise ValueError(f"partition_a must have rank at most {MAX_RANK}, "
                         f"got rank {n}: {_echo(args.partition_a, str)}")
    nu2 = _parse_partition("partition_b", args.partition_b)
    if weight(nu2) != n:
        raise ValueError(f"partition_b must have the rank of partition_a, {n}, "
                         f"got rank {weight(nu2)}: {_echo(args.partition_b, str)}")
    records = [_record("".join([PART_TEXT[k] for k in lam]), c.numerator, c.denominator)
               for lam, c in cup_basis(nu, nu2).items()]
    request = {"subcommand": "cup", "a": list(nu), "b": list(nu2)}
    _emit(request, records, args.out)
    return 0


def cmd_verify(args) -> int:
    checks = run_suite(args.suite)
    payload = [{"check": c.name, "passed": c.passed, **({"detail": c.detail} if c.detail else {})}
               for c in checks]
    request = {"subcommand": "verify", "suite": args.suite}
    _emit(request, payload, args.out)
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="hilbclass",
        description="Multiplicative classes and cup products on Hilbert "
                    "schemes of points on the affine plane, exactly.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_class_args(p):
        p.add_argument("class_name", choices=CLASS_NAMES, metavar="class",
                       help="one of " + ", ".join(CLASS_NAMES))
        p.add_argument("target", choices=(TANGENT, TAUTOLOGICAL))
        p.add_argument("--r", help="exponent p/q for cprime-pow")
        p.add_argument("--f", help="comma-separated coefficients for custom")

    p = sub.add_parser("gseries", help="exponent series g_1..g_N of a class")
    add_class_args(p)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gseries)

    p = sub.add_parser("class", help="class expansion in the creation basis")
    add_class_args(p)
    p.add_argument("--weight", type=int, default=DEFAULT_ORDER,
                   help="weight truncation bound N")
    p.add_argument("--weight-only", type=int, default=None, dest="weight_only",
                   help="restrict the output to one weight")
    p.add_argument("--degree", type=int, default=None,
                   help="restrict the output to one algebraic degree")
    p.add_argument("--out")
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("cup", help="cup product of two basis monomials")
    p.add_argument("partition_a", help="JSON array, e.g. [2,1]")
    p.add_argument("partition_b", help="JSON array, e.g. [2,1]")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return parser, sub.choices


# built once, as a build took over half of a cold cup request; `main` parses a request
_PARSER, _COMMANDS = build_parser()  # with its subcommand's parser alone, at half the cost


def _join_negative_r(argv: list[str]) -> list[str]:
    """`--r -3/2` as `--r=-3/2`: argparse reads a value that starts with '-'
    as a flag unless it is a negative decimal number."""
    out = []
    for arg in argv:
        if out and out[-1] == "--r" and re.match(r"-[\d./]", arg):
            out[-1] = "--r=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_negative_r(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _COMMANDS:
        args, extra = _COMMANDS[argv[0]].parse_known_args(argv[1:])
        if extra:  # under the top-level usage, as `_PARSER.parse_args` reports them
            _PARSER.error("unrecognized arguments: " + " ".join(extra))
        args.subcommand = argv[0]
    else:  # no subcommand, -h or a typo: the top-level parser reports it
        args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
