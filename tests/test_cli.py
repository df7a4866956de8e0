"""Tests for the command-line surface: JSON schemas, determinism, filters
and exit codes."""

import importlib.util
import json
import shlex
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbclass import __version__, cli
from hilbclass.cli import (
    PART_TEXT, _emit, _parse_rational, _record, _UnprintableCoefficient, main,
)
from hilbclass.fock import _exp_walk
from hilbclass.hilbert import (
    TANGENT, TAUTOLOGICAL, builtin_f, cup_basis, exponent_g, hilbert_class,
)
from hilbclass.series import TruncatedSeries
from hilbclass.verify import SUITES
from reference import record_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_readme_cli_examples_run(capsys):
    """Each command of the README's CLI block runs, and exits 0 but for
    `verify all`, which exits 1 on the quoted sqrt-Todd erratum."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 7 and all(argv[0] == "hilbclass" for argv in commands)
    codes = {" ".join(argv[1:]): main(argv[1:]) for argv in commands}
    capsys.readouterr()
    assert codes == {command: int(command == "verify all") for command in codes}


def test_gseries_chern(capsys):
    code, doc = run_json(capsys, "gseries", "chern", "tangent", "--order", "5")
    assert code == 0
    assert doc["payload"] == ["1", "0", "-1/3", "0", "2/5"]
    assert doc["request"]["subcommand"] == "gseries"


def test_gseries_default_order(capsys):
    code, doc = run_json(capsys, "gseries", "segre", "tangent")
    assert code == 0
    assert len(doc["payload"]) == 12
    assert doc["payload"][:3] == ["1", "0", "1/3"]


def test_gseries_cprime_pow(capsys):
    code, doc = run_json(
        capsys, "gseries", "cprime-pow", "tautological", "--r", "2",
        "--order", "4",
    )
    assert code == 0
    # (-1)^(n-1) C(2n, n-1) / n^2
    assert doc["payload"] == ["1", "-1", "5/3", "-7/2"]


def test_gseries_cprime_pow_negative_r(capsys):
    r, order = Fraction(-3, 2), 6
    code, doc = run_json(
        capsys, "gseries", "cprime-pow", "tautological", "--r", str(r),
        "--order", str(order),
    )
    assert code == 0
    assert run_json(capsys, "gseries", "cprime-pow", "tautological", f"--r={r}",
                    "--order", str(order)) == (code, doc)

    def binom(a, k):
        out = Fraction(1)
        for i in range(k):
            out = out * (a - i) / (i + 1)
        return out

    # f = (1+x)^r on the tautological target: g_n = [x^(n-1)] (1-x)^(rn) / n^2
    expected = [(-1) ** (n - 1) * binom(r * n, n - 1) / (n * n)
                for n in range(1, order + 1)]
    assert doc["payload"] == [str(c) for c in expected]


def test_gseries_custom(capsys):
    code, doc = run_json(
        capsys, "gseries", "custom", "tangent", "--f", "1,1", "--order", "5",
    )
    assert code == 0
    assert doc["payload"] == ["1", "0", "-1/3", "0", "2/5"]


LONG_F = ",".join(["1"] + [f"{(-1) ** k * (k % 7 + 1)}/{k % 5 + 1}" for k in range(1, 3000)])


@pytest.mark.parametrize("argv,kept", [
    (("gseries", "custom", "tangent", "--order", "9"), 9),
    (("gseries", "custom", "tautological", "--order", "9"), 9),
    (("class", "custom", "tangent", "--weight", "6"), 6),
], ids=["gseries-tangent", "gseries-tautological", "class"])
def test_long_custom_f_equals_its_truncation(capsys, argv, kept):
    # only coefficients 0..order-1 (0..weight-1) of --f reach the output
    short_f = ",".join(LONG_F.split(",")[:kept])
    _, long_out = run_cli(capsys, *argv, "--f", LONG_F)
    _, short_out = run_cli(capsys, *argv, "--f", short_f)
    assert long_out.count(LONG_F) == 1
    assert long_out.replace(LONG_F, short_f) == short_out


def test_class_lehn_weight_two(capsys):
    code, doc = run_json(
        capsys, "class", "chern", "tautological", "--weight", "2",
    )
    assert code == 0
    assert doc["payload"] == [
        {"partition": [], "coeff": "1"},
        {"partition": [1], "coeff": "1"},
        {"partition": [2], "coeff": "-1/2"},
        {"partition": [1, 1], "coeff": "1/2"},
    ]


def test_class_filters(capsys):
    code, doc = run_json(
        capsys, "class", "chern", "tangent", "--weight", "3",
        "--weight-only", "3", "--degree", "2",
    )
    assert code == 0
    assert doc["payload"] == [{"partition": [3], "coeff": "-1/3"}]


def test_cup(capsys):
    code, doc = run_json(capsys, "cup", "[2,1]", "[2,1]")
    assert code == 0
    assert doc["payload"] == [{"partition": [3], "coeff": "4"}]


def test_cup_zero(capsys):
    code, doc = run_json(capsys, "cup", "[2]", "[2]")
    assert code == 0
    assert doc["payload"] == []


def test_verify_suite(capsys):
    code, doc = run_json(capsys, "verify", "appendix")
    assert code == 0
    assert all(c["passed"] for c in doc["payload"])


def test_determinism(capsys):
    _, first = run_cli(capsys, "class", "segre", "tangent", "--weight", "5")
    _, second = run_cli(capsys, "class", "segre", "tangent", "--weight", "5")
    assert first == second


def test_out_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out = run_cli(
        capsys, "gseries", "chern", "tangent", "--order", "3",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["payload"] == ["1", "0", "-1/3"]


@pytest.mark.parametrize("argv", [
    ("gseries", "sqrt-todd", "tangent", "--order", "9"),
    ("class", "sqrt-todd", "tautological", "--weight", "6"),
    ("cup", "[3,2,1]", "[2,2,1,1]"),
    ("verify", "appendix"),
], ids=["gseries", "class", "cup", "verify"])
def test_out_file_bytes_equal_stdout(tmp_path, capsys, argv):
    path = tmp_path / "result.json"
    _, out = run_cli(capsys, *argv)
    code, printed = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [
    ("cup", "[2,1]", "[2,1]"),
    ("verify", "examples"),
], ids=["cup", "verify"])
@pytest.mark.parametrize("where,reason", [
    ("missing/x.json", "No such file or directory"),
    ("", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_unwritable_out_exits_2_naming_the_flag(capsys, tmp_path, argv, where, reason):
    """Not 1, which `verify` reserves for a failed check, and not a traceback."""
    path = str(tmp_path / where)
    assert main([*argv, "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {path!r}: {reason}\n"


def test_error_exit_codes(capsys):
    assert main(["cup", "[2,1]", "not json"]) == 2
    assert main(["cup", "[1,2]", "[2,1]"]) == 2
    assert main(["cup", "[2]", "[1,1,1]"]) == 2
    assert main(["gseries", "custom", "tangent"]) == 2
    assert main(["gseries", "custom", "tangent", "--f", "2,1"]) == 2
    assert main(["gseries", "cprime-pow", "tangent"]) == 2
    capsys.readouterr()


def outcome(capsys, argv):
    """Exit status, stdout and stderr of `main(argv)`, an argparse exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_arguments_rejected(capsys, monkeypatch):
    """A bad value is reported under its subcommand's usage, and leftover
    arguments under the top-level usage."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal's width
    for argv, err in [
        (["gseries", "euler", "tangent"],
         "usage: hilbclass gseries [-h] [--r R] [--f F] [--order ORDER] [--out OUT]\n"
         "                         class {tangent,tautological}\n"
         "hilbclass gseries: error: argument class: invalid choice: 'euler' "
         "(choose from 'chern', 'segre', 'sqrt-todd', 'cprime-pow', 'custom')\n"),
        (["verify", "everything"],
         "usage: hilbclass verify [-h] [--out OUT]\n"
         "                        {appendix,examples,oracle,ring,crossoracle,all}\n"
         "hilbclass verify: error: argument suite: invalid choice: 'everything' "
         "(choose from 'appendix', 'examples', 'oracle', 'ring', 'crossoracle', 'all')\n"),
        (["cup", "[1]", "[1]", "extra", "--bogus"],
         "usage: hilbclass [-h] {gseries,class,cup,verify} ...\n"
         "hilbclass: error: unrecognized arguments: extra --bogus\n"),
    ]:
        assert outcome(capsys, argv) == (2, "", err)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["cup", "-h"], ["frobnicate"],
    ["cup", "[1]"], ["cup", "[1]", "[1]", "extra"], ["cup", "[1]", "[1]", "--bogus"],
    ["verify", "everything"],
    ["gseries", "chern", "tangent", "--ord", "5"],
    ["gseries", "cprime-pow", "tangent", "--r", "-3/2"],
    ["class", "chern", "tangent", "--weight", "x"],
], ids=repr)
def test_subcommand_dispatch_matches_the_full_parser(capsys, monkeypatch, argv):
    """`main` hands a request to its subcommand's parser alone; with no
    subcommand known it goes through `_PARSER.parse_args`.  Both routes give
    the same stdout, stderr and exit status."""
    dispatched = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_COMMANDS", {})
    assert outcome(capsys, argv) == dispatched


def test_verify_accepts_exactly_the_suites():
    """`verify` takes each name of `verify.SUITES`, in its order, and `all`."""
    verify = cli._COMMANDS["verify"]
    suite = next(a for a in verify._actions if a.dest == "suite")
    assert suite.choices == (*SUITES, "all")
    assert set(SUITES) == {"appendix", "oracle", "examples", "ring", "crossoracle"}
    for name in suite.choices:
        assert verify.parse_args([name]).suite == name
        assert cli._PARSER.parse_args(["verify", name]).suite == name


def envelope(request, payload):
    """The document `_emit` writes, as the stdlib's encoder writes it."""
    doc = {"request": request, "payload": payload, "engine": f"hilbclass {__version__}"}
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


@pytest.mark.parametrize("argv", [
    ("gseries", "custom", "tangent", "--f", "1,\u0661/\u0662", "--order", "4"),
    ("gseries", "cprime-pow", "tautological", "--r=\u0661/\u0662", "--order", "0"),
    ("class", "chern", "tangent", "--weight", "4", "--degree", "2"),
    ("cup", "[3,2,1]", "[2,2,1,1]"),
    ("verify", "examples"),
], ids=["gseries", "gseries-empty", "class", "cup", "verify"])
def test_envelope_is_what_json_dumps_writes(capsys, argv):
    """Each command's output is the stdlib's indented, key-sorted text of the
    document it holds; non-ASCII digits are echoed escaped."""
    _, out, err = outcome(capsys, argv)
    doc = json.loads(out)
    assert err == "" and out == envelope(doc["request"], doc["payload"])
    assert out.isascii()


@pytest.mark.parametrize("request_", [
    {"subcommand": "gseries", "class": "custom", "target": "tangent", "order": 0,
     "r": None, "f": "1,\u0661/\u0662"},
    {"subcommand": "cup", "a": [], "b": [3, 1, 1]},
    {"subcommand": "class", "class": "cprime-pow", "target": "tautological", "weight": 12,
     "degree": None, "r": 'a"b\\c\x00\x1f\n\t\x7f\u2028\xe9\U0001d7d8', "f": ""},
], ids=["null-and-digits", "empty-list", "escapes"])
@pytest.mark.parametrize("payload,expected", [
    ([_record("", 1, 1), _record(PART_TEXT[2] + PART_TEXT[1], -3, 6)],
     [{"coeff": "1", "partition": []}, {"coeff": "-1/2", "partition": [2, 1]}]),
    ([], []),
    ((Fraction(1), Fraction(-1, 3), Fraction(0)), ["1", "-1/3", "0"]),
    ((), []),
    ([{"check": "a", "passed": True}, {"check": "b\n\xe9", "passed": False, "detail": '"x"'}],
     None),
], ids=["terms", "no-terms", "series", "empty-series", "checks"])
def test_envelope_writer_escapes_as_json_dumps(capsys, request_, payload, expected):
    _emit(request_, payload, None)
    out = capsys.readouterr().out
    assert out == envelope(request_, payload if expected is None else expected)


# The `SPANS` names of bench/tracer.py that name code the library no longer
# has.  ROADMAP item 1 drops them from the tracer; no name may join them.
STALE_SPANS = {
    "exact.ParamPoly.__mul__", "exact.ParamPoly.__add__", "exact.ParamPoly.invert",
    "series.TruncatedSeries.inverse", "series.TruncatedSeries.compose",
    "series.TruncatedSeries.revert", "series.TruncatedSeries.exp", "series.TruncatedSeries.log",
    "series.TruncatedSeries.sqrt_unit", "fock.exp_linear", "fock.FockElement.__add__",
    "fock.FockElement.__sub__", "fock.FockElement.scale", "fock.FockElement.__mul__",
    "fock.FockElement.component", "fock.FockElement.degree_component",
    "fock.FockElement.to_records", "partitions.chi_mn", "partitions.hooks",
    "partitions.contents", "hilbert.cup_from_class_sums",
}


def test_tracer_names_resolve_in_the_cli():
    """Every `cli` function the benchmark's tracer wraps exists under its
    name, and every `SPANS` name the library lacks, written as the traced
    worker reports it under `missing_spans`, is one of `STALE_SPANS`: a
    traced function renamed or deleted fails here, not only in `bench/`."""
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [name for _, module, _, attrs in tracer.SPANS if module == "cli" for name in attrs]
    assert sorted(names) == ["_emit", "main"]
    assert all(callable(getattr(cli, name, None)) for name in names)

    def owner(module, class_name):
        try:
            found = importlib.import_module(f"hilbclass.{module}")
        except ModuleNotFoundError:
            return None
        return getattr(found, class_name, None) if class_name else found

    missing = set()
    for _, module, class_name, attrs in tracer.SPANS:
        found = owner(module, class_name)
        missing.update(f"{module}.{class_name + '.' if class_name else ''}{attr}"
                       for attr in attrs if found is None or attr not in vars(found))
    assert missing <= STALE_SPANS, sorted(missing - STALE_SPANS)


def test_partition_rejects_bools(capsys):
    assert main(["cup", "[true,1]", "[2]"]) == 2
    assert "partition_a" in capsys.readouterr().err
    assert main(["cup", "[2]", "[1,false]"]) == 2
    assert "partition_b" in capsys.readouterr().err
    assert main(["cup", "[2]", "[1,2]"]) == 2
    assert "partition_b" in capsys.readouterr().err


def test_rational_errors_name_the_field(capsys):
    assert main(["gseries", "custom", "tangent", "--f", "1,1/0"]) == 2
    assert "--f entry 1" in capsys.readouterr().err
    assert main(["gseries", "custom", "tangent", "--f", "1,0,x"]) == 2
    assert "--f entry 2" in capsys.readouterr().err
    assert main(["gseries", "cprime-pow", "tangent", "--r=-1/0"]) == 2
    err = capsys.readouterr().err
    assert "--r" in err and "'-1/0'" in err


LIMIT = sys.get_int_max_str_digits()  # digits str() prints of one int


@pytest.mark.parametrize("argv,named", [
    (["cup", "[" * 100_000, "[1]"], "partition_a must be a JSON array of integers"),
    (["cup", "[2]", "[1" + "0" * 5000 + "]"], "partition_b must be a JSON array of integers"),
    (["gseries", "cprime-pow", "tangent", "--r", "1e-10000000"], "--r has an exponent beyond"),
    (["gseries", "custom", "tangent", "--f", "1,1e-5000"],
     f"--f entry 1 has a numerator or denominator over {LIMIT} digits"),
    (["gseries", "cprime-pow", "tangent", "--r", f"1e-{LIMIT}"], "--r has a numerator or"),
    (["gseries", "cprime-pow", "tangent", "--r", f"0e-{3 * LIMIT + 1}"], "--r has an exponent"),
    (["gseries", "cprime-pow", "tangent", "--r", "1" * 100_000],
     f"--r has a numerator or denominator over {LIMIT} digits"),
    (["gseries", "cprime-pow", "tangent", "--r", "1/" + "3" * 5000],
     f"--r has a numerator or denominator over {LIMIT} digits"),
    (["cup", "[" + ",".join(["1"] * 3000) + "]", "[1]"],
     "partition_a must have rank at most 28, got rank 3000"),
    (["cup", "[2]", "[" + ",".join(map(str, range(1, 3001))) + "]"],
     "partition_b: partition parts must be weakly decreasing"),
], ids=["deep-partition", "long-part", "r-exponent", "f-exponent", "r-limit", "r-zero", "long-r",
        "long-r-denominator", "many-parts", "increasing-parts"])
def test_oversized_input_exits_2_naming_the_field(capsys, argv, named):
    """Each names its field, and a long input is echoed as a prefix and its length."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert len(captured.err.encode()) < 1024
    assert ("characters)" in captured.err) == (max(map(len, argv)) > 200)


@pytest.mark.parametrize("argv,named", [
    (["gseries", "cprime-pow", "tangent", "--order", "12", "--r", "1e-1000"],
     "check --order and --r"),
    (["class", "custom", "tangent", "--weight", "12", "--f", "1,1e-1000"],
     "check --weight and --f"),
], ids=["gseries", "class"])
def test_unprintable_result_exits_2_naming_the_fields(capsys, tmp_path, argv, named):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"more than {LIMIT} digits" in captured.err and named in captured.err


def test_other_class_errors_keep_their_message(capsys, tmp_path, monkeypatch):
    def failing(*args):
        raise ValueError("F is truncated too low for the requested order")

    monkeypatch.setattr(cli, "hilbert_class", failing)
    out = tmp_path / "out.json"
    assert main(["class", "chern", "tangent", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: F is truncated too low for the requested order\n"
    assert not out.exists()


@given(c=st.integers(-10**40, 10**40), d=st.integers(1, 10**40),
       shared=st.integers(1, 10**60), shape=st.sampled_from(("any", "d == 1", "d divides c")))
@example(c=-12, d=1, shared=1, shape="any")
@example(c=-12, d=4, shared=1, shape="d divides c")
@example(c=-7, d=3, shared=2**200 * 3**100, shape="any")
@settings(max_examples=300, deadline=None)
def test_coeff_text_is_the_text_of_the_fraction(c, d, shared, shape):
    """A record's coeff is str(Fraction(c, d)) for any unreduced c / d, and the
    record is the text json.dumps writes."""
    if shape == "d == 1":
        d = 1
    elif shape == "d divides c":
        c *= d
    record = _record(PART_TEXT[2] + PART_TEXT[1], c * shared, d * shared)
    assert json.loads(record[1:])["coeff"] == str(Fraction(c, d))
    assert record == record_text((2, 1), Fraction(c, d))


def test_coeff_text_at_the_digit_limit():
    top = 10 ** LIMIT - 1  # the longest printable int
    for c, d in ((top, 1), (-top, 7), (1, top), (top * 10**LIMIT, 3 * 10**LIMIT)):
        assert json.loads(_record(PART_TEXT[1], c, d)[1:])["coeff"] == str(Fraction(c, d))
    for c, d in ((top + 1, 1), (-(top + 1), 7), (1, 3 * (top + 1)), (3 * 10**LIMIT, 1)):
        with pytest.raises(_UnprintableCoefficient):
            _record(PART_TEXT[1], c, d)
    assert issubclass(_UnprintableCoefficient, ValueError)


# A custom class whose tautological g_2 = A/B and g_3 = B/A: each term holding
# both parts divides its product and divisor by A*B, as no g_k does alone
A, B = 5**20, 7**20
SHARED_F = [Fraction(1), Fraction(-2 * A, B), Fraction(3 * B, A) - Fraction(4 * A * A, B * B),
            Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)]


@pytest.mark.parametrize("flag,value", [("--weight-only", 8), ("--degree", 4)])
def test_library_keeps_rationals_the_cli_prints_their_text(capsys, flag, value):
    bound = 10
    f = TruncatedSeries.from_coeffs(SHARED_F, bound - 1)
    g = exponent_g(f, TAUTOLOGICAL, bound)
    assert (g.coeffs[2], g.coeffs[3]) == (Fraction(A, B), Fraction(B, A))
    nums, dens = [c.numerator for c in g.coeffs], [c.denominator for c in g.coeffs]
    assert max(_exp_walk(nums, dens, bound, None, None, lambda key, c, d: gcd(c, d))) >= A * B
    terms = hilbert_class(f, TAUTOLOGICAL, bound)
    assert terms and all(type(p) is tuple and type(c) is Fraction for p, c in terms.items())
    only, degree = (value, None) if flag == "--weight-only" else (None, value)
    terms = hilbert_class(f, TAUTOLOGICAL, bound, only, degree)
    code, doc = run_json(capsys, "class", "custom", TAUTOLOGICAL, "--weight", str(bound),
                         "--f", ",".join(map(str, SHARED_F)), flag, str(value))
    assert code == 0 and len(terms) > 1
    assert doc["payload"] == [{"coeff": str(c), "partition": list(p)} for p, c in terms.items()]


CUSTOM_F = "1,1/2,-1/3,2/3,-1,1/5,3/4,-2/7"  # a `custom --f` of the benchmark pool


@pytest.mark.parametrize("target", [TANGENT, TAUTOLOGICAL])
def test_text_keys_are_the_partitions_text(target):
    """The `class` command's walk, keyed by `PART_TEXT` and written by `_record`,
    lists the library's terms in its order, each the text json.dumps writes
    for the partition and the str() of the Fraction; the library's callers
    keep partitions and Fractions."""
    bound = 10
    f = TruncatedSeries.from_coeffs([Fraction(c) for c in CUSTOM_F.split(",")], bound - 1)
    for only, degree in ((None, None), (8, None), (None, 4), (8, 4)):
        plain = hilbert_class(f, target, bound, only, degree)
        records = hilbert_class(f, target, bound, only, degree, _record, PART_TEXT)
        assert len(plain) > 1
        assert all(type(p) is tuple and type(c) is Fraction for p, c in plain.items())
        assert records == [record_text(p, c) for p, c in plain.items()]
    product = cup_basis((2, 1, 1), (3, 1))
    assert product
    assert all(type(p) is tuple and type(c) is Fraction for p, c in product.items())


# `class` requests for both targets.  g_1 = F(0) = 1 for every f with f(0) = 1, so
# only weight 0 and the one term (w) of --weight-only w --degree w-1 write no run
# of 1s; the walk over a g_1 of 0 is tested on int lists (tests/test_fock.py).
CLASS_GRID = [  # class, --r, --f, --weight, --weight-only, --degree, the partitions printed
    ("chern", None, None, 0, None, None, [()]),
    ("segre", None, None, 1, None, None, [(), (1,)]),
    ("sqrt-todd", None, None, 8, None, None, None),
    ("cprime-pow", "-3/2", None, 9, 7, None, None),
    ("custom", None, CUSTOM_F, 10, None, 4, None),
    ("custom", None, CUSTOM_F, 9, 0, None, [()]),
    ("custom", None, CUSTOM_F, 9, 9, 8, [(9,)]),
    ("chern", None, None, 4, None, 5, []),
    ("segre", None, None, 6, 3, 3, []),
]


@pytest.mark.parametrize("target", [TANGENT, TAUTOLOGICAL])
@pytest.mark.parametrize("name,r,coeffs,bound,only,degree,printed", CLASS_GRID, ids=[
    "weight-0", "weight-1", "full", "weight-only", "degree", "weight-only-0",
    "no-runs", "empty-degree", "empty-weight-and-degree"])
def test_class_output_is_json_dumps_of_the_library_class(
        capsys, target, name, r, coeffs, bound, only, degree, printed):
    """`class` prints json.dumps(indent=2, sort_keys=True) of the envelope
    holding `hilbert_class`'s {partition: Fraction}, each term a record."""
    order = max(bound - 1, 0)
    if coeffs is None:
        f = builtin_f(name, order, None if r is None else Fraction(r))
    else:
        f = TruncatedSeries.from_coeffs([Fraction(c) for c in coeffs.split(",")][: order + 1],
                                        order)
    terms = hilbert_class(f, target, bound, only, degree)
    argv = ["class", name, target, "--weight", str(bound)]
    for flag, value in (("--r", r), ("--f", coeffs), ("--weight-only", only),
                        ("--degree", degree)):
        argv += [] if value is None else [f"{flag}={value}"]
    code, out = run_cli(capsys, *argv)
    request = {"subcommand": "class", "class": name, "target": target, "weight": bound,
               "degree": degree, "r": r, "f": coeffs}
    payload = [{"coeff": str(c), "partition": list(p)} for p, c in terms.items()]
    assert code == 0 and out == envelope(request, payload)
    if printed is None:
        assert len(terms) > 2
    else:
        assert list(terms) == printed


@pytest.mark.parametrize("text,value", [
    (f"0e-{3 * LIMIT}", 0),
    (f"1e-{LIMIT - 1}", Fraction(1, 10 ** (LIMIT - 1))),
    (f"25e-{LIMIT + 1}", Fraction(1, 4 * 10 ** (LIMIT - 1))),
    (f"123e{LIMIT - 3}", 123 * 10 ** (LIMIT - 3)),
    ("1_0e-1_0", Fraction(1, 10**9)),
    (" .5E+2 ", 50),
])
def test_exponent_forms_within_the_digit_limit_parse(text, value):
    assert _parse_rational("r", text) == value


@pytest.mark.parametrize("value", ["-1", "-3/2", "-.5", "-0.5", "-7/3"])
def test_negative_r_parses_as_joined(capsys, value):
    spaced = run_cli(capsys, "gseries", "cprime-pow", "tangent", "--r", value, "--order", "5")
    joined = run_cli(capsys, "gseries", "cprime-pow", "tangent", f"--r={value}", "--order", "5")
    assert spaced[0] == 0 and spaced == joined


@pytest.mark.parametrize("value", ["-1/0", "-3/x", "-1/2/3", "-.", "-1/" + "x" * 197],
                         ids=["-1/0", "-3/x", "-1/2/3", "-.", "200-characters"])
def test_bad_negative_r_names_the_flag(capsys, value):
    assert main(["gseries", "cprime-pow", "tangent", "--r", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--r is not a rational p/q with q != 0: {value!r}" in captured.err


@pytest.mark.parametrize("argv", [
    ["gseries", "cprime-pow", "tangent", "--r", "-x"],
    ["gseries", "cprime-pow", "tangent", "--r"],
    ["gseries", "cprime-pow", "tangent", "--r", "--order", "5"],
])
def test_missing_r_value_exits_2_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --r: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["gseries", "chern", "tangent", "--order", "-1"], "--order must be nonnegative, got -1"),
    (["gseries", "chern", "tangent", "--order", "242"], "--order must be at most 241, got 242"),
    (["class", "chern", "tangent", "--weight", "-1"], "--weight must be nonnegative, got -1"),
    (["class", "chern", "tangent", "--weight", "5", "--weight-only", "7"],
     "--weight-only must lie in 0..5"),
    (["class", "chern", "tangent", "--weight-only", "-1"], "--weight-only must lie in 0..12"),
    (["class", "chern", "tangent", "--degree", "-3"], "--degree must be nonnegative, got -3"),
    (["class", "chern", "tangent", "--weight", "41"], "--weight must be at most 40, got 41"),
    (["cup", "[29]", "[29]"], "partition_a must have rank at most 28, got rank 29"),
    (["cup", "[]", "[]"], "partition_a must have rank at least 1, got rank 0"),
    (["cup", "[2]", "[1,1,1]"], "partition_b must have the rank of partition_a, 2, got rank 3"),
], ids=["order", "order-ceiling", "weight", "weight-only-above", "weight-only-negative", "degree",
        "weight-ceiling", "rank-ceiling", "rank-zero", "rank-mismatch"])
def test_range_errors_name_the_flag(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert argv[-1] in captured.err


@pytest.mark.parametrize("argv,named", [
    (["gseries", "custom", "tangent", "--f", "1", "--r", "2"],
     "--r applies only to class 'cprime-pow', not 'custom'"),
    (["gseries", "chern", "tautological", "--r=-1/2"],
     "--r applies only to class 'cprime-pow', not 'chern'"),
    (["class", "sqrt-todd", "tangent", "--weight", "3", "--r", "1"],
     "--r applies only to class 'cprime-pow', not 'sqrt-todd'"),
    (["gseries", "cprime-pow", "tangent", "--r", "2", "--f", "1,1"],
     "--f applies only to class 'custom', not 'cprime-pow'"),
    (["class", "segre", "tautological", "--f", "1,1"],
     "--f applies only to class 'custom', not 'segre'"),
], ids=["r-custom", "r-chern", "r-class", "f-cprime-pow", "f-class"])
def test_flag_of_another_class_is_rejected(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_cli_import_skips_dataclasses():
    """Every command imports `hilbclass.cli`, and `verify` with it; none of
    them loads `dataclasses`, whose import, `inspect` with it, every start
    would pay for."""
    src = Path(__file__).parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import hilbclass.cli; "
            "print('dataclasses' in sys.modules)")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
