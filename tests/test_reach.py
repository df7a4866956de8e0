"""Every function of the library is entered by some command.

No library code exists only for tests: every `def` in `src/hilbclass/`
(module functions, methods and nested functions) must be entered by a
fixed list of small `hilbclass` requests that between them use every
subcommand and flag, and the ways a result can fail to print.  A profile
hook records each code object entered while they run.  Class bodies and
comprehensions are not `def`s; `TruncatedSeries`, the one class, keeps
`__repr__`, `__eq__` and `__setattr__` for assertion messages, tests and
immutability, and they are not required.
"""

import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import hilbclass
from hilbclass import cli

SRC = Path(hilbclass.__file__).parent
KEEP = {"__repr__", "__eq__", "__setattr__"}

REQUESTS = [
    (("gseries", "chern", "tangent", "--order", "5"), 0),
    (("gseries", "segre", "tautological", "--order", "5"), 0),
    (("gseries", "sqrt-todd", "tangent", "--order", "5"), 0),
    (("gseries", "cprime-pow", "tautological", "--r", "1/2", "--order", "5"), 0),
    (("gseries", "custom", "tangent", "--f", "1,1/2,-1/3", "--order", "5"), 0),
    (("gseries", "cprime-pow", "tangent", "--order", "12", "--r", "1e-1000"), 2),  # too many to print
    (("class", "segre", "tangent", "--weight", "4", "--weight-only", "3",
      "--degree", "0"), 0),  # degree 0: the run 1^3 alone
    (("class", "custom", "tautological", "--f", "1,2", "--weight", "4"), 0),
    (("cup", "[2,1]", "[2,1]"), 0),
    (("verify", "appendix"), 0),
    (("verify", "oracle"), 0),
    (("verify", "examples"), 1),  # the quoted sqrt-Todd form is a known erratum
    (("verify", "ring"), 0),
    (("verify", "crossoracle"), 0),
]


def _defs(code: CodeType):
    """(file, qualified name) of each def compiled into `code`, nested ones too."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if (const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<")
                    and const.co_name not in KEEP):
                yield const.co_filename, const.co_qualname
            yield from _defs(const)


def _empty_hilbclass_caches():
    for name, module in list(sys.modules.items()):
        if name == "hilbclass" or name.startswith("hilbclass."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_every_method_is_reached_by_a_command(capsys, tmp_path):
    defs = {d for path in SRC.glob("*.py")
            for d in _defs(compile(path.read_text(), str(path), "exec"))}
    assert defs
    _empty_hilbclass_caches()
    entered = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        # the import that each command starts with builds the parser; run it afresh
        exec(cli.__loader__.get_code(cli.__name__),
             {"__name__": cli.__name__, "__package__": cli.__package__})
        codes = [cli.main(list(argv)) for argv, _ in REQUESTS]
        codes.append(cli.main(["cup", "[3]", "[2,1]", "--out", str(tmp_path / "cup.json")]))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in REQUESTS] + [0]
    assert sorted(defs - {(c.co_filename, c.co_qualname) for c in entered}) == []
