"""Every method of the value types is reached by some command.

No library code exists only for tests: the methods of `TruncatedSeries`,
`FockElement`, `ParamPoly` and `RationalField` must each be entered by a
fixed list of small `hilbclass` requests that between them use every
subcommand and flag.  Each method is wrapped by a recorder that puts
the original back on its first entry, so the requests run at full speed
after that.  `__repr__`, `__eq__`, `__hash__` and `__setattr__` are kept
for assertion messages, tests and immutability, and are not required.
"""

import sys
from inspect import isfunction

import pytest

from hilbclass.cli import main
from hilbclass.exact import ParamPoly, RationalField
from hilbclass.fock import FockElement
from hilbclass.series import TruncatedSeries

CLASSES = (TruncatedSeries, FockElement, ParamPoly, RationalField)
KEEP = {"__repr__", "__eq__", "__hash__", "__setattr__"}

REQUESTS = [
    (("gseries", "chern", "tangent", "--order", "5"), 0),
    (("gseries", "segre", "tautological", "--order", "5"), 0),
    (("gseries", "sqrt-todd", "tangent", "--order", "5"), 0),
    (("gseries", "cprime-pow", "tautological", "--r", "1/2", "--order", "5"), 0),
    (("gseries", "custom", "tangent", "--f", "1,1/2,-1/3", "--order", "5"), 0),
    (("class", "segre", "tangent", "--weight", "4", "--weight-only", "3",
      "--degree", "1"), 0),
    (("class", "custom", "tautological", "--f", "1,2", "--weight", "4"), 0),
    (("cup", "[2,1]", "[2,1]"), 0),
    (("verify", "appendix"), 0),
    (("verify", "oracle"), 0),
    (("verify", "examples"), 1),  # the quoted sqrt-Todd form is a known erratum
    (("verify", "ring"), 0),
    (("verify", "crossoracle"), 0),
]


def _function(attr):
    """The function behind a method, classmethod, staticmethod or property."""
    if isinstance(attr, (classmethod, staticmethod)):
        return attr.__func__
    if isinstance(attr, property):
        return attr.fget
    return attr if isfunction(attr) else None


def _rebuild(attr, fn):
    """`attr` with its function replaced by `fn`."""
    if isinstance(attr, (classmethod, staticmethod, property)):
        return type(attr)(fn)
    return fn


def _empty_hilbclass_caches():
    for name, module in list(sys.modules.items()):
        if name == "hilbclass" or name.startswith("hilbclass."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def entered():
    """Wrap every method outside KEEP; yield the set of qualified names
    entered, and restore the classes afterwards."""
    names, originals = set(), []
    by_function = {}
    for cls in CLASSES:
        for name, attr in list(vars(cls).items()):
            fn = _function(attr)
            if fn is not None and fn.__name__ not in KEEP:
                by_function.setdefault(fn, []).append((cls, name, attr))

    def recorder(fn, holders):
        def first_entry(*args, **kwargs):
            names.add(fn.__qualname__)
            for cls, name, attr in holders:
                setattr(cls, name, attr)
            return fn(*args, **kwargs)
        return first_entry

    for fn, holders in by_function.items():
        wrapped = recorder(fn, holders)
        for cls, name, attr in holders:
            originals.append((cls, name, attr))
            setattr(cls, name, _rebuild(attr, wrapped))
    try:
        yield names, {fn.__qualname__ for fn in by_function}
    finally:
        for cls, name, attr in originals:
            setattr(cls, name, attr)


def test_every_method_is_reached_by_a_command(entered, capsys, tmp_path):
    _empty_hilbclass_caches()
    names, methods = entered
    for argv, code in REQUESTS:
        assert main(list(argv)) == code, argv
    assert main(["cup", "[3]", "[2,1]", "--out", str(tmp_path / "cup.json")]) == 0
    capsys.readouterr()
    assert sorted(methods - names) == []
