"""Span tracer installed from outside the library.

`install` wraps the public functions of each `hilbclass` module, and can
take the wrappers out again between requests.  Methods
are wrapped on the class itself, under every attribute name that holds them
(`__rmul__ = __mul__` included).  Module functions are re-bound in every
`hilbclass` module namespace that holds them, because `hilbert`, `cli` and
`verify` import them by name.

A span is (name, start, end, parent, request).  Spans are kept in flat
arrays while the run lasts and written out once at its end.  Counters
(term pairs, coefficient products, ...) are recorded by the same wrappers,
after the wrapped call returns.  Time a wrapper spends on its own
bookkeeping falls outside its span, inside the caller's.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from bisect import bisect_right

# (metric group, module, class or None, attribute names)
SPANS = (
    ("exact.parampoly_mul", "exact", "ParamPoly", ("__mul__",)),
    ("exact.parampoly_add", "exact", "ParamPoly", ("__add__",)),
    ("exact.parampoly_invert", "exact", "ParamPoly", ("invert",)),
    ("series.mul", "series", "TruncatedSeries", ("__mul__",)),
    ("series.inverse", "series", "TruncatedSeries", ("inverse",)),
    ("series.compose", "series", "TruncatedSeries", ("compose",)),
    ("series.revert", "series", "TruncatedSeries", ("revert",)),
    ("series.transcendental", "series", "TruncatedSeries", ("exp", "log", "sqrt_unit")),
    ("series.lagrange_g", "series", None, ("lagrange_g",)),
    ("fock.exp_linear", "fock", None, ("exp_linear",)),
    ("fock.element_ops", "fock", "FockElement",
     ("__add__", "__sub__", "scale", "__mul__", "component", "degree_component")),
    ("fock.to_records", "fock", "FockElement", ("to_records",)),
    ("partitions.enumerate", "partitions", None, ("enumerate_partitions",)),
    ("partitions.chi_mn", "partitions", None, ("chi_mn",)),
    ("partitions.hooks_contents", "partitions", None, ("hooks", "contents")),
    ("hilbert.cup_basis", "hilbert", None, ("cup_basis",)),
    ("hilbert.class_engine", "hilbert", None, ("hilbert_class",)),
    ("hilbert.gseries_engine", "hilbert", None, ("tangent_g", "taut_g")),
    ("hilbert.fixed_point_oracle", "hilbert", None, ("oracle_top_tangent", "oracle_top_taut")),
    ("hilbert.class_sum_oracle", "hilbert", None, ("cup_from_class_sums",)),
    ("verify.suite", "verify", None, ("run_suite",)),
    ("cli.serialize", "cli", None, ("_emit",)),
    ("cli", "cli", None, ("main",)),
)

# A cup_basis span without a descendant in these layers was served from the
# product cache.
COMPUTE_LAYERS = ("series", "exact")

# Per-layer metrics of a traced run, with their units and which way is better.
LAYER_METRICS = (
    ("exact.parampoly_mul.calls", "count", "lower"),
    ("exact.parampoly_mul.self_s", "s", "lower"),
    ("exact.parampoly_mul.term_pairs", "count", "lower"),
    ("exact.parampoly_mul.kept_ratio", "ratio", "higher"),
    ("exact.parampoly_add.calls", "count", "lower"),
    ("exact.parampoly_add.self_s", "s", "lower"),
    ("exact.parampoly_invert.calls", "count", "lower"),
    ("exact.parampoly_invert.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.coeff_products", "count", "lower"),
    ("series.inverse.calls", "count", "lower"),
    ("series.inverse.self_s", "s", "lower"),
    ("series.compose.calls", "count", "lower"),
    ("series.compose.self_s", "s", "lower"),
    ("series.revert.calls", "count", "lower"),
    ("series.revert.self_s", "s", "lower"),
    ("series.lagrange_g.calls", "count", "lower"),
    ("series.lagrange_g.self_s", "s", "lower"),
    ("series.transcendental.calls", "count", "lower"),
    ("series.transcendental.self_s", "s", "lower"),
    ("fock.exp_linear.calls", "count", "lower"),
    ("fock.exp_linear.self_s", "s", "lower"),
    ("fock.exp_linear.terms_out", "count", "lower"),
    ("fock.element_ops.calls", "count", "lower"),
    ("fock.element_ops.self_s", "s", "lower"),
    ("fock.to_records.self_s", "s", "lower"),
    ("cli.serialize_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("partitions.enumerate.calls", "count", "lower"),
    ("partitions.enumerate.self_s", "s", "lower"),
    ("partitions.chi_mn.calls", "count", "lower"),
    ("partitions.chi_mn.self_s", "s", "lower"),
    ("partitions.hooks_contents.calls", "count", "lower"),
    ("partitions.hooks_contents.self_s", "s", "lower"),
    ("hilbert.cup_basis.calls", "count", "lower"),
    ("hilbert.cup_basis.self_s", "s", "lower"),
    ("hilbert.cup_basis.hit_ratio", "ratio", "higher"),
    ("hilbert.class_engine.self_s", "s", "lower"),
    ("hilbert.gseries_engine.self_s", "s", "lower"),
    ("hilbert.fixed_point_oracle.calls", "count", "lower"),
    ("hilbert.fixed_point_oracle.self_s", "s", "lower"),
    ("hilbert.class_sum_oracle.calls", "count", "lower"),
    ("hilbert.class_sum_oracle.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.checks_failed", "count", "lower"),
    ("verify.suite.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _count_parampoly_mul(tracer, args, result):
    a, b = args
    pairs = len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    tracer.counts["exact.parampoly_mul.term_pairs"] += pairs
    if hasattr(result, "terms"):
        tracer.counts["exact.parampoly_mul.kept"] += len(result.terms)


def _count_series_mul(tracer, args, result):
    a, b = args
    zero = a.ring.zero
    n = a.order
    nonzero_b = [j for j, c in enumerate(b.coeffs) if c != zero]
    tracer.counts["series.mul.coeff_products"] += sum(
        bisect_right(nonzero_b, n - i) for i, c in enumerate(a.coeffs) if c != zero
    )


def _count_exp_linear(tracer, args, result):
    tracer.counts["fock.exp_linear.terms_out"] += len(result.terms)


def _count_checks(tracer, args, result):
    for c in result:
        tracer.check_names.add(c.name)
        if not c.passed:
            tracer.failed_check_names.add(c.name)


COUNT_KEYS = ("exact.parampoly_mul.term_pairs", "exact.parampoly_mul.kept",
              "series.mul.coeff_products", "fock.exp_linear.terms_out")

COUNTERS = {
    "exact.parampoly_mul": _count_parampoly_mul,
    "series.mul": _count_series_mul,
    "fock.exp_linear": _count_exp_linear,
    "verify.suite": _count_checks,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.stack: list[int] = []
        self.request_id = -1
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.check_names: set[str] = set()
        self.failed_check_names: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span named `name` per call; `after(tracer, args,
        result)` then updates the counters."""
        nid = self._name_id(name)
        clock, stack = self.clock, self.stack
        name_of, start, end, parent, request = (
            self.name_of, self.start, self.end, self.parent, self.request)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- derived metrics ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children
        (children of one span never overlap: the program is single-threaded)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def hit_ratio(self, name: str) -> float:
        """Share of `name` spans with no descendant span in COMPUTE_LAYERS."""
        if name not in self.names:
            return 0.0
        target = self.names.index(name)
        compute = {i for i, n in enumerate(self.names) if n.split(".")[0] in COMPUTE_LAYERS}
        computed = bytearray(len(self.start))  # span has a compute descendant
        name_of, parent = self.name_of, self.parent
        for i in range(len(name_of)):
            if name_of[i] not in compute:
                continue
            p = parent[i]
            while p >= 0 and not computed[p]:
                computed[p] = 1
                p = parent[p]
        spans = [i for i in range(len(name_of)) if name_of[i] == target]
        if not spans:
            return 0.0
        return sum(1 for i in spans if not computed[i]) / len(spans)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac and
        cli.output_bytes, which come from the runner."""
        calls = {name: 0 for name, _, _, _ in SPANS}
        self_s = {name: 0.0 for name, _, _, _ in SPANS}
        duration = {name: 0.0 for name, _, _, _ in SPANS}
        for i, t in enumerate(self.self_times()):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += t
            duration[name] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            group, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[group]
            elif stat == "self_s" and group in self_s:
                out[metric] = self_s[group]
        out["cli.serialize_s"] = duration["cli.serialize"]
        pairs = self.counts["exact.parampoly_mul.term_pairs"]
        out["exact.parampoly_mul.term_pairs"] = pairs
        out["exact.parampoly_mul.kept_ratio"] = (
            self.counts["exact.parampoly_mul.kept"] / pairs if pairs else 0.0)
        out["series.mul.coeff_products"] = self.counts["series.mul.coeff_products"]
        out["fock.exp_linear.terms_out"] = self.counts["fock.exp_linear.terms_out"]
        out["hilbert.cup_basis.hit_ratio"] = self.hit_ratio("hilbert.cup_basis")
        out["verify.checks"] = len(self.check_names)
        out["verify.checks_failed"] = len(self.failed_check_names)
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the span arrays back to back."""
        header = {
            "names": self.names,
            "fields": [["name", "H"], ["start", "d"], ["end", "d"],
                       ["parent", "q"], ["request", "q"]],
            "count": len(self.start),
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent, self.request):
                arr.tofile(fh)


def read_spans(path: str) -> tuple[dict, dict[str, array]]:
    """Inverse of Tracer.write: the header and one array per field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            fields[field] = arr
    return header, fields


def install(tracer: Tracer, package: str = "hilbclass"):
    """Wrap every entry of SPANS.

    Returns the entries not found in the program and a `switch(on)` that
    puts the wrappers in place (on) or the original functions back (off).
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    missing, patches = [], []
    for group, module_name, class_name, attrs in SPANS:
        module = sys.modules.get(f"{package}.{module_name}")
        owner = getattr(module, class_name, None) if class_name else module
        for attr in attrs:
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
                continue
            traced = tracer.wrap(group, fn, COUNTERS.get(group))
            for holder in ([owner] if class_name else modules):
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        patches.append((holder, name, fn, traced))

    def switch(on: bool) -> None:
        for holder, name, fn, traced in patches:
            setattr(holder, name, traced if on else fn)

    switch(True)
    return missing, switch
