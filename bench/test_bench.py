"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

import calibrate
import checks
import pools
import run
import worker
from tracer import COUNTERS, Tracer, read_spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("series.mul", lambda: clock.advance(2.0))

    def mid_body():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(3.0)

    mid = tracer.wrap("series.lagrange_g", mid_body)

    def top_body():
        clock.advance(0.5)
        mid()
        leaf()

    top = tracer.wrap("cli", top_body)
    top()
    top()

    assert tracer.self_times()[:4] == [0.5, 4.0, 2.0, 2.0]
    m = tracer.layer_metrics()
    assert m["series.mul.calls"] == 6
    assert m["series.mul.self_s"] == pytest.approx(12.0)
    assert m["series.lagrange_g.self_s"] == pytest.approx(8.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert list(tracer.parent[:4]) == [-1, 0, 1, 1]


def test_span_ends_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.5)
        raise ValueError("bad")

    with pytest.raises(ValueError):
        tracer.wrap("exact.parampoly_invert", boom)()
    assert tracer.stack == []
    assert tracer.layer_metrics()["exact.parampoly_invert.self_s"] == 1.5


def test_cup_basis_without_compute_descendant_is_a_hit():
    tracer = Tracer(FakeClock())
    mul = tracer.wrap("exact.parampoly_mul", lambda: None)
    to_records = tracer.wrap("fock.to_records", lambda: None)

    def cold():
        tracer.wrap("series.revert", mul)()

    cold_cup = tracer.wrap("hilbert.cup_basis", cold)
    warm_cup = tracer.wrap("hilbert.cup_basis", to_records)
    cold_cup()
    warm_cup()
    warm_cup()
    cold_cup()
    assert tracer.hit_ratio("hilbert.cup_basis") == 0.5


def test_spans_round_trip_through_the_file(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap("series.mul", lambda: clock.advance(0.25))
    tracer.request_id = 7
    tracer.wrap("cli", inner)()
    path = tmp_path / "spans.bin"
    tracer.write(str(path))
    header, fields = read_spans(str(path))
    assert header["names"] == ["series.mul", "cli"]
    assert list(fields["name"]) == [1, 0]
    assert list(fields["parent"]) == [-1, 0]
    assert list(fields["request"]) == [7, 7]
    assert list(fields["end"]) == [0.25, 0.25]


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    def first(seed, n=3):
        return list(itertools.islice(pools.rounds(workload, seed), n))

    assert first(11) == first(11)
    if workload != "verify":
        assert first(11) != first(12)


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_every_drawn_request_is_in_the_pool_and_recorded(workload):
    golden = checks.load_golden()
    members = {pools.request_key(argv) for argv in pools.pool(workload)}
    assert members <= golden.keys()
    for batch in itertools.islice(pools.rounds(workload, 5), 4):
        assert {pools.request_key(argv) for argv in batch} <= members


def test_cup_pairs_do_not_repeat_within_the_pool():
    pool = pools.cup_pool()
    assert len(pool) == 28 + 66 + 120 + 253
    strata = pools.strata("cup")
    assert sorted(sum(strata, [])) == sorted(pool)
    assert {len(s) for s in strata} == {9, 10}
    drawn = [argv for batch in itertools.islice(pools.rounds("cup", 3), 9) for argv in batch]
    keys = list(map(pools.request_key, drawn))
    assert len(keys) == len(set(keys)) == 9 * pools.STRATA["cup"]


@pytest.mark.parametrize("workload", ["gseries", "class", "cup"])
def test_strata_cut_the_pool_in_order_of_recorded_cost(workload):
    costs = pools.recorded_costs()
    strata = pools.strata(workload)
    assert len(strata) == pools.STRATA[workload]
    assert sorted(sum(strata, [])) == sorted(pools.pool(workload))
    for cheaper, dearer in zip(strata, strata[1:]):
        assert max(costs[pools.request_key(a)] for a in cheaper) <= \
            min(costs[pools.request_key(a)] for a in dearer)


def test_calibration_window_takes_out_the_samples_inside_a_timing():
    cal = calibrate.Calibrator()
    cal.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    cal.samples = [0.01, 0.02, 0.03, 0.04, 0.05]
    cal.walls = [0.015, 0.025, 0.035, 0.045, 0.055]
    # a timing from 1.5 to 3.5 holds the samples started at 2 and 3; the
    # samples started at 1 and 4 are its neighbours
    inside_cpu, inside_wall, scale = cal.window(1.5, 3.5)
    assert inside_cpu == pytest.approx(0.07)
    assert inside_wall == pytest.approx(0.08)
    assert scale == pytest.approx(calibrate.REFERENCE_S / 0.035)
    # a timing between two samples holds none and is scaled by both
    assert cal.window(2.1, 2.9) == (0, 0, pytest.approx(calibrate.REFERENCE_S / 0.035))


def test_calibrator_samples_inside_a_long_computation():
    with calibrate.Calibrator(interval=0.02) as cal:
        c0 = time.process_time()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        c1 = time.process_time()
    inside_cpu, _, _ = cal.window(c0, c1)
    assert len(cal.samples) >= 4 and inside_cpu > 0
    assert cal.starts == sorted(cal.starts)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_quantile_is_the_same_for_repeated_rounds():
    one_round = [0.15, 3.2, 0.5, 11.3, 7.2]
    for q in (0.5, 0.8, 0.9):
        assert run.quantile(one_round * 2, q) == run.quantile(one_round, q)
    assert run.quantile(one_round, 0.9) == 11.3
    assert run.quantile(list(range(1, 205)), 0.9) == 184


def test_calibration_kernel_is_fixed():
    assert calibrate.kernel(3) == [Fraction(1, 6), Fraction(4, 45), Fraction(23, 140)]


def test_power_form_reduces_to_chern_segre_and_lehn():
    for m in range(12):
        n = 2 * m + 1
        assert checks.power_g(Fraction(1), "tangent", n) == Fraction(
            (-1) ** m * comb(2 * m, m), (m + 1) * (2 * m + 1))
        assert checks.power_g(Fraction(-1), "tangent", n) == Fraction(
            comb(3 * m, m), (2 * m + 1) ** 2)
        assert checks.power_g(Fraction(1), "tangent", n + 1) == 0
    for n in range(1, 20):
        assert checks.power_g(Fraction(1), "tautological", n) == Fraction((-1) ** (n - 1), n)


@pytest.fixture(scope="module")
def hilbclass_cli():
    sys.path.insert(0, worker.SRC)
    try:
        import hilbclass.cli
        yield hilbclass.cli
    finally:
        sys.path.remove(worker.SRC)


def test_golden_check_flags_an_altered_output(hilbclass_cli):
    golden = checks.load_golden()
    argv = ["gseries", "cprime-pow", "tangent", "--order", "41", "--r=-3/2"]
    rc, out, *_ = worker.issue(argv)
    key = pools.request_key(argv)
    assert checks.check(golden, key, argv, rc, out) is None

    altered = out.replace('"-3/2"', '"-5/2"', 1)
    assert altered != out
    assert checks.check(golden, key, argv, rc, altered) == \
        "stdout differs from the recorded output"
    assert checks.check(golden, key, argv, 1, out).startswith("exit status")
    assert checks.check(golden, "gseries chern", argv, rc, out) == \
        "request has no recorded output"


def test_closed_form_check_flags_a_wrong_coefficient(hilbclass_cli):
    argv = ["gseries", "sqrt-todd", "tangent", "--order", "41"]
    rc, out, *_ = worker.issue(argv)
    assert checks.independent_check(argv, rc, out) is None
    doc = json.loads(out)
    doc["payload"][2] = "1/72"  # g_3 of the quoted erratum form
    problem = checks.independent_check(argv, rc, json.dumps(doc))
    assert problem == "g_3 = 1/72, closed form gives -1/72"


def test_traced_worker_wraps_every_layer(tmp_path):
    spans = tmp_path / "spans.bin"
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
         "--workload", "cup", "--seed", "1", "--seconds", "0", "--trace",
         "--spans", str(spans)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing_spans"] == []
    n = pools.STRATA["cup"]  # one round
    assert result["requests"] == 2 * n and result["failed"] == 0
    assert len(result["latencies"]) == len(result["traced_latencies"]) == n
    layers = result["layers"]
    assert layers["hilbert.cup_basis.calls"] == n
    assert layers["hilbert.cup_basis.hit_ratio"] == 0
    assert layers["exact.parampoly_mul.calls"] > 0
    assert layers["exact.parampoly_mul.term_pairs"] >= layers["exact.parampoly_mul.calls"]
    assert layers["fock.exp_linear.calls"] == n
    header, fields = read_spans(str(spans))
    assert set(fields["request"]) == set(range(n))
    assert header["count"] == len(fields["start"])
    assert header["names"][fields["name"][0]] == "cli"


def test_series_counter_counts_the_products_mul_performs(hilbclass_cli):
    from hilbclass.series import TruncatedSeries

    tracer = Tracer(FakeClock())
    mul = tracer.wrap("series.mul", TruncatedSeries.__mul__, COUNTERS["series.mul"])
    a = TruncatedSeries.from_coeffs([1, 0, 2, 0, 5], 4)
    b = TruncatedSeries.from_coeffs([0, 3, 1, 0, 7], 4)
    assert mul(a, b) == a * b
    # nonzero a_i at 0, 2, 4 and b_j at 1, 2, 4, with i + j <= 4:
    # (0,1) (0,2) (0,4) (2,1) (2,2)
    assert tracer.counts["series.mul.coeff_products"] == 5
