"""End-to-end and per-layer benchmark of `hilbclass`.

    python3 bench/run.py --workload {gseries,class,cup,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts fresh worker processes
(`worker.py`), one client issuing one request at a time (a closed loop).

--trace 0 measures the end-to-end metrics: set-up time over several fresh
processes, then one run of S seconds.  --trace 1 measures the per-layer
metrics in a separate run of S seconds that issues every request twice in
a row, once with every layer wrapped in spans and once without; the
difference in their total CPU time is `trace.overhead_frac`.

Every reported time is in reference seconds: CPU seconds scaled by the
calibration kernel sampled during the run (`calibrate.py`), so that the
shared host's slow and fast phases cancel.  The table also shows the wall
figures.

A table goes to stdout first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Exit status is 0 when the
run completed, whether or not its outputs were correct, and nonzero without
a JSON line when it could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calibrate
from pools import WORKLOADS
from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Fresh processes started only to time set-up; setup_s is their median.
SETUP_SPAWNS = 11

# Tail percentile per workload, fixed so that runs of one workload compare
# the same percentile: the highest that leaves at least ten requests beyond
# it in every 20-second run at the seed commit (at least 60 gseries, 78
# class and 204 cup requests).  verify issues five requests per run, so
# its tail has fewer than ten beyond it.
TAIL_QUANTILE = {"gseries": 0.8, "class": 0.8, "cup": 0.9, "verify": 0.9}

# A run gives up after this long (the first run in a checkout included).
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class RunFailed(Exception):
    pass


def quantile(values, q: float) -> float:
    """Nearest rank: the smallest value with at least a share q of the
    values at or below it.  Unlike interpolation it gives the same value
    for one round as for several rounds of the same requests, as verify
    runs are."""
    xs = sorted(values)
    return xs[max(math.ceil(q * len(xs)) - 1, 0)]


def spawn(args, deadline: float) -> tuple[float, float, dict | None]:
    """Start a worker; return its set-up time in wall and in CPU seconds,
    and its summary (None when it was only timing set-up)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        word, _, cpu = ready.partition(" ")
        if word != "ready":
            raise RunFailed(f"worker did not start: {ready.strip() or 'no output'}")
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with status {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, float(cpu), (json.loads(lines[-1]) if lines else None)


def timings(workload, setups, lat) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": quantile(lat, TAIL_QUANTILE[workload]),
        "requests_per_s": len(lat) / sum(lat),
    }


def run_untraced(workload, seed, seconds, deadline) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds, and the run's summary with
    the same figures in wall seconds under "wall".  Each set-up and each
    request is scaled by the kernel samples taken around it: here, between
    the set-up spawns, and in the worker, during and between requests."""
    setups, walls, setup_cal = [], [], [calibrate.sample()]
    for _ in range(SETUP_SPAWNS):
        wall, setup, _ = spawn(["--workload", workload, "--seed", str(seed),
                                "--setup-only"], deadline)
        setups.append(setup)
        walls.append(wall)
        setup_cal.append(calibrate.sample())
    _, _, result = spawn(["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds)], deadline)
    setup_scales = [calibrate.scale(setup_cal[k:k + 2]) for k in range(SETUP_SPAWNS)]
    scaled = [x * k for x, k in zip(result["latencies"], result["scales"])]
    metrics = timings(workload, [x * k for x, k in zip(setups, setup_scales)], scaled)
    metrics["peak_rss_mb"] = result["rss_kb"] / 1024
    result["wall"] = timings(workload, walls, result["wall_latencies"])
    result["scaled_latencies"] = scaled
    result["median_scales"] = (statistics.median(setup_scales),
                               statistics.median(result["scales"]))
    return metrics, result


def run_traced(workload, seed, seconds, deadline) -> tuple[dict, dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.bin")
    _, _, result = spawn(["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "--spans", spans],
                         deadline)
    metrics = dict(result["layers"])
    metrics["cli.output_bytes"] = result["output_bytes"]
    plain_s, traced_s = sum(result["latencies"]), sum(result["traced_latencies"])
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return metrics, result


def print_table(workload, seed, trace, metrics, units, result) -> None:
    n, failed = result["requests"], result["failed"]
    print(f"workload {workload}  seed {seed}  trace {trace}  requests {n}  failed {failed}")
    if trace:
        print(f"  each of {len(result['latencies'])} requests ran untraced and traced; "
              "the per-layer figures cover the traced runs")
    else:
        q = TAIL_QUANTILE[workload]
        setup_scale, run_scale = result["median_scales"]
        beyond = sum(1 for x in result["scaled_latencies"] if x > metrics["latency_p90_s"])
        print(f"  latency_p90_s is the p{q * 100:g} latency: "
              f"{beyond} of {n} requests lie beyond it")
        print(f"  times in reference seconds: CPU seconds x {setup_scale:.4g} (set-up), "
              f"x {run_scale:.4g} (requests; medians of the factors, from "
              f"{result['calibration_samples']} calibration samples)")
        print(f"  {'':40s} {'reference':>16s} {'wall':>16s}")
    for name in units:
        wall = result["wall"].get(name) if not trace else None
        shown = f"{wall:>16.6g}" if wall is not None else ""
        print(f"  {name:40s} {metrics[name]:>16.6g} {shown:>16s} {units[name]}")
    print(f"  {'failed_fraction':40s} {failed / n:>16.6g} ratio")
    for key, problem in result["failures"]:
        print(f"  FAILED {key}: {problem}")
    for name in result["missing_spans"]:
        print(f"  not traced, absent from the program: {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hilbclass", "cli.py")):
        print(f"error: no hilbclass sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            metrics, result = run_traced(args.workload, args.seed, args.seconds, deadline)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            metrics, result = run_untraced(args.workload, args.seed, args.seconds, deadline)
            units = dict(END_TO_END)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print_table(args.workload, args.seed, args.trace, metrics, units, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["requests"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
