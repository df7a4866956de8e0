"""Record the expected output of every pool request into golden.json.

    python3 bench/make_golden.py [workload ...]

Run it only on a commit whose outputs are known to be right: the digests it
writes are what every later run is checked against.  It also records the
cost of every request, the median of COST_RUNS cold runs in reference
seconds (see calibrate.py), by which `pools.py` cuts each pool into strata
of similar cost.  Each request also has to pass the independent checks in
checks.py, or nothing is written.  With workload names, only those pools
are recorded again; the entries of the other pools are kept, and entries
no pool holds any more are dropped.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys

import calibrate
import checks
import pools
import worker


# Cold runs per request; its recorded cost is their median time in
# reference seconds, measured as the benchmark measures it.
COST_RUNS = 3


def record(workload: str) -> dict:
    entries, timings = {}, {}
    caches = worker.find_caches()
    with calibrate.Calibrator() as calibrator:
        for argv in pools.pool(workload):
            key = pools.request_key(argv)
            outcomes, timings[key] = set(), []
            for _ in range(COST_RUNS):
                for clear in caches:
                    clear()
                gc.collect()
                rc, out, dt, _, c0 = worker.issue(argv)
                outcomes.add((rc, checks.digest(out)))
                timings[key].append((dt, c0))
            if len(outcomes) != 1:
                raise SystemExit(f"{key}: output differs between runs")
            problem = checks.independent_check(argv, rc, out)
            if problem is not None:
                raise SystemExit(f"{key}: {problem}")
            entries[key] = {"exit": rc, "sha256": checks.digest(out)}
    for key, runs in timings.items():
        costs = []
        for dt, c0 in runs:
            kernel_cpu, _, scale = calibrator.window(c0, c0 + dt)
            costs.append((dt - kernel_cpu) * scale)
        entries[key]["cost_s"] = round(statistics.median(costs), 6)
        print(f"{entries[key]['cost_s']:8.3f}s  {key}", file=sys.stderr)
    return entries


def main() -> int:
    sys.path.insert(0, worker.SRC)
    import hilbclass.cli  # noqa: F401  (loads every module find_caches scans)

    workloads = sys.argv[1:] or list(pools.WORKLOADS)
    golden = checks.load_golden() if os.path.exists(checks.GOLDEN_PATH) else {}
    current = {pools.request_key(argv) for w in pools.WORKLOADS for argv in pools.pool(w)}
    golden = {k: v for k, v in golden.items() if k in current}
    for workload in workloads:
        golden.update(record(workload))
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
