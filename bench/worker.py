"""One benchmark run inside a fresh Python process.

Imports `hilbclass.cli` from the checkout's `src`, prints `ready` and the
CPU time the process has used so far (its set-up), then issues the
workload's requests one at a time as argv lists passed to
`hilbclass.cli.main`, with stdout and stderr captured.  Rounds run whole
until `--seconds` have passed.  The last stdout line is a JSON summary for
`run.py`.

Before each request, outside the timed window, every functools cache in the
`hilbclass` modules is emptied and garbage is collected, so each request
costs what it costs in a fresh `hilbclass` process.  Each output is checked
right after its timed window.  Throughout an untraced run, the calibration
kernel (`calibrate.py`) runs five times a second; `run.py` scales the time
of each request by the samples taken during and around it.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time

import calibrate
import checks
import pools
from tracer import Tracer, install

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MAX_REPORTED_FAILURES = 5


def find_caches(package: str = "hilbclass") -> list:
    """cache_clear of every functools cache reachable from the package's
    module namespaces, each once."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


def issue(argv) -> tuple[object, str, float, float, float]:
    """Exit status, stdout, CPU time and wall time of one request, and the
    process CPU clock at its start.

    CPU time is what the benchmark reports: the program runs in one thread
    and does no I/O, so on an idle machine it equals wall time, while on a
    shared virtual machine it leaves out the time the host gave the CPU to
    other guests (steal time), which wall time counts."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["hilbclass.cli"].main
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return rc, out.getvalue(), time.process_time() - c0, wall, c0


def run(workload: str, seed: int, seconds: float, traced: Tracer | None) -> dict:
    """Issue whole rounds for `seconds` of wall time.

    Untraced, the calibration kernel runs throughout; `latencies` holds the
    CPU time of each request and `wall_latencies` its wall time, both
    without the kernel samples that fell inside it, and `scales` the factor
    from its samples to reference seconds.  With a tracer, every request
    runs twice in a row, untraced and traced, the order alternating from
    one request to the next, and the kernel does not run: `latencies` holds
    the untraced CPU times and `traced_latencies` the traced ones."""
    golden = checks.load_golden()
    caches = find_caches()
    missing, switch = install(traced) if traced is not None else ([], None)
    timings, traced_latencies, failures = [], [], []
    output_bytes = 0
    calibrator = calibrate.Calibrator() if traced is None else None
    started = time.perf_counter()

    def timed(argv):
        for clear in caches:
            clear()
        gc.collect()
        rc, out, dt, wall, c0 = issue(argv)
        problem = checks.check(golden, pools.request_key(argv), argv, rc, out)
        if problem is not None:
            failures.append([pools.request_key(argv), problem])
        return (dt, wall, c0), len(out.encode("utf-8"))

    with calibrator or contextlib.nullcontext():
        for batch in pools.rounds(workload, seed):
            for argv in batch:
                if switch is None:
                    timing, size = timed(argv)
                    timings.append(timing)
                else:
                    traced.request_id = len(timings)
                    order = (False, True) if len(timings) % 2 == 0 else (True, False)
                    for on in order:
                        switch(on)
                        timing, size = timed(argv)
                        (traced_latencies if on else timings).append(timing)
                output_bytes += size
            if time.perf_counter() - started >= seconds:
                break
    result = {
        "requests": len(timings) + len(traced_latencies),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "output_bytes": output_bytes,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing_spans": missing,
    }
    if calibrator is None:
        result["latencies"] = [dt for dt, _, _ in timings]
        result["traced_latencies"] = [dt for dt, _, _ in traced_latencies]
        result["layers"] = traced.layer_metrics()
    else:
        result.update(latencies=[], wall_latencies=[], scales=[],
                      calibration_samples=len(calibrator.samples))
        for dt, wall, c0 in timings:
            kernel_cpu, kernel_wall, scale = calibrator.window(c0, c0 + dt)
            result["latencies"].append(dt - kernel_cpu)
            result["wall_latencies"].append(wall - kernel_wall)
            result["scales"].append(scale)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=pools.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true",
                        help="issue every request untraced and traced")
    parser.add_argument("--spans", help="write the spans of a traced run here")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit right after the ready line")
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    package = importlib.import_module("hilbclass")
    importlib.import_module("hilbclass.cli")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        sys.exit(f"hilbclass was imported from {package.__file__}, not from {SRC}")
    print(f"ready {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0
    tracer = Tracer() if args.trace else None
    result = run(args.workload, args.seed, args.seconds, tracer)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
