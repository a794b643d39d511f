"""One benchmark process: build a workload's inputs, run timed rounds, check.

Started by run.py as `python3 -m perfbench.worker` with `src` on the path.
It prints `ready` once carbonstop.cli is imported and the inputs are
written, which is where run.py stops the set-up clock.  With --setup-only
it exits there.  Otherwise it runs whole rounds of the workload's
operations until --seconds have passed, then checks the outputs of the
last round and writes a JSON result to --result.  A traced run first runs
one round that only measures memory.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import carbonstop.cli  # noqa: F401  (part of set-up: numpy, click)

from perfbench.workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, Path(args.dir))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import carbonstop.scenario as scenario
    import carbonstop.solver as solver

    from perfbench.tracing import Tracer

    # Every solve is timed from outside, traced or not: solve_p50_s and
    # node_updates_per_s need each solve's time and lattice size.
    solves = []

    def timed(fn):
        def wrapper(*a, **k):
            start = time.perf_counter()
            grid, boundary = fn(*a, **k)
            n_times, n_levels = grid.U.shape
            solves.append((time.perf_counter() - start, (n_times - 1) * n_levels))
            return grid, boundary
        return wrapper

    for owner in (carbonstop.cli, scenario, solver):
        owner.solve_boundary = timed(owner.solve_boundary)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer

    attempted = failed = 0

    def run_round() -> float:
        nonlocal attempted, failed
        start = time.perf_counter()
        for op in workload.ops:
            attempted += 1
            try:
                op()
            except Exception as exc:  # an operation that fails is counted, not fatal
                failed += 1
                print(f"operation failed: {exc!r}", file=sys.stderr)
        return time.perf_counter() - start

    peak_alloc_mb = None
    if tracer:
        # One extra round measures memory only; the timed rounds run without
        # tracemalloc.
        tracer.track_alloc = True
        run_round()
        peak_alloc_mb = tracer.layer_metrics()["solver.peak_alloc_mb"]
        tracer.track_alloc = False

    rounds, layers, spans = [], [], []
    begin = time.perf_counter()
    while True:
        if tracer:
            tracer.clear()
        rounds.append(run_round())
        if tracer:
            layers.append(dict(tracer.layer_metrics(), **{"solver.peak_alloc_mb": peak_alloc_mb}))
            spans.append(tracer.span_records())
        if time.perf_counter() - begin >= args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    try:
        failures = workload.check()
    except Exception as exc:  # a check that cannot read its output fails the run
        failures = [f"check raised {exc!r}"]
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": not failures and not failed,
        "rounds_s": rounds,
        "solves": solves,
        "peak_rss_kb": peak_rss_kb,
        "layers": layers,
        "spans": spans,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
