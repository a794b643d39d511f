"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cases --seed 1 --seconds 25 --trace 0

Run from the repository root; carbonstop is imported from ./src, so nothing
needs installing.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  See
perfbench/README.md for the workloads and the meaning of every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / "perfbench" / "runs"
WORKLOADS = ("cases", "surface", "fleet")
SETUP_REPS = 7  # fresh interpreters timed for setup_s, besides the measuring one
DEADLINE_S = 170.0

class BenchError(Exception):
    pass


def start_worker(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds until it printed `ready`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not get ready: {line.strip() or 'timed out'}")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker timed out")
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    seconds = [s for s, _ in result["solves"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["rounds_s"]),
        "solve_p50_s": statistics.median(seconds),
        "node_updates_per_s": sum(n for _, n in result["solves"]) / sum(seconds),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(result: dict) -> dict[str, float]:
    """Each layer metric of one round, the median over the run's rounds."""
    rounds = result["layers"]
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{tag}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for k in range(SETUP_REPS):
            proc, setup = start_worker(
                common + ["--seconds", "0", "--dir", str(workdir / f"setup{k}"), "--setup-only"],
                deadline)
            finish(proc, deadline)
            setups.append(setup)

    result_path = workdir / "result.json"
    proc, setup = start_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--dir", str(workdir / "run"), "--result", str(result_path)],
        deadline)
    setups.append(setup)
    finish(proc, deadline)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = per_layer(result) if args.trace else end_to_end(result, setups)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    if args.trace:
        trace = {"workload": args.workload, "seed": args.seed, "rounds_s": result["rounds_s"],
                 "layers": result["layers"], "spans": result["spans"]}
        (RUNS / f"trace-{tag}.json").write_text(json.dumps(trace), encoding="utf-8")
    if result["correct"]:
        shutil.rmtree(workdir)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "carbonstop" / "cli.py").is_file():
        print(f"error: no carbonstop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in out["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted={out['attempted']} failed={out['failed']} "
          f"correct={out['correct']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
