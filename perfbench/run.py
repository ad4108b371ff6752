"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Every measurement happens in fresh single-threaded
worker processes (`worker.py`):

- `--trace 0`: one process that runs whole rounds of the workload for S
  seconds, between SETUPS set-up-only processes.  Prints `setup_s` (median
  set-up CPU time over all of them), `solve_s` (median round) and
  `peak_rss_mb` (the measuring process's peak resident set after its last
  round).
- `--trace 1`: the same untraced process, then one traced round with the
  program's public functions wrapped.  Prints the per-layer metrics of
  BENCHMARK.json, `trace.overhead_s` being the traced round minus the
  median untraced round.

The last stdout line is `{"correct", "attempted", "failed", "metrics"}`; the
line before it records the machine state.  Traced runs leave their spans
in perfbench/out/trace-<workload>.tsv.  A run whose program is missing,
whose worker fails or which would pass DEADLINE_S exits non-zero without a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 8  # set-up-only processes per run, besides the measuring one
DEADLINE_S = 170.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
import reference  # noqa: E402


class BenchError(Exception):
    pass


def spawn(deadline: float, workload: str, seed: int, *extra: str) -> dict:
    """Run one worker to its end and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the deadline: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def ensure_v1_certificate(deadline: float) -> None:
    """Write the verify workload's input in a process of its own, once per
    checkout, so its cost and memory stay out of the measured run."""
    path = OUT / "input" / "v1-t4.cert"
    if path.is_file() and reference.sha256_file(path) == reference.V1_T4_SHA256:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "reference.py"), "write-v1", "--t", "4", "--out", str(path)]
    try:
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"could not write {path}: {exc}") from exc
    if reference.sha256_file(path) != reference.V1_T4_SHA256:
        raise BenchError(f"{path} does not hold the expected v1 certificate")


def machine() -> dict:
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": load,
        "python": platform.python_version(),
    }


def measure(args, deadline: float, spec: dict):
    """(metrics, workers) for one run."""
    seconds = str(args.seconds)
    if not args.trace:
        def setups(count):
            return [spawn(deadline, args.workload, args.seed, "--setup-only")["setup_s"]
                    for _ in range(count)]

        # half before and half after the measuring process, so that a slow
        # phase of the machine weighs on the median no more than its share
        before = setups(SETUPS // 2)
        main = spawn(deadline, args.workload, args.seed, "--seconds", seconds)
        after = setups(SETUPS - SETUPS // 2)
        metrics = {
            "setup_s": statistics.median(before + [main["setup_s"]] + after),
            "solve_s": statistics.median(main["round_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        return metrics, [main]
    plain = spawn(deadline, args.workload, args.seed, "--seconds", seconds)
    trace_file = OUT / f"trace-{args.workload}.tsv"
    traced = spawn(deadline, args.workload, args.seed, "--trace", str(trace_file))
    return per_layer_metrics(plain, traced, spec), [plain, traced]


def per_layer_metrics(plain: dict, traced: dict, spec: dict) -> dict:
    """The traced worker's metrics plus the tracing overhead.  A metric the
    tracer could not produce (its function is gone) is left out and named
    on stderr, so a later change to the program never fails the run."""
    metrics = {k: v for k, v in traced["metrics"].items() if v is not None}
    metrics["trace.overhead_s"] = traced["round_s"][0] - statistics.median(plain["round_s"])
    absent = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
    if absent:
        print(f"absent per-layer metrics: {absent}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="prodexp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / "prodexp" / "__init__.py").is_file():
            raise BenchError(f"no program source at {ROOT / 'src' / 'prodexp'}")
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        OUT.mkdir(exist_ok=True)
        if args.workload == "verify-rs255":
            ensure_v1_certificate(deadline)
        metrics, workers = measure(args, deadline, spec)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = [p for w in workers for p in w["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    env = dict(machine(), numpy=workers[0]["numpy"], worker_python=workers[0]["python"])
    result = {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
