"""One benchmark process: set up a workload, run whole rounds, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--trace FILE]

`setup_s` is the CPU time this process has used when the instance is ready,
so it covers interpreter start, imports and the instance construction, but
not time spent waiting for a CPU that other processes hold.  With
`--setup-only` the process stops once the instance is ready.  With `--trace FILE` it runs one round with the program's public
functions wrapped, writes the spans to FILE and reports the per-layer
metrics that BENCHMARK.json names; otherwise it runs rounds until S
seconds have passed.  The last stdout line is one JSON object.
"""

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    import numpy

    import prodexp

    if not Path(prodexp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"prodexp imported from {prodexp.__file__}, not from {ROOT / 'src'}")

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        modules = {name: importlib.import_module(f"prodexp.{name}") for name in tracing.MODULES}
        tracing.instrument(tracer, modules)
        with open(ROOT / "BENCHMARK.json") as fh:
            per_layer = [m["name"] for m in json.load(fh)["per_layer"]]

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        with tracer.span("bench.setup"):
            wl = cls(ROOT, args.seed)
    else:
        wl = cls(ROOT, args.seed)
    result = {"setup_s": time.process_time()}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if hasattr(wl, "load"):
        wl.load()

    failed = 0

    def op(name, fn, *fargs):
        nonlocal failed
        try:
            if tracer is None:
                return fn(*fargs)
            with tracer.span(f"bench.{name}"):
                return fn(*fargs)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            failed += 1
            return workloads.FAILED

    rounds, outputs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs.append(wl.round(op))
        t1 = time.perf_counter()
        rounds.append(t1 - t0)
        if tracer is not None or t1 - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        # taken before the checks, which call the program again
        result["metrics"] = {name: tracer.metric(name) for name in per_layer}
        spans_end = len(tracer.spans)

    problems = []
    for out in outputs:
        try:
            problems += wl.check(out)
        except Exception as exc:  # an output the checks cannot read is a wrong output
            traceback.print_exc()
            problems.append(f"check failed on an unreadable output: {exc!r}")
    if tracer is not None:
        del tracer.spans[spans_end:]
        tracer.write_spans(args.trace)
        result["spans"] = spans_end

    result.update(
        round_s=rounds,
        peak_rss_mb=peak_rss_mb,
        attempted=len(rounds) * cls.OPS,
        failed=failed,
        problems=problems,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
