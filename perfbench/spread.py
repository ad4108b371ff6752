"""Run the benchmark on seeds 1 to 10 and print each end-to-end metric's
median, quartiles and spread (interquartile distance over the median).

    python3 perfbench/spread.py --workloads decode-rs63 exact-small

Runs are sequential, at BENCHMARK.json's run_seconds; each run's machine
state line is printed before its workload's summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            env, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
            print(f"  seed {seed}: {json.dumps(env)}")
            runs.append(result)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {sorted(shares)}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"  {name:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {(q3 - q1) / med:.4f} (bound {bound})  "
                  f"values {' '.join(f'{v:.4f}' for v in vals)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
