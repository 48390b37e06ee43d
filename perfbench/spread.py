"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload infer-b1 --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run after another, from the current
directory, and prints for each end-to-end metric the median of the runs
and the distance between their first and third quartiles as a share of
that median, next to the metric's bound from BENCHMARK.json. A benchmark
is steady when every share except that of setup_s stays below a third of
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med
        if metric["name"] != "setup_s":
            worst = max(worst, share / metric["bound"])
        print(f"{metric['name']:24s} median {med:12.4f} {metric['unit']:4s} "
              f"spread {share:6.3f} bound {metric['bound']:.3f}")
    print(f"{args.workload}: worst spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
