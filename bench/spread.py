"""Run the benchmark on several seeds and report the spread of each metric.

    python3 bench/spread.py --workloads schur-large --seeds 1 2 3 4 5 --seconds 35

Run from the root of a checkout.  For each workload and end-to-end metric
it prints the median over the seeds and the spread: the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  With ``--trace 1`` it prints the per-layer metrics
and whether each count was the same on every seed.  The raw results go to
``bench/results/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args(argv)
    raw = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        raw[workload] = runs
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if args.trace and runs[0]["metrics"][name]["unit"] == "count":
                same = "same on every seed" if len(set(values)) == 1 else "differs by seed"
                print(f"  {workload:13s} {name:28s} {statistics.median(values):>12.6g}  {same}")
            elif len(values) >= 2:
                print(f"  {workload:13s} {name:28s} median {statistics.median(values):.4g}"
                      f"  spread {spread(values):.4f}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  {workload:13s} failed share per run: {sorted(shares)}")
    out = BENCH / "results" / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
