"""Benchmark of brq: three workloads, timed end to end and per layer.

    python3 bench/run.py --workload b0-corpus --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Load model: a closed loop with one
client.  Each pass runs a workload's operations one after another in a
fresh interpreter (``workloads.py``), so every pass starts with an empty
H2 cache, as every ``brq`` invocation does.  Passes run one at a time until
``--seconds`` have passed; the last pass is always finished.

Each pass of ``schur-large`` relabels its Cayley tables afresh, from the
seed and the pass index, so a run averages over several relabellings.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics:

* ``setup_s``: median over the passes and ``SETUP_PROBES`` extra processes
  that only set up, of the time from starting the interpreter to the end of
  building the inputs;
* ``wall_s``: the sum over the operations of each operation's median time
  over the passes;
* ``max_op_s``: the largest of those per-operation medians;
* ``peak_rss_mb``: median over the passes of the pass process's peak
  resident memory.

With ``--trace 1`` untraced and traced passes alternate on the same inputs.
The object holds the per-layer metrics: times are medians over the traced
passes, counts are those of the first traced pass, and ``trace.overhead_s``
is the median over pairs of traced minus untraced pass time.
The full per-pass records go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("b0-corpus", "schur-large", "brnr-actions")
PASS_TIMEOUT_S = 150
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB"}


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, index, trace, setup_only=False):
    """One pass in a fresh interpreter; returns its record with its set-up
    time and pass time added."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise PassFailed(f"pass {index} ran longer than {PASS_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise PassFailed(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready_monotonic"] - started
    record["wall_s"] = sum(op["s"] for op in record["ops"])
    return record


def per_op_medians(passes):
    return [statistics.median(p["ops"][i]["s"] for p in passes)
            for i in range(len(passes[0]["ops"]))]


def unit_of(name):
    return "s" if name.endswith("_s") else "count"


def summarize(workload, seed, seconds, trace):
    deadline = time.monotonic() + seconds
    probes = [] if trace else [run_pass(workload, seed, 0, 0, setup_only=True)
                               for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    index = 0
    while True:
        untraced.append(run_pass(workload, seed, index, 0))
        if trace:
            traced.append(run_pass(workload, seed, index, 1))
        index += 1
        if time.monotonic() >= deadline:
            break
    passes = untraced + traced
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if op["error"])
    problems = [f"pass {i} {op['name']}: {msg}" for i, p in enumerate(passes)
                for op in p["ops"] for msg in op["problems"]]
    if trace:
        layer_names = list(traced[0]["layers"])
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   if unit_of(name) == "s" else traced[0]["layers"][name]
                   for name in layer_names}
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        metrics["cli.import_s"] = statistics.median(p["cli_import_s"] for p in traced)
        units = {name: unit_of(name) for name in metrics}
    else:
        op_times = per_op_medians(untraced)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes + untraced),
            "wall_s": sum(op_times),
            "max_op_s": max(op_times),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        units = END_TO_END
    for i, p in enumerate(untraced):
        print(f"pass {i}: setup {p['setup_s']:.3f} s, wall {p['wall_s']:.3f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MB, {len(p['ops'])} ops")
    for line in problems:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps({"probes": probes, "untraced": untraced, "traced": traced},
                              indent=1))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="fixes the relabelling of the schur-large Cayley tables")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "brq" / "__init__.py").is_file():
        print("error: run from the root of a brq checkout (src/brq is missing)",
              file=sys.stderr)
        return 2
    try:
        result = summarize(args.workload, args.seed, args.seconds, args.trace)
    except PassFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
