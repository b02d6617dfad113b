"""Run the benchmark over several workloads and seeds and summarise it.

    python3 bench/report.py                       # every workload, seed 1
    python3 bench/report.py --seeds 1-10 --out runs.json
    python3 bench/report.py --workloads census --seeds 1-5 --trace 1

Each run is a fresh ``run.py`` process.  For every metric the table gives
the median over the seeds, the quartiles as ``statistics.quantiles(n=4)``
computes them, and their distance as a share of the median next to the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    largest = [line.strip() for line in done.stderr.splitlines() if "largest self time" in line]
    return result, largest


def summarise(name, runs, bounds):
    print(f"\n{name}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} operations, "
          f"{sum(r['failed'] for r in runs)} failed, all correct: {all(r['correct'] for r in runs)}")
    print(f"  {'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric, first in runs[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(metric)
        flag = "" if bound is None else f"{bound:6.2f}" + ("  WIDE" if spread > bound / 3 else "")
        print(f"  {metric:28s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {flag}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--seeds", type=seeds, default=[workloads.DEFAULT_SEED])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, largest = run_once(name, seed, seconds, args.trace)
            runs.append(result)
            print(f"{name} seed {seed}: correct {result['correct']}, {result['failed']} failed"
                  + (f"; {largest[0]}" if largest else ""), flush=True)
        summarise(name, runs, bounds)
        everything[name] = {"seeds": args.seeds, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "trace": args.trace, "workloads": everything}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
