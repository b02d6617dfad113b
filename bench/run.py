"""Benchmark of the primlat CLI: one workload, one seed, one run.

    python3 bench/run.py --workload genome --seed 1 --seconds 25 --trace 0

Run from the repository root.  The run generates its inputs from the seed
under ``.bench_work/``, then drives ``primlat.cli.main(argv)`` in this one
process and thread, in a closed loop: one operation at a time, in the
seeded order.  A pass is the workload's fixed operation list; passes repeat
until ``--seconds`` have gone (at least MIN_PASSES of them).  Every
operation's exit code and output are checked.

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and it holds the
per-layer metrics of the traced passes plus the tracing overhead.  Human
readable figures go to stderr; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import speed
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden.json")
MIN_PASSES = 3
SETUP_IMPORTS = 11
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import primlat.cli; t = time.perf_counter() - t; "
    "import speed; print(t * speed.scale_now())"
)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail_percentile(ops_per_pass):
    """Highest listed percentile with at least ten operations beyond it
    in a run of MIN_PASSES passes.  p99 is not listed: on census it fell
    among garbage-collector pauses and moved by half between runs."""
    for p in (95, 90, 85, 80, 75):
        if (100 - p) * MIN_PASSES * ops_per_pass >= 1000:
            return p
    return 50


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure_setup():
    """Median time to import primlat.cli in a fresh interpreter, after one
    import that may compile the bytecode; each import is scaled by probes
    taken right after it (speed.py)."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + BENCH)
    times = []
    for k in range(SETUP_IMPORTS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if k:
            times.append(float(done.stdout))
    return statistics.median(times)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def judge(op, index, code, out, err, ctx, golden):
    """Failure reason for one operation's outcome, or None."""
    try:
        reason = op.check(code, out, err, ctx)
    except Exception as exc:  # a malformed output the check did not foresee
        reason = f"output check raised {type(exc).__name__}: {exc}"
    if reason is None and golden is not None and [code, digest(out)] != golden[index]:
        reason = f"exit {code} / stdout digest {digest(out)} differ from the pinned {golden[index]}"
    return reason


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = None
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_pass(cli, workload, golden, track, tracer=None):
    """Run every operation once; return latencies and what failed."""
    ctx, latencies, ends, failures = {}, [], [], []
    stdout_bytes = rejections = 0
    for index, op in enumerate(workload.ops):
        track.tick()
        if tracer:
            tracer.begin_op()
        code, out, err, elapsed = run_op(cli, op)
        latencies.append(elapsed)
        ends.append(time.perf_counter())
        reason = judge(op, index, code, out, err, ctx, golden)
        if reason:
            failures.append(f"{' '.join(op.argv)}: {reason}")
        elif op.rejected:
            rejections += 1
        stdout_bytes += len(out.encode())
    if workload.end_of_pass:
        failures += workload.end_of_pass(ctx)
    return {
        "latencies": latencies,
        "ends": ends,
        "failures": failures,
        "stdout_bytes": stdout_bytes,
        "rejections": rejections,
    }


def import_program():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import primlat.cli

    if not os.path.abspath(primlat.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported {primlat.cli.__file__}, not the copy under {SRC}")
    return primlat.cli


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "primlat", "cli.py")):
        print(f"bench: no program source at {SRC}/primlat; run from a full checkout", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        golden = load_golden()
        pinned = golden["workloads"][args.workload] if args.seed == golden["seed"] else None
        cli = import_program()
        result = measure(cli, workload, pinned, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".bench_work"))
    report(workload, args, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(cli, workload, golden, args, setup_s):
    tracer = spans.Tracer() if args.trace else None
    track = speed.Track()
    deadline = time.perf_counter() + args.seconds
    min_passes = 2 * MIN_PASSES - 2 if tracer else MIN_PASSES
    plain, traced, layers = [], [], []
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.reset()
            tracer.install()
        try:
            started = time.perf_counter()
            done = run_pass(cli, workload, golden, track, tracer if tracing else None)
            took = time.perf_counter() - started
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(done)
        if tracing:
            values = tracer.metrics()
            values["cli.stdout_bytes"] = done["stdout_bytes"]
            values["cli.rejections"] = done["rejections"]
            layers.append((values, set(tracer.fired)))
        if len(plain) + len(traced) >= min_passes and time.perf_counter() + took > deadline:
            break
    passes = plain + traced
    for p in passes:
        factors = [track.scale(end) for end in p["ends"]]
        p["scaled"] = [t * f for t, f in zip(p["latencies"], factors)]
        p["wall"] = sum(p["scaled"])
        p["factor"] = statistics.median(factors)
    failures = [f for p in passes for f in p["failures"]]
    latencies = [t for p in plain for t in p["scaled"]]
    tail = tail_percentile(len(workload.ops))
    result = {
        "correct": not failures,
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": len(failures),
        "failures": failures,
        "passes": (len(plain), len(traced)),
        "tail": tail,
        "raw_wall_s": sum(map(statistics.median, zip(*(p["latencies"] for p in plain)))),
        "speed": statistics.median(p["factor"] for p in plain),
    }
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_s": sum(map(statistics.median, zip(*(p["scaled"] for p in plain)))),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * percentile(latencies, tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return result
    fired = set.intersection(*(f for _, f in layers))
    missing = [span for span in workload.spans if span not in fired]
    if missing:
        result["correct"] = False
        failures.append(f"declared spans never fired: {', '.join(missing)}")
    warm = plain[1:]  # the first pass also fills the program's module-level caches
    metrics = {}
    for name, unit in spans.metric_names():
        if name == "trace.overhead":
            value = statistics.median(p["wall"] for p in traced) / statistics.median(p["wall"] for p in warm)
        else:
            value = statistics.median(
                v[name] * (p["factor"] if unit == "s" else 1) for (v, _), p in zip(layers, traced)
            )
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    result["plain_wall_s"] = statistics.median(p["wall"] for p in warm)
    result["traced_wall_s"] = statistics.median(p["wall"] for p in traced)
    return result


def report(workload, args, result):
    err = sys.stderr
    plain, traced = result["passes"]
    print(f"workload {workload.name}  seed {args.seed}  ops/pass {len(workload.ops)}  "
          f"passes {plain} plain + {traced} traced  op_tail = p{result['tail']}", file=err)
    print(f"input profile: {json.dumps(workload.profile, sort_keys=True)}", file=err)
    print(f"timings scaled by {result['speed']:.4f} to the nominal probe speed; "
          f"unscaled wall_s {result['raw_wall_s']:.4f} s", file=err)
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed, "
          f"fail_share {result['failed'] / result['attempted']:.4f} share", file=err)
    for reason in result["failures"][:10]:
        print(f"  FAILED {reason}", file=err)
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}", file=err)
    if args.trace:
        print(f"  untraced wall {result['plain_wall_s']:.4f} s, traced wall {result['traced_wall_s']:.4f} s", file=err)
        selfs = {
            m: sum(result["metrics"][f"{s}_s"]["value"] for s in spans.SPAN_NAMES if s.startswith(m + "."))
            for m in spans.MODULES
        }
        top = max(selfs, key=selfs.get)
        print(f"  largest self time: {top} ({selfs[top]:.4f} s of {sum(selfs.values()):.4f} s per pass)", file=err)


if __name__ == "__main__":
    sys.exit(main())
