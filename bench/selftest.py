"""Self-test of the benchmark.

    python3 bench/selftest.py                  # check
    python3 bench/selftest.py --write-golden   # re-pin the default-seed outputs

The check runs one pass of every workload on the default seed and requires
each operation's exit code and stdout digest to match ``golden.json``; it
then alters one captured output per workload and requires that to count
as a failure; last, it runs ``run.py`` on one workload in both modes and
requires every metric named in BENCHMARK.json, with its unit.
Pin the digests only from a commit whose CLI output is known to be right.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run
import workloads


def one_pass(name, golden):
    """One default-seed pass: the workload, its failures, each outcome."""
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_selftest-") as workdir:
        workload = workloads.build(name, workloads.DEFAULT_SEED, workdir)
        cli = run.import_program()
        ctx, outcomes, failures = {}, [], []
        for index, op in enumerate(workload.ops):
            code, out, err, _ = run.run_op(cli, op)
            reason = run.judge(op, index, code, out, err, ctx, golden)
            if reason:
                failures.append(f"{' '.join(op.argv)}: {reason}")
            outcomes.append((op, index, code, out, err))
        if workload.end_of_pass:
            failures += workload.end_of_pass(ctx)
        return workload, failures, outcomes, ctx


def write_golden():
    pinned = {}
    for name in workloads.NAMES:
        _, failures, outcomes, _ = one_pass(name, None)
        if failures:
            sys.exit(f"{name}: refusing to pin failing outputs: {failures[:3]}")
        pinned[name] = [[code, run.digest(out)] for _, _, code, out, _ in outcomes]
    lines = ['{"seed": %d, "workloads": {' % workloads.DEFAULT_SEED]
    for k, (name, rows) in enumerate(pinned.items()):
        body = ",\n".join("  " + json.dumps(row) for row in rows)
        lines.append(f'"{name}": [\n{body}\n]' + ("," if k < len(pinned) - 1 else ""))
    lines.append("}}")
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"pinned {sum(map(len, pinned.values()))} operations in {run.GOLDEN}")


def altered(out):
    """The same output with one character changed in its last line."""
    if not out:
        return "x"
    k = out.rstrip("\n").rfind("\n") + 1
    ch = out[k]
    return out[:k] + ("1" if ch != "1" else "2") + out[k + 1 :]


def check_golden_and_alteration():
    golden = run.load_golden()
    problems = []
    for name in workloads.NAMES:
        pinned = golden["workloads"][name]
        workload, failures, outcomes, ctx = one_pass(name, pinned)
        if failures:
            problems.append(f"{name}: default-seed pass failed: {failures[:3]}")
        for op, index, code, out, err in outcomes:
            if op.kind == outcomes[0][0].kind and out:
                bad = altered(out)
                if run.judge(op, index, code, bad, err, ctx, pinned) is None:
                    problems.append(f"{name}: altered output of {op.argv} was accepted")
                if run.judge(op, index, code, bad, err, {**ctx}, None) is None:
                    print(f"note: {name}: the seed-independent check alone accepts the altered output of {op.argv[0]}")
                break
        print(f"{name}: {len(workload.ops)} operations match the pinned digests; altered output rejected")
    return problems


def check_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", "census",
             "--seed", "2", "--seconds", "1", "--trace", str(mode)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        if printed != wanted:
            problems.append(f"--trace {mode}: printed {sorted(set(printed.items()) ^ set(wanted.items()))}")
        if not result["correct"] or result["failed"]:
            problems.append(f"--trace {mode}: run not correct: {done.stderr[-500:]}")
        print(f"--trace {mode}: {len(printed)} metrics printed with their units")
    return problems


def main(argv):
    if argv == ["--write-golden"]:
        write_golden()
        return 0
    problems = check_golden_and_alteration() + check_metric_names()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
