#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py at --scale tiny and checks that
  * an untraced run exits 0, reports correct answers, and emits exactly the
    end_to_end metrics of BENCHMARK.json, each with its unit;
  * a traced run does the same for the per_layer metrics;
  * a run with --corrupt (one answer deliberately damaged before it is
    checked) exits non-zero and reports correct = false.
Exits 0 when every check holds; prints one line per failed check otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result, expected):
    """Differences between emitted metrics and {name: unit}."""
    problems = []
    got = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in got:
            problems.append("missing " + name)
        elif got[name].get("unit") != unit:
            problems.append("%s has unit %r, expected %r" % (name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(name + " has no numeric value")
    problems += ["unexpected " + name for name in got if name not in expected]
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []
    for w in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, e2e), (1, layers)):
            code, result, output = run(w, trace)
            tag = "%s --trace %d" % (w, trace)
            if code != 0 or result is None or result.get("correct") is not True:
                failures.append("%s: exit %d, result %s\n%s" % (tag, code, result, output[-2000:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (tag, sorted(result)))
            failures += ["%s: %s" % (tag, p) for p in check_metrics(result, expected)]
        code, result, output = run(w, 0, corrupt=True)
        if code == 0 or result is None or result.get("correct") is not False:
            failures.append("%s --corrupt: exit %d, result %s (a damaged answer must fail)"
                            % (w, code, result))
        print("checked %s" % w, flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
