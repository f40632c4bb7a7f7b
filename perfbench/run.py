#!/usr/bin/env python3
"""Builds and runs one workload of the coverage benchmark.

    python3 perfbench/run.py --workload audit-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
library, coverage_server and the runner into .bench_build (or
$CARGO_TARGET_DIR when set); later runs rebuild incrementally. The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. Before
it come the runner's report lines and a fingerprint line (machine, build,
commit, seed). The exit code is non-zero on a build failure or on any wrong
answer. --scale tiny and --corrupt exist for perfbench/selftest.py.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit-batch", "serve-mixed", "ingest-window")
RUNNER_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds; returns True on success."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(os.path.join(bdir, "CMakeFiles"), ignore_errors=True)
                cache = os.path.join(bdir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", bdir, "-j", jobs, "--target",
               "perfbench_runner", "coverage_server"]
        return subprocess.call(cmd, stdout=log, stderr=log) == 0


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds, so runs from checkouts
    without git history can still be told apart."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) when unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def fingerprint(bdir, args):
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            text = f.read()
        m = re.search(r"^model name\s*:\s*(.*)$", text, re.M)
        model = m.group(1).strip() if m else model
        m = re.search(r"^flags\s*:\s*(.*)$", text, re.M)
        present = set(m.group(1).split()) if m else set()
        flags = [f for f in ("sse4_2", "popcnt", "avx", "avx2", "bmi2", "avx512f",
                             "avx512bw", "avx512vl", "avx512_vpopcntdq") if f in present]
    except OSError:
        pass
    compiler = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "isa_flags": flags,
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        # serve-mixed unsets this for coverage_server; note server_io_model
        # (when present) is the transport the server reported.
        "coverage_io_model_env": os.environ.get("COVERAGE_IO_MODEL", "unset"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        sys.stderr.write("perfbench: build failed; see %s\n" % os.path.join(bdir, "build.log"))
        return 3

    workdir = os.path.join(bdir, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [os.path.join(bdir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", workdir,
           "--server-binary", os.path.join(bdir, "coverage", "coverage_server")]
    if args.corrupt:
        cmd.append("--corrupt")
    steal0, total0 = cpu_times()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: runner timed out\n")
        return 4
    finally:
        spans = os.path.join(workdir, "spans.json")
        results = os.path.join(bdir, "results")
        os.makedirs(results, exist_ok=True)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(results, stem + "-spans.json"))
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        sys.stderr.write("perfbench: the runner printed no result (exit %d)\n" % proc.returncode)
        sys.stdout.write(proc.stdout)
        return proc.returncode or 5

    fp = fingerprint(bdir, args)
    steal1, total1 = cpu_times()
    # CPU time the hypervisor gave to other guests during the run: on a
    # virtual machine a high share means the run measured the host, not
    # the code.
    report = ["report %s host_steal_share = %.4g ratio" % (
        args.workload, (steal1 - steal0) / max(1, total1 - total0))]
    for line in lines[:-1]:
        if line.startswith("note "):
            name, _, value = line[len("note "):].partition(" = ")
            fp[name] = value
        else:
            report.append(line)
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"fingerprint": fp, "report": report, "result": result}, f, indent=1)
    for line in report:
        print(line)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
