#!/usr/bin/env python3
"""Repository benchmark: builds perfbench's `pb` binary from source and
runs one workload.

    python3 perfbench/run.py --workload rpc_spread --seed 1 --seconds 10 --trace 0

Run from the repository root.  Prints a host fingerprint, one
`metric <name> <value> <unit>` line per metric, and as the last line a
JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace under .bench_build/traces/).
Workloads and metrics are described in perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("rpc_spread", "rpc_wake", "rpc_durable", "engine_broadcast")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds `pb`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "monotonic", "server", "server.hpp")):
        die("library sources not found under %s/src; run from a full checkout" % ROOT, 2)
    if shutil.which("cmake") is None:
        die("cmake not found", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            die("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "pb", "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        die("build failed", 3)
    return os.path.join(BUILD_DIR, "pb")


def tree_hash():
    """sha256 over the sources the benchmark builds (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git = "none"
    print("host nproc=%d cpu=%r git=%s tree=%s workload=%s seed=%d seconds=%d trace=%d"
          % (os.cpu_count() or 0, cpu, git, tree_hash(), args.workload, args.seed,
             args.seconds, args.trace), flush=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1", 2)

    pb = build()
    fingerprint(args)
    os.chdir(ROOT)
    # Relative paths keep the server's socket path short.
    work = os.path.join(".bench_build", "work", str(os.getpid()))
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [pb, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    # Own process group, so a timeout takes the server child down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        die("run exceeded %ds" % RUN_TIMEOUT_S, 4)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # nothing may outlive the run
    except ProcessLookupError:
        pass
    shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        die("pb exited with %d and no result" % proc.returncode, 5)
    result = json.loads(lines[-1])
    missing = [m for m in expected_metrics(args.trace) if m not in result["metrics"]]
    if missing:
        sys.stdout.write(out)
        die("result lacks metrics: " + ", ".join(missing), 5)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
