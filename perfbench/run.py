#!/usr/bin/env python3
"""The repository's end-to-end benchmark: build, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the
repository's libraries and shipped binaries plus the perfbench binary)
into .bench_build; later calls rebuild only what changed.  Build output
goes to stderr.  The perfbench binary's stdout is relayed unchanged:
every metric with its unit, the host fingerprint and sample counts, then
the one-line JSON result last.  Workloads and metrics:
perfbench/README.md.

Exit status: 0 with a result line; non-zero, with no result line, when
the sources are missing, the build fails, or the run fails or overruns.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve_small", "sweep_fit", "analyze_tree")
RUN_LIMIT_S = 175.0  # A run must end within 180 s of its start.
BUILD_LIMIT_S = 880.0
BUILD_DIR = ".bench_build"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, limit_s):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=limit_s, check=False)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd), 1)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd), 1)


def build(out_dir, deadline):
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        run_checked(["cmake", "-S", "perfbench", "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator,
                    max(1.0, deadline - time.monotonic()))
    jobs = str(len(os.sched_getaffinity(0)))
    run_checked(["cmake", "--build", out_dir, "--parallel", jobs, "--target",
                 "perfbench", "perfbench_selftest", "rme_served", "rme_analyze"],
                max(1.0, deadline - time.monotonic()))


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def run_child(cmd, limit_s):
    """Runs perfbench in its own process group; returns (code, stdout).

    On timeout, or if this process is told to stop, the whole group is
    killed and reaped, so no daemon outlives the run.
    """
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                             start_new_session=True)

    def stop(signum, _frame):
        _kill_group(child)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        _kill_group(child)
        fail("run exceeded %.0f s" % limit_s, 1)
    return child.returncode, out.decode("utf-8", "replace")


def _kill_group(child):
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    # A killed run cannot remove its pid-scoped scratch directory.
    shutil.rmtree(os.path.join(".perfbench_run", str(child.pid)),
                  ignore_errors=True)
    try:
        os.rmdir(".perfbench_run")
    except OSError:
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="run the tests of the benchmark's own logic")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for needed in ("CMakeLists.txt", "src/rme", "tools",
                   "tests/golden/session_i7.rmea", "perfbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            fail("run from the repository root: '%s' is missing" % needed)

    start = time.monotonic()
    out_dir = BUILD_DIR
    build(out_dir, start + BUILD_LIMIT_S)

    if args.selftest:
        code = subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                              check=False).returncode
        sys.exit(code)

    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--bin", os.path.join(out_dir, "rme", "tools")]
    code, out = run_child(cmd, RUN_LIMIT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        valid = False
    if code != 0 or not valid:
        sys.stderr.write(out)
        fail("perfbench failed (exit %d) or printed no result" % code, 1)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
