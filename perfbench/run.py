#!/usr/bin/env python3
"""Serving benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload steady|drift|pool --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call in a checkout builds the
library tree and the benchmark binary into the build directory
($CARGO_TARGET_DIR when set, else .bench_build) and trains the deployment's
policy once into a checkpoint kept beside that build; later calls reuse
both. The last line of standard output is the binary's JSON result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady", "drift", "pool")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def child_env():
    # The deployment is pinned: no caller MURMUR_* knob reaches the binary.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MURMUR_")}
    env["MURMUR_LOG_LEVEL"] = "warn"
    # glibc's default of one heap arena per concurrent thread makes peak RSS
    # and wall time depend on which threads happened to allocate first; two
    # arenas keep both repeatable from run to run.
    env["MALLOC_ARENA_MAX"] = "2"
    return env


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path, env):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT)
    return proc.returncode == 0


def tail(path, n=30):
    with open(path) as f:
        return "".join(f.readlines()[-n:])


def prepare(out, env):
    """Build the binary and train the checkpoint once per build tree."""
    binary = os.path.join(out, "murmur_perfbench")
    cache = os.path.join(out, "work", "cache")
    os.makedirs(cache, exist_ok=True)
    log = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            if not run_logged(["cmake", "-S", HERE, "-B", out,
                               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, env):
                raise RuntimeError("configure failed:\n" + tail(log))
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        if not run_logged(["cmake", "--build", out, "-j", jobs], log, env):
            raise RuntimeError("build failed:\n" + tail(log))
        if not any(f.endswith(".ckpt") for f in os.listdir(cache)):
            if not run_logged([binary, "train", "--cache-dir", cache], log,
                              env):
                raise RuntimeError("training failed:\n" + tail(log))
    return binary, cache


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no library sources under %s/src; run from a full "
                    "checkout" % ROOT)

    env = child_env()
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    try:
        binary, cache = prepare(out, env)
    except (OSError, RuntimeError) as e:
        return fail(str(e))

    if args.selftest:
        return subprocess.run([binary, "selftest", "--cache-dir", cache],
                              env=env, cwd=ROOT).returncode

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache-dir", cache,
           "--out-dir", os.path.join(out, "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return fail("benchmark binary exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("benchmark binary printed no result line")
    if set(result) != RESULT_KEYS:
        return fail("malformed result line")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
