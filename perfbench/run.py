#!/usr/bin/env python3
"""Builds the QCF benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
the library modules under src/, the qcf_serve daemon and the benchmark
binary into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only
check that the build is up to date. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170  # A run that has not ended by then is killed.


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "db", "CMakeLists.txt")):
        fail("no QCF sources next to perfbench/ (src/ is missing)")
    out = build_dir()
    cmake = shutil.which("cmake")
    if not cmake:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run([cmake, "-S", BENCH_DIR, "-B", out] + gen,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run([cmake, "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    out = build()
    os.chdir(ROOT)
    work = ".bench_work"
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--serve-bin", os.path.join(out, "qcf_serve"),
           "--work-dir", work]
    # Own process group, so a run that hangs is killed with any daemon it
    # started.
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("run timed out")
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    if rc != 0:
        fail("run failed with exit code %d" % rc)


if __name__ == "__main__":
    main()
