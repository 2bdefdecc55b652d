#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload query|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The harness is built from source with
dune into .bench_build (release profile, dune cache off, so nothing is
written outside the checkout), then run with its working and results
directory at .perfbench. Its standard output is relayed unchanged: the
last line is the result JSON {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, without a result, when the checkout does not
hold the program or the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".perfbench"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["query", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: no program to measure here (run from the root of a checkout)")

    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    target = "./" + os.path.join(here, "perfbench.exe")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "-j", "2", target],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.exit("perfbench: build failed")

    exe = os.path.join(BUILD_DIR, "default", here, "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", WORK_DIR]
    # its own process group, so a timeout also stops the part it is running
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for _ in range(200):  # until the part process is gone as well
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        for name in os.listdir(WORK_DIR):
            if name.startswith("work-"):
                shutil.rmtree(os.path.join(WORK_DIR, name), ignore_errors=True)
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
