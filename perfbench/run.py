#!/usr/bin/env python3
"""Build the benchmark and the program it measures from source, then run it.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Run from the repository root. Cargo builds offline into $CARGO_TARGET_DIR
(default: .bench_build), with its progress on stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
if the build or the run fails.

The run is pinned to one CPU (the highest-numbered one this process may
use): in a VM, a request handed from the client thread to a server thread
on another, idle vCPU waits for that vCPU to wake, and how long depends on
the host's load. On one CPU every hand-off is a local context switch.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "aggview-perfbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
