#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload profile-churn --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see README.md). The
build goes to $CARGO_TARGET_DIR, or `.bench_build` when that is unset;
build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. `--out FILE` additionally appends a
record for `compare.py`, stamped with the git revision when there is one.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=HERE,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--out" in args and "--rev" not in args:
        args += ["--rev", git_rev()]
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
