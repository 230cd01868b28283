#!/usr/bin/env python3
"""Builds the release `sega-dcim` CLI and the perfbench harness from
source, then runs one benchmark workload.

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 15 --trace 0

Cargo writes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). The harness prints the result object as the last line
of stdout; this script exits non-zero, printing no result, when either
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Build output goes to stderr: stdout carries only the harness's lines.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    if not (build(os.path.join(ROOT, "Cargo.toml"), "-p", "sega-dcim", "--bin", "sega-dcim")
            and build(os.path.join(HERE, "Cargo.toml"))):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    os.chdir(ROOT)
    argv = [harness, "--bin", os.path.join(release, "sega-dcim"), *sys.argv[1:]]
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
