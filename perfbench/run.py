#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <identify|debug|clean|learn> \\
        --seed <n> --seconds <s> --trace <0|1>

The Rust package in this directory is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); its
binary then runs with NDE_THREADS capped at two workers. The binary prints
the result as the last line of standard output; build output goes to
standard error. The exit code is the binary's, or non-zero when the build
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# Workers for nde-parallel. Capped, so that results compare across hosts
# with at least this many cores.
MAX_THREADS = 2
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    env["NDE_THREADS"] = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    run = subprocess.run(
        [str(target / "release" / "perfbench"), *sys.argv[1:]],
        cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
