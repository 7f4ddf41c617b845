#!/usr/bin/env python3
"""Builds the pipeline benchmark (once per checkout) and runs one workload.

    python3 pipebench/run.py --workload ingest_fanin --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The build lives in .bench_build (or in
$CARGO_TARGET_DIR when set); build output goes to stderr so the benchmark's
JSON result stays the last line of stdout. `--selftest` builds and runs the
benchmark's own tests instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (first time) and builds; returns False when either fails."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("pipebench: build failed", file=sys.stderr)
        return 1
    if argv[:1] == ["--selftest"]:
        return subprocess.run([os.path.join(build_dir, "pipebench_selftest")]).returncode
    binary = os.path.join(build_dir, "pipebench")
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
