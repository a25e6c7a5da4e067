#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload tokenb-oltp-64 --seed 1 \
        --seconds 10 --trace 0

Every option is forwarded to the benchmark binary, which parses and
validates them (see README.md). The binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative
to the repository root); build output goes to stderr so that the last
line of stdout is the benchmark's JSON result. Traced runs write their
span files under the same build directory, in out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2e")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "system.hh")):
        print("run.py: the simulator sources (src/) are missing next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "out")
    sys.stdout.flush()
    # Replace this process: the binary's exit code and stdout are the
    # benchmark's, and no child is left behind.
    os.execv(binary, [binary] + sys.argv[1:] + ["--out", out_dir])


if __name__ == "__main__":
    sys.exit(main())
