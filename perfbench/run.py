#!/usr/bin/env python3
"""Builds and runs the live-TCP DCWS benchmark.

    python3 perfbench/run.py --workload lod_browse --seed 1 --seconds 40 --trace 0

Run from the repository root.  The first call configures and compiles
perfbench/ (the dcws library from src/ plus dcws_tcp_bench) into
.bench_build/; later calls only rebuild what changed.  Build output
goes to stderr, so dcws_tcp_bench's last stdout line -- one JSON object --
stays the last line.  Exits non-zero without a result when the sources
are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dcws_tcp_bench")
# dcws_tcp_bench stops after its window; this only guards a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "server.h")):
        print("perfbench: no dcws sources under %s/src" % ROOT,
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=env).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
