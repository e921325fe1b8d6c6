#!/usr/bin/env python3
"""Build the allocation-stack benchmark from source, then run one workload.

    python3 stackbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The allocator library (src/) and
the driver (stackbench/*.cpp) are compiled in Release mode into
$CARGO_TARGET_DIR/stackbench, or .bench_build/stackbench when that variable
is unset; an up-to-date build is reused. Build output goes to stderr and is
shown only when the build fails. The driver's stdout -- '#' summary lines
and a final JSON result line -- is passed through unchanged, and its exit
status is returned (0 = every output check passed).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir: str) -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            sys.stderr.write("stackbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "stackbench")
    if not build(build_dir):
        return 1
    driver = os.path.join(build_dir, "stackbench")
    return subprocess.run([driver] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
