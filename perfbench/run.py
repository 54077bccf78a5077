#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload small_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The build goes to .bench_build/cmake and is incremental after the first run.
Build output goes to standard error; the benchmark's standard output ends with
the one-line JSON result. Exits non-zero, printing no result, when the
build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "cmake"


def build() -> bool:
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main() -> int:
    if not build():
        return 3
    args = sys.argv[1:]
    if args == ["--self-test"]:
        program = BUILD / "perfbench_selftest"
        argv = [str(program)]
    else:
        program = BUILD / "perfbench"
        argv = [str(program)] + args + ["--work-dir", str(WORK)]
    sys.stdout.flush()
    os.execv(str(program), argv)


if __name__ == "__main__":
    sys.exit(main())
