#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build goes to .bench_build/perfbench
(configured once, rebuilt when a source changes); its output goes to
stderr, so the last line on stdout is the benchmark's JSON result.  Exits
non-zero without a result when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "2"], check=True,
                   stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("BJRW_TOPOLOGY", None)  # the run uses the detected topology
    env.pop("BJRW_TEST_SEED", None)  # inputs come from --seed alone
    return subprocess.run([BINARY] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
