#!/usr/bin/env python3
"""Runs one workload of the crawl benchmark.

    python3 crawlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds the benchmark binary
from source into .bench_build/crawlbench (CMake, the repository's default
RelWithDebInfo build type; the first run compiles the library, later runs
only check that the build is current), then runs the workload in its own
process. The workload prints its run record and, as the last line of
standard output, its result object. Build output goes to standard error.
The exit status is the workload's, or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "crawlbench")
WORK_DIR = os.path.join(".bench_build", "work")
# Each workload ends well inside this; a run that does not is stopped, so
# the benchmark never hangs whoever called it.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "crawlbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "crawlbench")


def main(argv):
    binary = build()
    if binary is None:
        print("crawlbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([binary, *argv, "--workdir", WORK_DIR])
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"crawlbench: workload exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
