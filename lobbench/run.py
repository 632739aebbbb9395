#!/usr/bin/env python3
"""Build lobbench from the checkout's sources and run one workload.

Usage, from the root of a checkout:

    python3 lobbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the four workloads one after another and prints each
report in turn.

The first call configures and builds lobbench/ (and the simulator sources it
compiles) into $CARGO_TARGET_DIR/lobbench, default .bench_build/lobbench;
later calls rebuild incrementally. Build output goes to stderr, so stdout
carries only the benchmark's report, whose last line is the JSON result.
The exit code is the benchmark's: 0 only for a correct run.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("starburst_mix", "tree_mix", "scan_append", "small_objects")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"lobbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lobbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "lobbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]", 2)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the root of a lobstore checkout (src/ not found)", 2)
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    try:
        binary = build(os.path.join(out_root, "lobbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(out_root, "lobbench-run")]
        try:
            # stdout is captured and forwarded whole; on timeout run() kills
            # the benchmark and waits for it before raising.
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} exceeded {RUN_TIMEOUT_S} s", 124)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
