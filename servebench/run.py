#!/usr/bin/env python3
"""Build the program and run one workload of the serving-stack benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 servebench/run.py --selftest

The program is configured and built from source into .bench_build/ at the
repository root on first use (later runs rebuild incrementally); build
output goes to stderr. The run's report goes to stdout and its last line is
one JSON object with the keys correct, attempted, failed and metrics. A
traced run (--trace 1) also writes its step and request spans to
.bench_out/<workload>-seed<n>.trace.json. --selftest builds and runs the
benchmark's own tests.

TENDER_* variables are removed from the program's environment, so the
program runs on its defaults: defaultKernels() picks the backend and the
worker count is the hardware thread count.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("tender_weights_decode", "chat_serve", "long_context_spec")
RUN_TIMEOUT_S = 170


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the program's sources (CMakeLists.txt, src/) are not next to "
             "the benchmark; run from a checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def program_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("TENDER_")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        tests = build("servebench_tests")
        sys.exit(subprocess.run([tests], cwd=ROOT, env=program_env()).returncode)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    binary = build("servebench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=program_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
