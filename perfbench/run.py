#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <serve_retune|offline_round>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lives in $CARGO_TARGET_DIR (default
.bench_build) under the root; the first run configures and compiles the
library and the driver (a few minutes), later runs only check that the build
is current. The driver's output passes through unchanged: its last stdout
line is the JSON result. A traced run also writes its spans to
<build>/traces/<workload>-seed<n>.jsonl. Exits non-zero, printing no
result, when the library sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_retune", "offline_round")


def fail(message):
    sys.stderr.write("perfbench/run.py: %s\n" % message)
    sys.exit(2)


def parse(argv):
    args = {}
    if len(argv) % 2:
        fail("flags take one value each")
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown flag %s" % flag)
        args[flag] = value
    if set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("need --workload, --seed, --seconds and --trace")
    if args["--workload"] not in WORKLOADS:
        fail("unknown workload %s" % args["--workload"])
    if not args["--seed"].isdigit():
        fail("--seed must be a non-negative integer")
    if args["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return args


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "llama_system.h")):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))
    build_dir = os.path.join(build_root, "perfbench")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=log, stderr=log) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=log, stderr=log) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse(sys.argv[1:])
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    command = [binary]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        command += [flag, args[flag]]
    if args["--trace"] == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%s.jsonl" % (args["--workload"], args["--seed"]))]
    sys.stdout.flush()
    # Replace this process: the driver's exit code and output are the
    # command's, and no child outlives it.
    os.execv(binary, command)


if __name__ == "__main__":
    main()
