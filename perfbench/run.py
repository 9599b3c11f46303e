#!/usr/bin/env python3
"""Build and run the mixradix benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 20 --trace 0

Builds the library and the perfbench program from source with CMake into
$CARGO_TARGET_DIR (default .bench_build) in the repository root, then runs
one workload. The last line of standard output is the result JSON object.
Extra flags (--smoke, --perturb-reference) are passed to the program
unchanged. Exits 2 without a result when the
library sources are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message, code):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (step[:2], err), 1)
            if done.returncode != 0:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path, 1)
    return os.path.join(out, "perfbench")


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    text = done.stdout.strip()
    return text if done.returncode == 0 and text else "none"


def flag_value(args, flag, default):
    if flag in args:
        index = args.index(flag)
        if index + 1 < len(args):
            return args[index + 1]
    return default


def main():
    args = sys.argv[1:]
    for needed in ("src/CMakeLists.txt", "include/mixradix"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library sources not found (%s missing)" % needed, 2)
    out = build_dir()
    binary = build(out)
    command = [binary] + args + ["--git", git_describe()]
    if flag_value(args, "--trace", "0") == "1":
        name = "trace_%s_seed%s.json" % (flag_value(args, "--workload", "x"),
                                         flag_value(args, "--seed", "default"))
        command += ["--trace-out", os.path.join(out, name)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
