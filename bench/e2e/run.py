#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 bench/e2e/run.py --workload nus-mbt --seed 1 --seconds 25 --trace 0

The project under bench/e2e is configured into build/e2e (Release) on first
use and brought up to date on every call; build output goes to stderr. The
run itself is `build/e2e/hdtn_bench`, whose stdout is passed through: one
`workload metric value unit` line per metric, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics; a run whose metric names differ from BENCHMARK.json is
reported as incorrect. The full result, stamped with the environment, is
also written to build/e2e/out/result-<workload>-s<seed>-t<trace>.json for
compare.py.

Exits non-zero, without a result line, when the build fails, and non-zero
with "correct": false when a check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
# Every repetition ends well inside this; a run past it is hung.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(
        out_dir, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    command = [os.path.join(BUILD, "hdtn_bench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--json={result_path}"]
    if args.trace:
        command.append("--trace")
    # A session of its own lets a hung run be stopped with every process it
    # started (repetitions, the service daemon and its workers).
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: hdtn_bench printed no result", file=sys.stderr)
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        print("run.py: metric names differ from BENCHMARK.json",
              file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if child.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
