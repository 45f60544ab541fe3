#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call builds the engine and
the benchmark with dune into .bench_build/ (a build directory of its
own, so it never contends with a developer's _build/).  The benchmark's
output passes through; its last line is the JSON result, checked here
against the metric lists in BENCHMARK.json.  Exits non-zero, without a
result line, when the build, the run or that check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout):
    """Runs cmd in its own process group; on timeout kills the whole
    group and waits for it.  Returns (returncode, stdout, stderr)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + "\n%s timed out after %d s\n" % (cmd[0], timeout)
    return proc.returncode, out, err


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def check_result(line, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares
    for this mode, with the declared units."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        result = json.loads(line)
    except (OSError, ValueError) as e:
        die("cannot check the result: %s" % e)
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result keys %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        die("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in got if k in want and got[k] != want[k])))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    os.makedirs(BUILD_DIR, exist_ok=True)
    code, out, err = run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                          "--profile", "release", "--cache", "disabled",
                          "./perfbench/main.exe"], BUILD_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(out + err)
        die("build failed")

    code, out, err = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         RUN_TIMEOUT_S)
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        die("run failed (exit %s)" % code)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
