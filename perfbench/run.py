#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake project over ../src) into .bench_build at the
repository root, then runs the untraced program (--trace 0, end-to-end
metrics) or the traced one (--trace 1, per-layer metrics). The program's
output is passed through; its last line is one JSON object whose metric
names are checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build(build_dir):
    """Configures once, then lets CMake rebuild whatever changed."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "perfbench_traced"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload '{args.workload}'")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no library sources under {ROOT}/src to build the benchmark from")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    program = "perfbench_traced" if args.trace else "perfbench"
    run = subprocess.run(
        [os.path.join(build_dir, program), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--work-dir", os.path.join(build_dir, "work")],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    if run.returncode != 0:
        sys.stdout.write(lines[-1] + "\n")
        return fail(f"{program} exited with code {run.returncode}", 1)

    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("the program's last line is not JSON", 3)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result.get("metrics", {})) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 3)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
