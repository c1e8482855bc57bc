#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ in release mode, offline,
into $CARGO_TARGET_DIR (default: .bench_build), runs it with the given
arguments and passes its standard output through. The last line of that
output is the JSON result; its metric names are checked against
BENCHMARK.json. Exits non-zero without printing a result when the build
fails, the run fails or overruns, or the result does not match.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run still going after this long counts as hung and is killed.
RUN_TIMEOUT_S = 165


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    build = subprocess.run(cargo, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"run failed with code {run.returncode}")

    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        sys.stderr.write(run.stdout)
        fail(f"last line is not a JSON result: {e}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = args[args.index("--trace") + 1] == "1"
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        sys.stderr.write(run.stdout)
        fail(f"metrics differ from BENCHMARK.json: got {sorted(set(got) ^ set(units))} apart")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
