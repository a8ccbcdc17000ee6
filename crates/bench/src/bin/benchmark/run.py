#!/usr/bin/env python3
"""Build the FaaSFlow benchmark from source and run one workload.

Run from the repository root:

    python3 crates/bench/src/bin/benchmark/run.py \
        --workload paper7-mix --seed 1 --seconds 15 --trace 0

The benchmark is the `benchmark` binary of the `faasflow-bench` package.
It is built twice in release mode, under the target directory
(`$CARGO_TARGET_DIR`, default `target`): once plain, which measures the
end-to-end metrics (`--trace 0`), and once under `loop-profile/` with
`--features faasflow-core/loop-profile`, which times every event handler
and measures the per-layer metrics (`--trace 1`). A per-layer run first
runs the plain build once per replica on the same seed; the profiled run
must reproduce its report digest, and gets the rest of the time budget.
The last line of standard output is the result JSON.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     *[os.pardir] * 5))
MANIFEST = os.path.join(ROOT, "Cargo.toml")


def build(target_dir, *extra):
    """Builds the benchmark into `target_dir` and returns the executable."""
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", MANIFEST, "--target-dir", target_dir,
         "-p", "faasflow-bench", "--bin", "benchmark", *extra],
        stdout=sys.stderr, check=True)
    return os.path.join(target_dir, "release", "benchmark")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target")))
    # Both builds every time: a no-op once built, so the first run of a
    # checkout pays for both, whichever kind it is.
    try:
        plain = build(target)
        profiled = build(os.path.join(target, "loop-profile"),
                         "--features", "faasflow-core/loop-profile")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    common = ["--workload", args.workload, "--seed", args.seed]
    if args.trace == "0":
        return subprocess.run(
            [plain, *common, "--seconds", str(args.seconds), "--trace", "0"]).returncode

    started = time.monotonic()
    baseline = subprocess.run(
        [plain, *common, "--seconds", "1e-9", "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    sys.stderr.write(baseline.stdout)
    if baseline.returncode != 0:
        return baseline.returncode
    fnv = next(line.split()[1] for line in baseline.stdout.splitlines()
               if line.startswith("report_fnv64 "))
    remaining = max(args.seconds - (time.monotonic() - started), 1e-9)
    return subprocess.run(
        [profiled, *common, "--seconds", str(remaining), "--trace", "1",
         "--plain-fnv", fnv]).returncode


if __name__ == "__main__":
    sys.exit(main())
