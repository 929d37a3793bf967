#!/usr/bin/env python3
"""Build and run the idd benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the `idd-perfbench`
package (perfbench/Cargo.toml) in release mode from the checkout's sources
into $CARGO_TARGET_DIR (default: .bench_build), runs it, checks its result
line against BENCHMARK.json and prints that line last. It exits non-zero,
without a result line, if the checkout lacks the library sources, the build
fails, or the run fails or overruns.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(command, timeout, **kwargs):
    """Runs a child to completion; on overrun kills it and waits for it."""
    with subprocess.Popen(command, cwd=ROOT, **kwargs) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            fail(f"{command[0]} overran {timeout} s")
    return child.returncode, out


def build(target_dir):
    if not (ROOT / "crates").is_dir() or not MANIFEST.is_file():
        fail(f"no library sources under {ROOT}; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr,
    )
    if code != 0:
        fail(f"build failed with exit code {code}")
    return target_dir / "release" / "idd-perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys are {sorted(result)}")
    if list(result["metrics"]) != expected_metrics(trace):
        fail("result metrics differ from BENCHMARK.json")
    if result["attempted"] < 1:
        fail("result reports no attempt")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target if target.is_absolute() else ROOT / target)
    code, out = run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
    )
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark exited with code {code}")
    check(lines[-1], args.trace == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
