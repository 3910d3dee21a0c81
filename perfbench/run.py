#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (a standalone CMake
package compiling ../src) into .bench_build/perfbench in Release mode, runs
lacc_perfbench, checks that the modeled values it pins repeat bit-identically
across runs of the same build and seed, and prints the binary's report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced pass, --trace 1 the
per-layer metrics of a traced pass.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "lacc_perfbench"
WORKLOADS = ("static-protein", "stream-inc", "serve-mixed", "analytics")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "lacc_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("benchmark build failed: " + " ".join(cmd))


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def check_pins(workload, seed, pins):
    """Compare pinned modeled values with earlier runs of this binary and
    seed; returns the names that differ."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    path = BUILD / "pins" / digest / f"{workload}-{seed}.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    differ = sorted(k for k, v in pins.items() if k in known and known[k] != v)
    merged = {**pins, **known}
    if merged != known:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
        tmp.replace(path)
    return differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    spans = BUILD / "spans" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"lacc_perfbench exited with code {proc.returncode}")
    raw = json.loads(lines[-1])

    wanted = expected_metrics(args.trace)
    if wanted is not None and sorted(wanted) != sorted(raw["metrics"]):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(wanted) ^ set(raw['metrics']))}")

    for line in lines[:-1]:
        print(line)
    correct, failed = raw["correct"], raw["failed"]
    for error in raw["errors"]:
        print(f"FAILED: {error}")
    differ = check_pins(args.workload, args.seed, raw["pins"])
    if differ:
        correct = False
        failed += len(differ)
        print("FAILED: modeled values differ from an earlier run of this "
              f"build and seed: {', '.join(differ)}")
    elif raw["pins"]:
        print(f"determinism: {len(raw['pins'])} pinned modeled values agree "
              "with every earlier run of this build and seed")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": min(failed, raw["attempted"]),
                      "metrics": raw["metrics"]}))


if __name__ == "__main__":
    main()
