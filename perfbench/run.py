#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload bulk|characterize \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the libraries under src/ it compiles) into
.bench_build/perfbench, runs lc_perfbench in .bench_build/work, and relays
its report. With --trace 1 the spans go to .bench_build/traces/ and the
per-layer ledger (ledger.py) is printed before the result. The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"}.

Outputs pinned for a seed in perfbench/pins.json are checked here: a
mismatch is a failed check. A seed pins.json does not cover is reported on
stderr, and its compression ratio is checked against the lowest pinned
ratio of the workload instead. Exit status: 0 when every check passed, 1 when
one failed, 2 when the benchmark could not be built or run (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "lc_perfbench")
WORKLOADS = ["bulk", "characterize"]
RUN_TIMEOUT_S = 170
# A pinned compression ratio may drop by at most this share: framing bytes
# may change with the container format; a codec that trades ratio for
# speed may not.
RATIO_SLACK = 0.005


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build() -> str:
    """Configure (once) and build lc_perfbench; return the binary path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", os.path.join(BUILD, "perfbench"),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", os.path.join(BUILD, "perfbench"), "-j", jobs,
         "--target", "lc_perfbench"],
    ]
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                die(f"build failed (see {log_path})")
    return BINARY


def check_pins(workload: str, seed: int,
               detail: dict) -> tuple[int, list[str]]:
    """Compare the run's pinned outputs with pins.json.

    Returns the number of pinned values checked and the failures."""
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as f:
        pins = json.load(f)[workload]
    want = pins.get(str(seed))
    if want is None:
        floor = min(p["compression_ratio"] for p in pins.values())
        print(f"perfbench: seed {seed} is not pinned in pins.json; checking "
              f"only that compression_ratio >= {floor} (lowest pinned)",
              file=sys.stderr)
        want = {"compression_ratio": floor}
    got = dict(detail.get("pins", {}), input_digest=detail["input_digest"])
    failures = []
    for key, expect in want.items():
        have = got.get(key)
        if key == "compression_ratio":
            ok = have is not None and have >= expect * (1 - RATIO_SLACK)
        else:
            ok = have == expect
        if not ok:
            failures.append(f"pinned {key} for seed {seed}: "
                            f"expected {expect}, got {have}")
    return len(want), failures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    work = os.path.join(BUILD, "work")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"lc_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        detail = json.loads(next(ln for ln in lines if
                                 ln.startswith("PERFBENCH-DETAIL "))
                            .split(" ", 1)[1])
    except (ValueError, StopIteration):
        sys.stderr.write(proc.stdout)
        die(f"lc_perfbench exited {proc.returncode} without a result")
    if proc.returncode not in (0, 1):
        die(f"lc_perfbench exited {proc.returncode}")

    checked, failures = check_pins(args.workload, args.seed, detail)
    result["attempted"] += checked
    result["failed"] += len(failures)
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
        result["correct"] = False

    print("\n".join(lines[:-1]))
    if args.trace:
        sys.path.insert(0, HERE)
        import ledger
        ledger.print_ledger(spans)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
