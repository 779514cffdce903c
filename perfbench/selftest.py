#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py                 # run every check
    python3 perfbench/selftest.py --record-pins 1,2,3

Checks:
  * every name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and is unique;
  * for every workload, a --trace 0 run emits exactly the end-to-end
    metrics and a --trace 1 run exactly the per-layer metrics, each with
    its declared unit, and both pass their correctness checks;
  * the traced run's span file passes scripts/trace_summary.py (when the
    checkout has it) and its codec split fits within the wall time;
  * the same seed gives the same input digest, another seed another one;
  * negative control: --inject-fault (one flipped container byte in bulk,
    one perturbed output digest in characterize) is counted as a failure, exits 1 and still prints a
    result instead of crashing.
--record-pins rewrites pins.json from runs at the given seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import ledger  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKDIR = os.path.join(run.BUILD, "work")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(binary: str, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([binary, *args], cwd=WORKDIR, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=300)
    return proc.returncode, proc.stdout.strip().split("\n")


def check_names(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(NAME.match(n) for n in names), "every name is well formed")
    expect(len(names) == len(set(names)), "every name is used once")


def check_metrics(binary: str, spec: dict, workload: str, secs: str) -> None:
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        spans = os.path.join(run.BUILD, "traces", f"selftest-{workload}.json")
        rc, lines = bench(binary, "--workload", workload, "--seed", "5",
                          "--seconds", secs, "--trace", trace, "--spans",
                          spans)
        result = json.loads(lines[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(rc == 0 and result["correct"] and result["failed"] == 0,
               f"{workload} --trace {trace} passes its checks")
        expect(got == want, f"{workload} --trace {trace} emits every "
                            f"{key} metric with its unit")
        if trace == "1":
            summary = os.path.join(ROOT, "scripts", "trace_summary.py")
            if os.path.exists(summary):
                ok = subprocess.run([sys.executable, summary, spans],
                                    stdout=subprocess.DEVNULL).returncode == 0
                expect(ok, f"{workload} spans pass trace_summary.py")
            expect(ledger.print_ledger(spans),
                   f"{workload} ledger: codec split parts fit within the "
                   f"wall time")


def check_digests(binary: str, workload: str) -> None:
    def digest(seed: str) -> str:
        _, lines = bench(binary, "--workload", workload, "--seed", seed,
                         "--seconds", "1", "--trace", "0", "--digest-only")
        return lines[-1].split()[-1]

    a, b, c = digest("7"), digest("7"), digest("8")
    expect(a == b, f"{workload}: same seed, same input digest ({a})")
    expect(a != c, f"{workload}: other seed, other input digest ({c})")


def check_negative(binary: str, workload: str) -> None:
    rc, lines = bench(binary, "--workload", workload, "--seed", "3",
                      "--seconds", "1", "--trace", "0", "--inject-fault")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    expect(rc == 1 and result.get("correct") is False and
           result.get("failed", 0) > 0,
           f"{workload}: injected fault is counted (failed="
           f"{result.get('failed')}, exit {rc}), no crash")


def record_pins(binary: str, seeds: list[str]) -> None:
    pins: dict = {}
    for workload in run.WORKLOADS:
        for seed in seeds:
            rc, lines = bench(binary, "--workload", workload, "--seed", seed,
                              "--seconds", "1", "--trace", "0",
                              "--digest-only")
            if rc != 0:
                sys.exit(f"selftest: {workload} seed {seed} failed")
            pinned = json.loads(lines[-2].split(" ", 1)[1])
            pins.setdefault(workload, {})[seed] = dict(
                pinned, input_digest=lines[-1].split()[-1])
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=2)
        f.write("\n")
    print(f"wrote pins.json for seeds {','.join(seeds)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record-pins", metavar="SEEDS")
    ap.add_argument("--seconds", default="2")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    binary = run.build()
    os.makedirs(WORKDIR, exist_ok=True)
    os.makedirs(os.path.join(run.BUILD, "traces"), exist_ok=True)
    if args.record_pins:
        record_pins(binary, args.record_pins.split(","))
        return
    check_names(spec)
    for workload in run.WORKLOADS:
        print(f"{workload}:")
        check_digests(binary, workload)
        check_negative(binary, workload)
        check_metrics(binary, spec, workload, args.seconds)
    print(f"selftest: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
