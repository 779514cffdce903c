#!/usr/bin/env python3
"""Noise report: run the benchmark repeatedly and show how steady it is.

Usage (from the root of a checkout):
    python3 perfbench/noise.py [--workloads bulk,characterize] \\
        --runs 10 [--first-seed 1] [--seconds S] [--save runs.json]
    python3 perfbench/noise.py --load runs.json

Each run is a separate `run.py --trace 0` process with its own seed. For
every end-to-end metric of every workload the report prints:
  * the median over runs, and the spread between processes: the distance
    between the first and third quartile (statistics.quantiles, n=4) as a
    share of the median — the figure the benchmark's bounds apply to;
  * the metric's bound from BENCHMARK.json and whether the spread is below
    a third of it;
  * the within-run spread: the median over runs of each run's own
    quartile distance across its samples (lc_perfbench's PERFBENCH-DETAIL
    line), so drift between processes can be told from noise inside one;
and per workload the host steal-time share of every run, so a noisy run
can be attributed to the host, and the spread of the raw wall time of both
phases (steal included), which the gated steady times leave out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().split("\n")
    detail = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
                  if ln.startswith("PERFBENCH-DETAIL "))
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def report(runs: list[dict], bench: dict) -> bool:
    steady = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        bad = [r["seed"] for r in mine
               if r["exit"] != 0 or not r["result"]["correct"]]
        steal = [r["detail"]["steal_frac"] for r in mine]
        print(f"{workload}: {len(mine)} runs, seeds "
              f"{min(r['seed'] for r in mine)}..{max(r['seed'] for r in mine)}"
              f", failed runs {bad or 'none'}")
        print("  steal_frac per run: " +
              " ".join(f"{s:.3f}" for s in steal))
        print(f"  {'metric':<20} {'median':>14} {'spread':>8} {'bound':>6} "
              f"{'<b/3':>5} {'within-run':>10}")
        for name, spec in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            s = spread(values) if len(values) >= 2 else float("nan")
            within = [(q[2] - q[0]) / q[1]
                      for q in (r["detail"]["within_run"].get(name)
                                for r in mine) if q and q[1]]
            ok = s < spec["bound"] / 3
            steady &= ok and not bad
            print(f"  {name:<20} {statistics.median(values):>14.6g} "
                  f"{100 * s:>7.2f}% {100 * spec['bound']:>5.0f}% "
                  f"{'ok' if ok else 'NO':>5} "
                  f"{100 * statistics.median(within) if within else 0:>9.2f}%")
        walls = [r["detail"]["wall_ms"] for r in mine]
        print(f"  {'(raw wall_ms)':<20} {statistics.median(walls):>14.6g} "
              f"{100 * spread(walls):>7.2f}%  not gated")
    return steady


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    help="comma list (default: BENCHMARK.json's workloads)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--load")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    if args.load:
        with open(args.load, encoding="utf-8") as f:
            runs = json.load(f)
    else:
        seconds = args.seconds or bench["run_seconds"]
        workloads = (args.workloads.split(",") if args.workloads else
                     [w["name"] for w in bench["workloads"]])
        runs = []
        for i in range(args.runs):
            for workload in workloads:
                runs.append(run_once(workload, args.first_seed + i, seconds))
                print(f"  ran {workload} seed {args.first_seed + i}",
                      file=sys.stderr)
        if args.save:
            with open(args.save, "w", encoding="utf-8") as f:
                json.dump(runs, f, indent=1)
    sys.exit(0 if report(runs, bench) else 1)


if __name__ == "__main__":
    main()
