#!/usr/bin/env python3
"""Print the per-layer ledger of traced benchmark runs.

Usage:
    python3 perfbench/ledger.py .bench_build/traces/*.json

Reads span files written by `run.py --trace 1` (Chrome trace-event JSON,
the schema scripts/trace_summary.py also accepts; every span carries
args.span_id, args.parent_id and a hex args.trace_id shared by one
operation's spans) and prints, per workload:

  * the self-time ledger of the traced samples: per span name, total time,
    self time (duration minus the time its child spans cover) and the self
    time's share of the end-to-end time (the summed root spans);
  * the same ledger for the per-layer probes;
  * the codec split: lc::compress and lc::decompress wall time (probe
    medians per pipeline) divided into content checksum, parallel chunk
    kernel, frame CRC, scan and the glue residual, and whether the parts fit in the wall time;
  * the server residual: client call time minus the server's own op time;
  * telemetry.trace_overhead_frac.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> tuple[list[dict], dict]:
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    spans = [ev for ev in trace["traceEvents"] if ev.get("ph") == "X"]
    return spans, trace.get("otherData", {})


def self_times(spans: list[dict]) -> dict[int, float]:
    """span_id -> duration minus the summed duration of its children.

    All spans come from one thread and nest, so children never overlap."""
    child_us: dict[int, float] = defaultdict(float)
    for ev in spans:
        child_us[ev["args"]["parent_id"]] += ev["dur"]
    return {ev["args"]["span_id"]: ev["dur"] - child_us[ev["args"]["span_id"]]
            for ev in spans}


def subtree(spans: list[dict], root_names: set[str]) -> list[dict]:
    """Spans under (and including) the roots with the given names."""
    by_id = {ev["args"]["span_id"]: ev for ev in spans}

    def top(ev: dict) -> dict:
        while ev["args"]["parent_id"] != 0:
            ev = by_id[ev["args"]["parent_id"]]
        return ev

    return [ev for ev in spans if top(ev)["name"] in root_names]


def print_table(title: str, spans: list[dict]) -> None:
    if not spans:
        return
    own = self_times(spans)
    roots_us = sum(ev["dur"] for ev in spans if ev["args"]["parent_id"] == 0)
    total = defaultdict(float)
    selfs = defaultdict(float)
    count = defaultdict(int)
    for ev in spans:
        total[ev["name"]] += ev["dur"]
        selfs[ev["name"]] += own[ev["args"]["span_id"]]
        count[ev["name"]] += 1
    print(f"{title} (share = self time / {roots_us / 1e3:.3f} ms "
          f"end-to-end):")
    print(f"  {'span':<28} {'count':>7} {'total ms':>11} {'self ms':>11} "
          f"{'share':>7}")
    for name in sorted(selfs, key=selfs.get, reverse=True):
        print(f"  {name:<28} {count[name]:>7} {total[name] / 1e3:>11.3f} "
              f"{selfs[name] / 1e3:>11.3f} "
              f"{100 * selfs[name] / max(roots_us, 1e-9):>6.1f}%")


def print_codec_split(spans: list[dict]) -> bool:
    """Median wall and parts per pipeline and direction; False when the
    separately timed parts exceed the wall time."""
    samples = defaultdict(list)
    for ev in spans:
        if ev["name"].startswith(("probe.compress", "probe.decompress")):
            samples[(ev["args"].get("pipeline", ""), ev["name"])].append(
                ev["dur"])
    fits = True
    pipelines = sorted({p for p, _ in samples if p})
    if pipelines:
        print("codec split (probe medians; parts timed back to back with "
              "the real call):")
    for pipeline in pipelines:
        for direction in ("compress", "decompress"):
            key = f"probe.{direction}"
            if (pipeline, key) not in samples:
                continue
            wall = statistics.median(samples[(pipeline, key)])
            parts = {part: statistics.median(samples[(pipeline,
                                                      f"{key}.{part}")])
                     for part in ("checksum", "kernel", "frame_crc",
                                  "scan")}
            glue = wall - sum(parts.values())
            fits &= glue >= 0
            cells = "  ".join(f"{part} {us / 1e3:8.3f} ms "
                              f"{100 * us / wall:5.1f}%"
                              for part, us in list(parts.items()) +
                              [("glue", glue)])
            print(f"  {direction:<10} {pipeline:<22} wall {wall / 1e3:8.3f} "
                  f"ms = {cells}")
    if pipelines:
        print(f"  parts fit within wall time: {'yes' if fits else 'NO'}")
    return fits


def print_ledger(path: str) -> bool:
    spans, other = load(path)
    metrics = other.get("metrics", {})
    print(f"ledger: {other.get('workload', '?')} seed {other.get('seed', '?')}"
          f" — {len(spans)} spans, "
          f"{other.get('dropped_spans', 0)} spans past the cap not recorded "
          f"({path})")
    roots = {ev["name"] for ev in spans if ev["args"]["parent_id"] == 0}
    print_table("self-time ledger of the traced samples",
                subtree(spans, roots - {"probe"}))
    print_table("self-time ledger of the per-layer probes",
                subtree(spans, {"probe"}))
    fits = print_codec_split(spans)
    for op in ("compress", "decompress"):
        call = metrics.get(f"server.{op}_call_us")
        served = metrics.get(f"server.op_{op}_ns")
        if call is not None and served is not None:
            print(f"server {op}: call p50 {call:.2f} us = server op "
                  f"{served / 1e3:.2f} us + transport/admission/wake-up "
                  f"{call - served / 1e3:.2f} us")
    if "telemetry.trace_overhead_frac" in metrics:
        print(f"telemetry.trace_overhead_frac "
              f"{metrics['telemetry.trace_overhead_frac']:+.4f}")
    return fits


def main() -> None:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    fits = True
    for path in sys.argv[1:]:
        fits &= print_ledger(path)
        print()
    sys.exit(0 if fits else 1)


if __name__ == "__main__":
    main()
