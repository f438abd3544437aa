#!/usr/bin/env python3
"""Render a performance-trajectory table from checked-in bench snapshots.

Reads every BENCH_*.json in the repo root (schema sdt-bench-snapshot/1
or /2, written by scripts/bench_snapshot.sh), orders them by date, and prints a
markdown table with one row per metric and one column per snapshot — the
honest history of how the numbers moved across PRs. docs/PERFORMANCE.md
embeds the headline table; regenerate it with:

    python3 scripts/bench_report.py            # headline metrics
    python3 scripts/bench_report.py --all      # every metric in every bench
    python3 scripts/bench_report.py --bench A4_runtime_scaling
    python3 scripts/bench_report.py --metric 'runtime.lanes16.*'

A metric absent from a snapshot renders as "–" (the bench or size didn't
exist yet) — absence is part of the trajectory, never papered over.
Repeat-timed metrics render as median ±MAD. Stdlib only.
"""
import argparse
import fnmatch
import glob
import json
import os
import sys

# The headline set: one row per claim the docs actually make. Patterns are
# fnmatch-style against "bench_id:metric_name".
HEADLINES = [
    ("E3_throughput:split_detect.gbps_per_core", "fast path, 1 core (Gbps)"),
    ("E3_throughput:split_over_conventional_wallclock",
     "split-detect vs conventional (wall-clock ratio)"),
    ("A1_match_kernels:flat_batch.clean_ns_per_byte",
     "batched flat-DFA scan, clean payloads (ns/B)"),
    ("A1_match_kernels:staged.clean_ns_per_byte",
     "prefilter-staged scan, clean payloads (ns/B)"),
    ("A3_lane_scaling:split_detect.lanes8.speedup", "sim speedup @8 lanes"),
    ("A4_runtime_scaling:runtime.lanes8.aggregate_gbps",
     "runtime aggregate @8 lanes (Gbps)"),
    ("A4_runtime_scaling:runtime.lanes8.speedup", "runtime speedup @8 lanes"),
    ("A4_runtime_scaling:runtime.lanes16.aggregate_gbps",
     "runtime aggregate @16 lanes (Gbps)"),
    ("A4_runtime_scaling:runtime.lanes16.speedup",
     "runtime speedup @16 lanes"),
    ("A4_runtime_scaling:runtime.lanes16.disp2.aggregate_gbps",
     "sharded ingest @16 lanes, 2 dispatchers (Gbps)"),
    ("E2_state_memory:flows100000_ooo0.fast_over_conventional",
     "state vs conventional @100k flows (ratio)"),
    ("E11_inline_soak:inline_soak.verdict_p99_ns",
     "inline verdict latency p99 (ns)"),
    ("E11_inline_soak:inline_soak.pps", "inline soak throughput (pkts/s)"),
    ("A5_reload:reload.publish_to_adopted_ns", "rule publish→adopted (ns)"),
]


def load_snapshots(root):
    snaps = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print(f"warning: skipping {path}: {e}", file=sys.stderr)
            continue
        if doc.get("schema") not in ("sdt-bench-snapshot/1",
                                     "sdt-bench-snapshot/2"):
            print(f"warning: skipping {path}: not a snapshot", file=sys.stderr)
            continue
        snaps.append((doc.get("date", os.path.basename(path)), path, doc))
    snaps.sort(key=lambda s: s[0])
    return snaps


def flatten(doc):
    """{'bench_id:metric': (value, mad_or_None)} for one snapshot."""
    out = {}
    for bid, bench in doc.get("benches", {}).items():
        for m in bench.get("metrics", []):
            out[f"{bid}:{m['name']}"] = (m["value"], m.get("mad"))
    return out


def fmt(cell):
    if cell is None:
        return "–"
    value, mad = cell
    if isinstance(value, float) and value != int(value):
        s = f"{value:.3g}"
    elif abs(value) >= 100000:
        s = f"{value:,.0f}"  # ns-scale counters: 2,591,240 not 2.59124e+06
    else:
        s = f"{value:g}"
    if mad is not None and mad != 0:
        s += f" ±{mad:.2g}"
    return s


def main():
    ap = argparse.ArgumentParser(
        description="markdown trajectory table from BENCH_*.json snapshots")
    ap.add_argument("--root", default=None,
                    help="repo root to scan (default: the script's parent)")
    ap.add_argument("--all", action="store_true",
                    help="every metric, not just the headline set")
    ap.add_argument("--bench", action="append", default=[],
                    help="restrict to one bench id (repeatable)")
    ap.add_argument("--metric", action="append", default=[],
                    help="fnmatch pattern on metric names (repeatable)")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    snaps = load_snapshots(root)
    if not snaps:
        print(f"no BENCH_*.json snapshots under {root}", file=sys.stderr)
        return 1

    tables = [flatten(doc) for _, _, doc in snaps]
    all_keys = []
    seen = set()
    for t in tables:
        for k in t:
            if k not in seen:
                seen.add(k)
                all_keys.append(k)

    if args.bench or args.metric:
        rows = []
        for k in all_keys:
            bid, name = k.split(":", 1)
            if args.bench and bid not in args.bench:
                continue
            if args.metric and not any(
                    fnmatch.fnmatch(name, p) for p in args.metric):
                continue
            rows.append((k, k))
    elif args.all:
        rows = [(k, k) for k in all_keys]
    else:
        rows = []
        for pattern, label in HEADLINES:
            matched = [k for k in all_keys if fnmatch.fnmatch(k, pattern)]
            if matched:
                rows.append((matched[0], label))
            else:
                # Headline metric in no snapshot yet: keep the row so the
                # gap is visible once a snapshot gains it.
                rows.append((pattern, label))

    header = ["metric"] + [date for date, _, _ in snaps]
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join(["---"] * len(header)) + "|")
    for key, label in rows:
        cells = [fmt(t.get(key)) for t in tables]
        print("| " + " | ".join([label] + cells) + " |")
    quick = [date for date, _, doc in snaps if doc.get("quick")]
    if quick:
        print()
        print(f"*quick-mode snapshots (CI sizing, not comparable): "
              f"{', '.join(quick)}*")
    return 0


if __name__ == "__main__":
    sys.exit(main())
