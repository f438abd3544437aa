#!/usr/bin/env python3
"""Validate bench JSON against the documented schemas (docs/OBSERVABILITY.md).

Accepts either a per-bench report (schema sdt-bench/1, written by a bench's
--json flag) or a merged snapshot (schema sdt-bench-snapshot/2, written by
scripts/bench_snapshot.sh; /1 snapshots, which predate the host provenance
fields, still validate). Exits nonzero with a message naming the first
violation, so check.sh can gate on it. Stdlib only — the repo deliberately
carries no JSON parser in C++ and no third-party Python.

Usage: validate_bench_json.py FILE [FILE...]
"""
import json
import numbers
import sys


def fail(path, msg):
    print(f"{path}: SCHEMA VIOLATION: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metric(path, bench, i, m):
    where = f"bench {bench!r} metrics[{i}]"
    if not isinstance(m, dict):
        fail(path, f"{where} is not an object")
    for key, typ in (("name", str), ("unit", str)):
        if not isinstance(m.get(key), typ):
            fail(path, f"{where} missing/ill-typed {key!r}")
    if not isinstance(m.get("value"), numbers.Real) or isinstance(
            m.get("value"), bool):
        fail(path, f"{where} ({m.get('name')}) missing/ill-typed 'value'")
    has_mad = "mad" in m
    has_runs = "runs" in m
    if has_mad != has_runs:
        fail(path, f"{where} ({m['name']}): 'mad' and 'runs' must appear "
                   "together (repeat-timed metric) or not at all")
    if has_mad:
        if not isinstance(m["mad"], numbers.Real) or isinstance(m["mad"], bool):
            fail(path, f"{where} ({m['name']}): ill-typed 'mad'")
        if not isinstance(m["runs"], int) or isinstance(m["runs"], bool) \
                or m["runs"] < 1:
            fail(path, f"{where} ({m['name']}): 'runs' must be a positive int")


def check_bench(path, key, b):
    if not isinstance(b, dict):
        fail(path, f"bench {key!r} is not an object")
    if b.get("schema") != "sdt-bench/1":
        fail(path, f"bench {key!r}: schema is {b.get('schema')!r}, "
                   "expected 'sdt-bench/1'")
    if not isinstance(b.get("bench"), str) or not b["bench"]:
        fail(path, f"bench {key!r}: missing/ill-typed 'bench' id")
    if key is not None and b["bench"] != key:
        fail(path, f"benches key {key!r} != bench id {b['bench']!r}")
    if not isinstance(b.get("title"), str):
        fail(path, f"bench {b['bench']!r}: missing/ill-typed 'title'")
    if not isinstance(b.get("quick"), bool):
        fail(path, f"bench {b['bench']!r}: missing/ill-typed 'quick'")
    metrics = b.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        fail(path, f"bench {b['bench']!r}: 'metrics' must be a non-empty list")
    names = set()
    for i, m in enumerate(metrics):
        check_metric(path, b["bench"], i, m)
        if m["name"] in names:
            fail(path, f"bench {b['bench']!r}: duplicate metric {m['name']!r}")
        names.add(m["name"])
    check_invariants(path, b)


# Cross-framing invariants the snapshot must uphold (not just carry):
# detection recall and the anomaly census are properties of the byte
# stream, so their encap-parity counters must be exactly zero; the inline
# soak's conservation law and latency-budget gate are pass/fail claims,
# not trend lines.
INVARIANT_ZERO = {
    "E1_evasion_matrix": ("encap.divergences", "split_detect.evaded_total"),
    "E7_anomaly_census": ("encap.census_mismatches",),
    "E11_inline_soak": ("inline_soak.conservation_violations",
                        "inline_soak.p99_over_budget"),
}


def check_invariants(path, b):
    names = {m["name"]: m["value"] for m in b.get("metrics", [])}
    for metric in INVARIANT_ZERO.get(b.get("bench", ""), ()):
        if metric in names and names[metric] != 0:
            fail(path, f"bench {b['bench']!r}: invariant metric "
                       f"{metric!r} = {names[metric]}, expected 0")


SNAPSHOT_VERSIONS = {"sdt-bench-snapshot/1": 1, "sdt-bench-snapshot/2": 2}


def check_snapshot(path, doc, version):
    provenance = ("cpu_model", "build_type") if version >= 2 else ()
    for key in ("date", "host") + provenance:
        if not isinstance(doc.get(key), str) or not doc[key]:
            fail(path, f"missing/ill-typed {key!r}")
    if version >= 2:
        cores = doc.get("cores")
        if not isinstance(cores, int) or isinstance(cores, bool) or cores < 1:
            fail(path, "'cores' must be a positive int")
    if not isinstance(doc.get("quick"), bool):
        fail(path, "missing/ill-typed 'quick'")
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        fail(path, "'benches' must be a non-empty object")
    for key, b in benches.items():
        check_bench(path, key, b)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            fail(path, f"unreadable or not JSON: {e}")
        if not isinstance(doc, dict):
            fail(path, "top level is not an object")
        schema = doc.get("schema")
        if schema in SNAPSHOT_VERSIONS:
            check_snapshot(path, doc, SNAPSHOT_VERSIONS[schema])
        elif schema == "sdt-bench/1":
            check_bench(path, None, doc)
        else:
            fail(path, f"unknown schema {schema!r}")
        print(f"{path}: OK ({schema})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
