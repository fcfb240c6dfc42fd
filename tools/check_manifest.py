#!/usr/bin/env python3
"""check_manifest — validate alertsim run-manifest JSON (and optionally a
Chrome trace file or a benchmark baseline) emitted by alertsim-campaign,
alertsim_cli and alertsim-perf.

Schemas: "alertsim-run-manifest/1" (docs/OBSERVABILITY.md) and
"alertsim-bench/1" (docs/BENCHMARKS.md). Pure stdlib so CI can run it with
any python3, no installs.

Usage:
  tools/check_manifest.py manifest.json [more.json ...]
  tools/check_manifest.py --trace run_trace.json manifest.json
  tools/check_manifest.py --bench BENCH_core.json --bench BENCH_scale.json \
      --bench BENCH_paper.json

Exit status: 0 = all files valid, 1 = validation failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA_ID = "alertsim-run-manifest/1"
BENCH_SCHEMA_ID = "alertsim-bench/1"
METRIC_KINDS = {"counter", "gauge", "sample", "histogram"}


class Fail(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Fail(message)


def is_str(x) -> bool:
    return isinstance(x, str)


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_num(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool))


def check_accumulator(acc, where: str) -> None:
    expect(isinstance(acc, dict), f"{where}: accumulator must be an object")
    for key in ("count", "mean", "min", "max", "stddev", "ci95"):
        expect(key in acc, f"{where}: accumulator missing '{key}'")
    expect(is_int(acc["count"]) and acc["count"] >= 0,
           f"{where}: count must be a non-negative integer")
    for key in ("mean", "min", "max", "stddev", "ci95"):
        expect(acc[key] is None or is_num(acc[key]),
               f"{where}: '{key}' must be a number (or null for non-finite)")


def check_metrics(snap, where: str) -> None:
    expect(isinstance(snap, dict), f"{where}: must be an object")
    expect(is_int(snap.get("replications")),
           f"{where}: 'replications' must be an integer")
    metrics = snap.get("metrics")
    expect(isinstance(metrics, list), f"{where}: 'metrics' must be an array")
    names = []
    for i, m in enumerate(metrics):
        mw = f"{where}.metrics[{i}]"
        expect(isinstance(m, dict), f"{mw}: must be an object")
        expect(is_str(m.get("name")) and m["name"],
               f"{mw}: 'name' must be a non-empty string")
        names.append(m["name"])
        kind = m.get("kind")
        expect(kind in METRIC_KINDS,
               f"{mw}: 'kind' must be one of {sorted(METRIC_KINDS)}")
        if kind == "counter":
            expect(is_int(m.get("total")) and m["total"] >= 0,
                   f"{mw}: counter 'total' must be a non-negative integer")
            check_accumulator(m.get("per_replication"),
                              f"{mw}.per_replication")
        elif kind == "gauge":
            check_accumulator(m.get("per_replication"),
                              f"{mw}.per_replication")
        elif kind == "sample":
            check_accumulator(m.get("samples"), f"{mw}.samples")
        else:  # histogram
            expect(is_num(m.get("lo")) and is_num(m.get("hi")),
                   f"{mw}: histogram needs numeric 'lo'/'hi'")
            bins = m.get("bins")
            expect(isinstance(bins, list) and
                   all(is_int(b) and b >= 0 for b in bins),
                   f"{mw}: 'bins' must be an array of non-negative integers")
    expect(names == sorted(names),
           f"{where}: metric names must be sorted (merge contract)")


def check_profile(profile, where: str) -> None:
    expect(isinstance(profile, list), f"{where}: must be an array")
    for i, s in enumerate(profile):
        sw = f"{where}[{i}]"
        expect(isinstance(s, dict), f"{sw}: must be an object")
        expect(is_str(s.get("name")) and s["name"],
               f"{sw}: 'name' must be a non-empty string")
        for key in ("count", "total_ns", "max_ns"):
            expect(is_int(s.get(key)) and s[key] >= 0,
                   f"{sw}: '{key}' must be a non-negative integer")
        expect(is_num(s.get("mean_ns")), f"{sw}: 'mean_ns' must be a number")


def check_series(series, where: str) -> None:
    expect(isinstance(series, list), f"{where}: must be an array")
    for i, s in enumerate(series):
        sw = f"{where}[{i}]"
        expect(isinstance(s, dict) and is_str(s.get("name")),
               f"{sw}: must be an object with a string 'name'")
        points = s.get("points")
        expect(isinstance(points, list), f"{sw}: 'points' must be an array")
        for j, p in enumerate(points):
            expect(isinstance(p, dict) and
                   all(is_num(p.get(k)) or p.get(k) is None
                       for k in ("x", "y", "ci")),
                   f"{sw}.points[{j}]: needs numeric 'x', 'y', 'ci'")


def check_manifest(doc) -> None:
    expect(isinstance(doc, dict), "manifest root must be a JSON object")
    expect(doc.get("schema") == SCHEMA_ID,
           f"'schema' must be '{SCHEMA_ID}' (got {doc.get('schema')!r})")
    for key in ("name", "title", "x_label", "y_label", "version"):
        expect(is_str(doc.get(key)), f"'{key}' must be a string")
    expect(doc["name"], "'name' must be non-empty")
    expect(is_int(doc.get("seed")) and doc["seed"] >= 0,
           "'seed' must be a non-negative integer")
    expect(is_int(doc.get("replications")) and doc["replications"] >= 0,
           "'replications' must be a non-negative integer")
    params = doc.get("params")
    expect(isinstance(params, dict) and
           all(is_str(v) for v in params.values()),
           "'params' must be an object with string values")
    digests = doc.get("trace_digests")
    expect(isinstance(digests, list) and all(is_int(d) for d in digests),
           "'trace_digests' must be an array of integers")
    check_metrics(doc.get("metrics"), "metrics")
    check_profile(doc.get("profile"), "profile")
    check_series(doc.get("series"), "series")
    notes = doc.get("notes")
    expect(isinstance(notes, list) and all(is_str(n) for n in notes),
           "'notes' must be an array of strings")
    if "peak_rss_bytes" in doc:  # optional: stamped only under --peak-rss
        expect(is_int(doc["peak_rss_bytes"]) and doc["peak_rss_bytes"] > 0,
               "'peak_rss_bytes' must be a positive integer when present")


def check_bench_report(doc) -> None:
    """Validate an "alertsim-bench/1" baseline (BENCH_core.json, ...)."""
    expect(isinstance(doc, dict), "bench root must be a JSON object")
    expect(doc.get("schema") == BENCH_SCHEMA_ID,
           f"'schema' must be '{BENCH_SCHEMA_ID}' (got {doc.get('schema')!r})")
    expect(is_str(doc.get("suite")) and doc["suite"],
           "'suite' must be a non-empty string")
    expect(is_str(doc.get("version")) and doc["version"],
           "'version' must be a non-empty string")
    host = doc.get("host")
    expect(isinstance(host, dict), "'host' must be an object")
    for key in ("os", "compiler", "build_type"):
        expect(is_str(host.get(key)), f"host.'{key}' must be a string")
    expect(is_int(host.get("hardware_threads")),
           "host.'hardware_threads' must be an integer")
    metrics = doc.get("metrics")
    expect(isinstance(metrics, list) and metrics,
           "'metrics' must be a non-empty array")
    names = []
    for i, m in enumerate(metrics):
        mw = f"metrics[{i}]"
        expect(isinstance(m, dict), f"{mw}: must be an object")
        expect(is_str(m.get("name")) and m["name"],
               f"{mw}: 'name' must be a non-empty string")
        names.append(m["name"])
        expect(is_str(m.get("unit")) and m["unit"],
               f"{mw}: 'unit' must be a non-empty string")
        expect(is_num(m.get("value")), f"{mw}: 'value' must be a number")
        expect(is_num(m.get("iqr")) and m["iqr"] >= 0,
               f"{mw}: 'iqr' must be a non-negative number")
        expect(is_int(m.get("repeats")) and m["repeats"] >= 1,
               f"{mw}: 'repeats' must be a positive integer")
        expect(isinstance(m.get("higher_is_better"), bool),
               f"{mw}: 'higher_is_better' must be a boolean")
        expect(is_num(m.get("tolerance_pct")) and m["tolerance_pct"] > 0,
               f"{mw}: 'tolerance_pct' must be a positive number "
               "(a zero tolerance makes the gate vacuous)")
    expect(names == sorted(names), "metric names must be sorted")
    expect(len(names) == len(set(names)), "metric names must be unique")


def check_chrome_trace(doc) -> None:
    """Well-formedness of the Chrome trace_event JSON array format."""
    expect(isinstance(doc, list), "trace root must be a JSON array")
    expect(len(doc) > 0, "trace must contain at least one event")
    for i, ev in enumerate(doc):
        ew = f"trace[{i}]"
        expect(isinstance(ev, dict), f"{ew}: must be an object")
        expect(is_str(ev.get("name")) and is_str(ev.get("ph")),
               f"{ew}: needs string 'name' and 'ph'")
        expect(is_num(ev.get("ts")), f"{ew}: needs numeric 'ts'")
        expect(is_int(ev.get("pid")) and is_int(ev.get("tid")),
               f"{ew}: needs integer 'pid' and 'tid'")
        if ev["ph"] == "X":
            expect(is_num(ev.get("dur")) and ev["dur"] > 0,
                   f"{ew}: complete ('X') event needs positive 'dur'")


def check_file(path: str, kind: str) -> bool:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL {path}: {e}", file=sys.stderr)
        return False
    try:
        if kind == "trace":
            check_chrome_trace(doc)
        elif kind == "bench":
            check_bench_report(doc)
        else:
            check_manifest(doc)
    except Fail as e:
        print(f"FAIL {path}: {e}", file=sys.stderr)
        return False
    print(f"ok   {path} ({kind})")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="check_manifest", description=__doc__.splitlines()[0])
    parser.add_argument("manifests", nargs="*",
                        help="run-manifest JSON files to validate")
    parser.add_argument("--trace", action="append", default=[],
                        help="Chrome trace_event JSON file to validate "
                             "(repeatable)")
    parser.add_argument("--bench", action="append", default=[],
                        help="alertsim-bench/1 baseline JSON to validate "
                             "(repeatable)")
    args = parser.parse_args()
    if not args.manifests and not args.trace and not args.bench:
        parser.error("nothing to check: pass manifest files, --trace "
                     "and/or --bench")
    ok = True
    for path in args.manifests:
        ok = check_file(path, "manifest") and ok
    for path in args.trace:
        ok = check_file(path, "trace") and ok
    for path in args.bench:
        ok = check_file(path, "bench") and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
