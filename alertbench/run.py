#!/usr/bin/env python3
"""Run one workload of the alertsim repository benchmark (see README.md).

    python3 alertbench/run.py --workload paper-cold --seed 0 --seconds 10 --trace 0

Builds the benchmark from the sources of the checkout it sits in (into
$CARGO_TARGET_DIR, default .bench_build), runs passes of the workload, each
in its own process, while fewer than --seconds have elapsed (so at least
one whole pass), checks every unit's output, prints each metric with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced pass and writes its spans.

Other modes: --self-test builds and runs the benchmark's self-tests;
--write-reference records the default-seed unit digests of paper-cold and
arena-10k under the current simulation epoch in reference_digests.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference_digests.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("paper-cold", "paper-warm", "arena-10k")
DEFAULT_SEED = 0
BUILD_JOBS = "4"
PASS_TIMEOUT_S = 170


def fail(message, code=1):
    print("alertbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(build_dir, targets):
    """Configure once, then (re)build `targets`; returns the cmake tree."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("no alertsim sources around %s; run from a full checkout" % BENCH_DIR, 2)
    tree = os.path.join(build_dir, "cmake")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", tree,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                shutil.rmtree(tree, ignore_errors=True)
                fail("configure failed; see %s" % log_path)
        cmd = ["cmake", "--build", tree, "-j", BUILD_JOBS, "--target"] + targets
        if subprocess.run(cmd, stdout=log, stderr=log).returncode:
            fail("build failed; see %s" % log_path)
    return tree


def state_dir(build_dir, binary):
    """Per-binary state: the warm fill and digest records of earlier runs
    belong to the program that made them."""
    with open(binary, "rb") as f:
        digest = hashlib.sha1(f.read()).hexdigest()[:16]
    path = os.path.join(build_dir, "state", digest)
    for sub in ("records", "spans", "tmp"):
        os.makedirs(os.path.join(path, sub), exist_ok=True)
    return path


def run_pass(binary, state, workload, seed, cache_root, traced):
    """One pass in its own process; returns its result dict (with the
    manifest directory under "out_dir", which the caller removes)."""
    tmp = os.path.join(state, "tmp")
    out_dir = tempfile.mkdtemp(prefix="out-", dir=tmp)
    work = tempfile.mkdtemp(prefix="work-", dir=tmp)
    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(state, "spans", "%s-seed%d.json" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--cache-root", cache_root, "--out-dir", out_dir,
           "--tmp-dir", work, "--result", result_path]
    if traced:
        cmd += ["--trace", "--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=PASS_TIMEOUT_S)
        ok = proc.returncode == 0 and os.path.isfile(result_path)
        error = proc.stderr.decode(errors="replace")[-2000:]
    except subprocess.TimeoutExpired:
        ok, error = False, "pass timed out after %d s" % PASS_TIMEOUT_S
    result = None
    if ok:
        with open(result_path) as f:
            result = json.load(f)
        result["out_dir"] = out_dir
        result["spans_path"] = spans_path if traced else None
    else:
        print("alertbench: %s pass failed: %s" % (workload, error), file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)
    return result


def cold_pass(binary, state, workload, seed, traced):
    """A pass on a fresh mkdtemp cache root, removed afterwards."""
    root = tempfile.mkdtemp(prefix="cache-", dir=os.path.join(state, "tmp"))
    try:
        return run_pass(binary, state, workload, seed, root, traced)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def ensure_fill(binary, state):
    """The paper-warm fill: one untimed paper-cold pass at the default seed,
    made once per binary. Returns its directory (cache/, manifests/)."""
    fill = os.path.join(state, "fill")
    if os.path.isdir(fill):
        return fill
    staging = tempfile.mkdtemp(prefix="fill-", dir=os.path.join(state, "tmp"))
    cache = os.path.join(staging, "cache")
    os.makedirs(cache)
    result = run_pass(binary, state, "paper-cold", DEFAULT_SEED, cache, False)
    if result is None:
        shutil.rmtree(staging, ignore_errors=True)
        fail("the paper-warm fill pass failed")
    shutil.move(result["out_dir"], os.path.join(staging, "manifests"))
    os.rename(staging, fill)
    return fill


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def write_json(path, value):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def distinct_events(units):
    seen = {}
    for unit in units:
        seen.setdefault(unit["key"], unit["events"])
    return sum(seen.values())


def check_units(workload, seed, passes, traced, state, fill):
    """Count failed units over every pass of the run (see README.md,
    "Correctness checks"); records this run's digests and wall times for
    (workload, seed) so later runs are checked against them."""
    notes = []
    reference = None
    if seed == DEFAULT_SEED or workload != "arena-10k":
        epoch = passes[0]["epoch"]
        reference = load_json(REFERENCE, {}).get("epochs", {}).get(epoch)
        if reference is None:
            # Fail closed: an epoch bump must commit its reference digests.
            notes.append("no reference digests for epoch %s, so every unit fails; "
                         "run --write-reference and commit the result" % epoch)
            reference = {}
    record_path = os.path.join(state, "records", "%s-seed%d.json" % (workload, seed))
    record = load_json(record_path, {"digests": {}, "wall_s": {}})
    digests = record["digests"]
    failed = 0
    for result in passes:
        changed = set()
        if fill:
            for path in result["manifests"]:
                name = os.path.basename(path)
                if read_bytes(path) != read_bytes(os.path.join(fill, "manifests", name)):
                    changed.add(name[:-len(".json")])
        bad = 0
        for unit in result["units"]:
            key, digest = unit["key"], unit["digest"]
            recorded = digests.setdefault(key, digest)
            if (not unit["ledger_balanced"] or recorded != digest
                    or (reference is not None and reference.get(key) != digest)
                    or unit["campaign"] in changed
                    or not result["manifests_written"]):
                bad += 1
        if fill:
            bad += result["executed"]  # a warm pass executes nothing
        failed += bad + result["store_errors"] + result["journal_errors"]
        record["wall_s"].setdefault("traced" if traced else "untraced",
                                    []).append(result["wall_s"])
    write_json(record_path, record)
    return failed, notes, record


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def end_to_end(passes):
    setup = [s for p in passes for s in p["setup_s"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "sim_events_per_s": statistics.median(
            distinct_events(p["units"]) / p["wall_s"] for p in passes),
        "peak_rss_bytes": statistics.median(p["peak_rss_bytes"] for p in passes),
        "setup_s": statistics.median(setup),
    }


def per_layer(passes):
    return {name: statistics.median(p["layers"][name] for p in passes)
            for name in passes[0]["layers"]}


def metric_units(traced):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = load_json(BENCHMARK, None)
    if spec is None:
        fail("cannot read %s" % BENCHMARK, 2)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def print_self_times(spans_path):
    spans = load_json(spans_path, {}).get("spans", [])
    totals = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0, 0])
        entry[0] += 1
        entry[1] += span["self_ns"]
    print("span self time (summed by name), from %s:" % spans_path)
    for name, (count, self_ns) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print("  %-26s %8d spans %14.3f ms" % (name, count, self_ns / 1e6))


def run_workload(args):
    build_dir = build_root()
    tree = build(build_dir, ["alertsim-bench"])
    binary = os.path.join(tree, "alertsim-bench")
    state = state_dir(build_dir, binary)
    traced = args.trace == 1
    units = metric_units(traced)

    fill = ensure_fill(binary, state) if args.workload == "paper-warm" else None
    passes = []
    attempted_passes = 0
    start = time.monotonic()
    while time.monotonic() - start < args.seconds:
        attempted_passes += 1
        if fill:
            result = run_pass(binary, state, args.workload, args.seed,
                              os.path.join(fill, "cache"), traced)
        else:
            result = cold_pass(binary, state, args.workload, args.seed, traced)
        if result is None:
            break
        passes.append(result)

    crashed = attempted_passes - len(passes)
    if not passes:
        failed, notes, record = 1, [], None
        attempted = 1
    else:
        failed, notes, record = check_units(args.workload, args.seed, passes, traced,
                                            state, fill)
        failed += crashed
        attempted = sum(len(p["units"]) for p in passes) + crashed
    for p in passes:
        shutil.rmtree(p["out_dir"], ignore_errors=True)

    print("workload %s, seed %d, %d pass(es)" % (args.workload, args.seed, len(passes)))
    for note in notes:
        print("note: " + note)
    failed_frac = failed / attempted
    print("failed_frac %.6g ratio (%d of %d units)" % (failed_frac, failed, attempted))
    values = {}
    if passes and not traced:
        values = end_to_end(passes)
    elif passes:
        values = per_layer(passes)
        values["failed_frac"] = failed_frac
        untraced = record["wall_s"].get("untraced", [])
        traced_wall = statistics.median(p["wall_s"] for p in passes)
        if untraced:
            base = statistics.median(untraced)
            print("tracing overhead: %+.4f s (%+.2f%%) over the median of %d untraced "
                  "pass(es) at this seed" % (traced_wall - base,
                                             100.0 * (traced_wall - base) / base,
                                             len(untraced)))
        else:
            print("tracing overhead: no untraced pass at this seed with this build yet")
        print_self_times(passes[-1]["spans_path"])
    metrics = {}
    if passes:
        if set(values) != set(units):
            fail("measured metrics differ from BENCHMARK.json: %s"
                 % " ".join(sorted(set(values) ^ set(units))))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    for name, metric in metrics.items():
        print("%-32s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": failed == 0 and bool(passes), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def self_test():
    build_dir = build_root()
    tree = build(build_dir, ["alertbench-selftest"])
    return subprocess.run([os.path.join(tree, "alertbench-selftest")]).returncode


def write_reference():
    build_dir = build_root()
    tree = build(build_dir, ["alertsim-bench"])
    binary = os.path.join(tree, "alertsim-bench")
    state = state_dir(build_dir, binary)
    digests, epoch = {}, None
    for workload in ("paper-cold", "arena-10k"):
        result = cold_pass(binary, state, workload, DEFAULT_SEED, False)
        if result is None:
            fail("%s pass failed" % workload)
        shutil.rmtree(result["out_dir"], ignore_errors=True)
        epoch = result["epoch"]
        for unit in result["units"]:
            if not unit["ledger_balanced"]:
                fail("unit %s has an unbalanced ledger" % unit["key"])
            digests[unit["key"]] = unit["digest"]
    reference = load_json(REFERENCE, {"schema": "alertbench-reference/1", "epochs": {}})
    reference["epochs"][epoch] = dict(sorted(digests.items()))
    write_json(REFERENCE, reference)
    print("wrote %d digests for epoch %s to %s" % (len(digests), epoch, REFERENCE))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
