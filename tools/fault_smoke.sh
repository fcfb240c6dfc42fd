#!/usr/bin/env bash
# Fault-injection determinism smoke test (wired into CI as fault-smoke).
#
# Runs both fault ablations (channel-loss sweep + churn-MTTF sweep, each
# with ARQ on/off curves) twice back-to-back at 2 replications per point
# and proves the robustness layer's core guarantees:
#   1. same-seed runs under active fault injection are byte-reproducible:
#      the determinism digests of the two runs are identical;
#   2. both manifests validate against alertsim-run-manifest/1;
#   3. on the loss sweep, delivery degrades monotonically with the loss
#      rate on every ARQ-off curve, and the matching ARQ-on curve
#      dominates it at every point.
# Both runs pass --no-cache, so the second run genuinely re-executes every
# unit instead of replaying the first run's cache entries. CI runs this
# under ASan, so the fault/ARQ code paths are also leak/UB-checked.
#
# Usage: tools/fault_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}

BIN="$BUILD_DIR/tools/alertsim-campaign"
[ -x "$BIN" ] || { echo "fault smoke: $BIN not built" >&2; exit 1; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

for fig in ablation_loss_arq ablation_churn_arq; do
  echo "fault smoke: $fig — two independent runs"
  for run in 1 2; do
    "$BIN" --figure "$fig" --reps 2 --threads 2 --no-cache \
      --out-dir "$WORK/run$run" > "$WORK/$fig.$run.log"
    grep -q ", 0 cached, " "$WORK/$fig.$run.log" ||
      { echo "fault smoke: $fig run $run served cached units" >&2; exit 1; }
  done
  python3 tools/check_manifest.py "$WORK/run1/$fig.json"

  python3 - "$WORK/run1/$fig.json" "$WORK/run2/$fig.json" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
for key in ("trace_digests", "series", "metrics"):
    assert a[key] == b[key], \
        f"{key} diverged between identical fault-injection runs"
print(f"fault smoke: {a['name']}: {len(a['trace_digests'])} determinism "
      "digests stable across reruns")
EOF
done

python3 - "$WORK/run1/ablation_loss_arq.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
series = {s["name"]: [(p["x"], p["y"]) for p in s["points"]]
          for s in m["series"]}
for proto in ("ALERT", "GPSR"):
    off = series[f"{proto} (no ARQ)"]
    on = series[f"{proto} (ARQ)"]
    ys = [y for _, y in off]
    assert ys == sorted(ys, reverse=True), \
        f"{proto} ARQ-off delivery not monotone in loss rate: {ys}"
    for (x, y_off), (_, y_on) in zip(off, on):
        assert y_on >= y_off, \
            f"{proto} ARQ-on ({y_on}) below ARQ-off ({y_off}) at loss {x}"
    print(f"fault smoke: {proto}: delivery monotone in loss, "
          "ARQ-on dominates ARQ-off")
EOF
echo "fault smoke: OK"
