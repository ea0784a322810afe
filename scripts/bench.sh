#!/usr/bin/env bash
# Performance snapshot: runs the simulator criterion suite plus a
# reference sweep (figures fig2_left --quick, serial vs all cores) and writes the
# results to BENCH_simulator.json, then runs the fleet criterion suite
# plus a per-core-count sweep of the fleet binary and writes
# BENCH_fleet.json, so successive PRs can track the perf trajectory.
# scripts/perfgate.sh holds fresh criterion medians against these files.
#
#   scripts/bench.sh            # full criterion run + reference sweep
#   scripts/bench.sh --offline  # for machines without registry access
#                               # (offline criterion stub: measures medians
#                               # and writes estimates.json like the real one)
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
for arg in "$@"; do
  case "$arg" in
    --offline) OFFLINE=(--offline) ;;
    *) echo "unknown argument: $arg (only --offline is supported)" >&2; exit 2 ;;
  esac
done

OUT=BENCH_simulator.json

echo "== cargo bench (simulator suite)"
cargo bench "${OFFLINE[@]}" -p bench --bench simulator

echo "== reference sweep wall-clock (figures fig2_left --quick)"
cargo build --release "${OFFLINE[@]}" -q -p bench --bin figures
BIN=target/release/figures

time_run() { # $1 = jobs; prints fractional seconds (best of two runs)
  local best="" secs
  for _ in 1 2; do
    local start end
    start=$(date +%s%N)
    "$BIN" fig2_left --quick --jobs "$1" >/dev/null
    end=$(date +%s%N)
    secs=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.3f", (e - s) / 1e9 }')
    if [ -z "$best" ] || awk -v a="$secs" -v b="$best" 'BEGIN { exit !(a < b) }'; then
      best="$secs"
    fi
  done
  printf '%s' "$best"
}

CORES=$(nproc 2>/dev/null || echo 1)
# What box the numbers are from: they are only comparable to a baseline
# recorded on the same CPU model and core count.
CPU_MODEL=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
[ -n "$CPU_MODEL" ] || CPU_MODEL=$(sysctl -n machdep.cpu.brand_string 2>/dev/null || true)
[ -n "$CPU_MODEL" ] || CPU_MODEL=unknown
SERIAL=$(time_run 1)
PARALLEL=$(time_run 0) # 0 = auto: all available cores
echo "serial ${SERIAL}s, parallel ${PARALLEL}s (${CORES} cores, ${CPU_MODEL})"

echo "== writing $OUT"
GIT_REV=$(git describe --always --dirty 2>/dev/null || echo unknown)
python3 - "$OUT" "$SERIAL" "$PARALLEL" "$GIT_REV" "$CORES" "$CPU_MODEL" <<'PY'
import json, os, sys

out, serial, parallel, rev, cores, cpu_model = (
    sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), sys.argv[4],
    int(sys.argv[5]), sys.argv[6],
)
# On a single-core machine the sweep runner takes its serial shortcut for
# jobs=0 too, so both timings exercise the identical code path and the
# "speedup" is definitionally 1.0 — report that instead of timing noise.
speedup = None
if parallel:
    speedup = 1.0 if cores == 1 else round(serial / parallel, 2)
summary = {
    "suite": "simulator",
    "git_rev": rev,
    "cores": cores,
    "cpu_model": cpu_model,
    "reference_sweep": {
        "binary": "figures fig2_left --quick",
        "serial_secs": serial,
        "parallel_secs": parallel,
        "speedup": speedup,
    },
    "criterion": {},
}
# Harvest criterion point estimates; both real criterion and the offline
# stub write mean/std_dev point estimates under <root>/criterion (the
# stub resolves the path against the bench process cwd — the package
# root — so look in both places).
roots = [r for r in ("target/criterion", "crates/bench/target/criterion")
         if os.path.isdir(r)]
for root in roots:
  for dirpath, _dirs, files in os.walk(root):
    if "estimates.json" in files and dirpath.endswith(os.sep + "new"):
        bench = os.path.relpath(os.path.dirname(dirpath), root).replace(os.sep, "/")
        # target/criterion accumulates every suite ever run; entries
        # belonging to suites with their own baseline file would be
        # double-gated (and go stale) here.
        if bench.startswith(("fleet/", "netproxy_", "streamlined_decision/", "wire_format/")):
            continue
        with open(os.path.join(dirpath, "estimates.json")) as f:
            est = json.load(f)
        summary["criterion"][bench] = {
            "mean_ns": est["mean"]["point_estimate"],
            "std_dev_ns": est["std_dev"]["point_estimate"],
        }
with open(out, "w") as f:
    json.dump(summary, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}")
PY

FLEET_OUT=BENCH_fleet.json

echo "== cargo bench (fleet suite)"
cargo bench "${OFFLINE[@]}" -p bench --bench fleet

echo "== fleet per-core-count sweep"
cargo build --release "${OFFLINE[@]}" -q -p bench --bin fleet
FLEET_BIN=target/release/fleet
SWEEP=$(mktemp)
# Sweep worker threads 1..=cores; on a single-core machine also take a
# 2-thread point so the windowed multi-thread path gets exercised (and
# its oversubscription cost recorded) even here.
THREADS=$(seq 1 "$CORES")
if [ "$CORES" -eq 1 ]; then THREADS="1 2"; fi
for t in $THREADS; do
  echo "-- threads=$t (best of 3)"
  BEST_LINE=""
  BEST_RATE=0
  for _ in 1 2 3; do
    LINE=$("$FLEET_BIN" --threads "$t" --json)
    RATE=$(printf '%s' "$LINE" | python3 -c 'import json,sys; print(int(json.load(sys.stdin)["effective_events_per_sec"]))')
    if [ "$RATE" -gt "$BEST_RATE" ]; then BEST_RATE=$RATE; BEST_LINE=$LINE; fi
  done
  echo "$BEST_LINE" | tee -a "$SWEEP"
done

echo "== writing $FLEET_OUT"
python3 - "$FLEET_OUT" "$GIT_REV" "$CORES" "$SWEEP" "$CPU_MODEL" <<'PY'
import json, os, sys

out, rev, cores, sweep_file, cpu_model = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5])
with open(sweep_file) as f:
    runs = [json.loads(line) for line in f if line.strip()]
# Scenario parameters are identical across the sweep; lift them out once.
scenario_keys = (
    "pods", "shards", "degree", "background_per_dc", "mb_per_sender",
    "fidelity", "seed", "flows", "effective_events",
)
summary = {
    "suite": "fleet",
    "git_rev": rev,
    "cores": cores,
    "cpu_model": cpu_model,
    "scenario": {k: runs[0][k] for k in scenario_keys},
    "sweep": [
        {
            "threads": r["threads"],
            "wall_secs": r["wall_secs"],
            "events_per_sec": r["events_per_sec"],
            "effective_events_per_sec": r["effective_events_per_sec"],
        }
        for r in runs
    ],
    "criterion": {},
}
roots = [r for r in ("target/criterion/fleet", "crates/bench/target/criterion/fleet")
         if os.path.isdir(r)]
for root in roots:
  for dirpath, _dirs, files in os.walk(root):
    if "estimates.json" in files and dirpath.endswith(os.sep + "new"):
        bench = "fleet/" + os.path.relpath(os.path.dirname(dirpath), root).replace(os.sep, "/")
        with open(os.path.join(dirpath, "estimates.json")) as f:
            est = json.load(f)
        summary["criterion"][bench] = {
            "mean_ns": est["mean"]["point_estimate"],
            "std_dev_ns": est["std_dev"]["point_estimate"],
        }
best = max(r["effective_events_per_sec"] for r in runs)
summary["scenario"]["best_effective_events_per_sec"] = best
with open(out, "w") as f:
    json.dump(summary, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out} (best {best/1e6:.2f}M effective events/sec)")
PY
rm -f "$SWEEP"
