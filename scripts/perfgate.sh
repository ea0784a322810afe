#!/usr/bin/env bash
# Performance gate: re-measures the criterion suites and holds each
# benchmark's fresh median against the committed BENCH_*.json baseline.
# A benchmark more than 10% slower than its baseline fails the gate; new
# benchmarks (no baseline entry) and missing baseline files are noted
# but never fail. Refresh baselines with scripts/bench.sh after an
# intentional perf change.
#
#   scripts/perfgate.sh            # run gate (simulator + fleet + netproxy)
#   scripts/perfgate.sh --offline  # offline criterion stub, same gate
#   PERFGATE_SKIP=1 scripts/perfgate.sh   # skip (e.g. loaded CI hosts)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${PERFGATE_SKIP:-0}" = "1" ]; then
  echo "perfgate: skipped (PERFGATE_SKIP=1)"
  exit 0
fi

OFFLINE=()
for arg in "$@"; do
  case "$arg" in
    --offline) OFFLINE=(--offline) ;;
    *) echo "unknown argument: $arg (only --offline is supported)" >&2; exit 2 ;;
  esac
done

# Shared-runner timings are noisy; the gate compares point estimates, so
# keep the threshold generous enough to survive scheduler jitter while
# still catching real regressions.
THRESHOLD="${PERFGATE_THRESHOLD:-0.10}"

declare -A BASELINES=(
  [simulator]=BENCH_simulator.json
  [fleet]=BENCH_fleet.json
  [netproxy]=BENCH_netproxy.json
)

FAIL=0
for suite in simulator fleet netproxy; do
  baseline="${BASELINES[$suite]}"
  if [ ! -f "$baseline" ]; then
    echo "perfgate: no baseline $baseline — skipping $suite suite"
    continue
  fi
  echo "== perfgate: measuring $suite suite (best of 2)"
  # BENCH_netproxy.json also holds proxy_datapath's per-call `decide` and
  # wire-codec entries.
  BENCHES=(--bench "$suite")
  [ "$suite" = netproxy ] && BENCHES+=(--bench proxy_datapath)
  # Two measurement passes; the comparison takes the per-benchmark
  # minimum, so a thermal-throttle window during one pass can't fail
  # the gate on its own.
  cargo bench "${OFFLINE[@]}" -q -p bench "${BENCHES[@]}"
  SNAP=$(mktemp -d)
  for d in target/criterion crates/bench/target/criterion; do
    [ -d "$d" ] && cp -r "$d" "$SNAP/$(echo "$d" | tr / _)"
  done
  cargo bench "${OFFLINE[@]}" -q -p bench "${BENCHES[@]}"
  python3 - "$suite" "$baseline" "$THRESHOLD" "$SNAP" <<'PY' || FAIL=1
import json, os, sys

suite, baseline_path, threshold, snap = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4])
with open(baseline_path) as f:
    baseline = json.load(f).get("criterion", {})
if not baseline:
    print(f"perfgate: {baseline_path} has no criterion entries — nothing to gate")
    sys.exit(0)

fresh = {}
# Real criterion writes under target/criterion; the offline stub resolves
# the same relative path against the bench process cwd (the package root).
# The snapshot dir holds the first measurement pass; keep the per-bench
# minimum of the two passes.
roots = [r for r in ("target/criterion", "crates/bench/target/criterion")
         if os.path.isdir(r)]
roots += [os.path.join(snap, d) for d in (os.listdir(snap) if os.path.isdir(snap) else [])]
for root in roots:
  for dirpath, _dirs, files in os.walk(root):
    if "estimates.json" in files and dirpath.endswith(os.sep + "new"):
        bench = os.path.relpath(os.path.dirname(dirpath), root).replace(os.sep, "/")
        with open(os.path.join(dirpath, "estimates.json")) as f:
            mean = json.load(f)["mean"]["point_estimate"]
        fresh[bench] = min(fresh.get(bench, mean), mean)

failures = []
for name, base in sorted(baseline.items()):
    if name not in fresh:
        print(f"  {name}: baseline present but not measured this run — skipped")
        continue
    base_ns, new_ns = base["mean_ns"], fresh[name]
    ratio = new_ns / base_ns if base_ns else float("inf")
    verdict = "ok"
    if ratio > 1.0 + threshold:
        verdict = "REGRESSION"
        failures.append(name)
    print(f"  {name}: {base_ns:.0f} ns -> {new_ns:.0f} ns ({ratio - 1.0:+.1%} vs baseline) {verdict}")
# Only report unbaselined benchmarks belonging to this suite's criterion
# groups — target/criterion accumulates every suite ever run.
groups = {name.split("/", 1)[0] for name in baseline}
for name in sorted(set(fresh) - set(baseline)):
    if name.split("/", 1)[0] in groups:
        print(f"  {name}: new benchmark, no baseline — run scripts/bench.sh to record one")

if failures:
    print(f"perfgate: {len(failures)} regression(s) past {threshold:.0%} in the {suite} suite")
    sys.exit(1)
print(f"perfgate: {suite} suite within {threshold:.0%} of {baseline_path}")
PY
  rm -rf "$SNAP"
done

if [ "$FAIL" -ne 0 ]; then
  echo "perfgate: FAILED — see regressions above (refresh baselines with scripts/bench.sh if intentional)"
  exit 1
fi
echo "perfgate: all suites within threshold."
