#!/usr/bin/env bash
# Everything CI runs, in the order it runs it. Fails fast.
#
#   scripts/check.sh            # format check + clippy + tests + smokes
#
# Every cargo call is --offline: the workspace depends on nothing outside
# itself (DESIGN.md §7), and a build that reaches for a registry is a bug.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  echo "unknown argument: $1 (check.sh takes none)" >&2
  exit 2
fi

echo "== closed workspace: every dependency is a workspace path crate; one benchmark system (crates/perf + BENCHMARK.json; its frozen stand-in list aside)"
MANIFESTS="$(git ls-files '*Cargo.toml' ':!crates/perf')"
# Inside a *dependencies table an entry is `name.workspace = true` or carries
# `path = "..."`; a `[dependencies.name]` sub-table is not used here at all.
FOREIGN="$(awk '
  /^\[/ { in_deps = ($0 ~ /dependencies\]$/); if ($0 ~ /dependencies\./) print FILENAME ": " $0; next }
  in_deps && /^[A-Za-z0-9_-]/ && !/\.workspace *= *true/ && !/path *= *"/ { print FILENAME ": " $0 }
' $MANIFESTS)"
if [ -n "$FOREIGN" ]; then echo "$FOREIGN"; echo "a manifest names a crate from outside the workspace" >&2; exit 1; fi
if grep -l -e '^\[\[bench\]\]' $MANIFESTS; then echo "a [[bench]] target is back in a manifest" >&2; exit 1; fi
if git ls-files 'BENCH_*.json' | grep .; then echo "a BENCH_*.json is tracked again (committed numbers live in results/ and crates/perf/RECORD.json)" >&2; exit 1; fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --all-targets -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== simlint (determinism + unsafety/ordering/FFI audit rules, machine-readable)"
SIMLINT_JSON="$(cargo run --offline -q -p simlint -- --json)"
if ! grep -q '"violation_count": 0' <<<"$SIMLINT_JSON"; then
  echo "$SIMLINT_JSON"
  echo "simlint: violations found (human-readable rerun follows)" >&2
  cargo run --offline -q -p simlint || true
  exit 1
fi
# The allow inventory stays visible in CI logs even on success.
cargo run --offline -q -p simlint

echo "== determinism regression (parallel sweep == serial sweep)"
cargo test -p bench --offline --test sweep_determinism -q

echo "== timer-slot regression (bit-identical goldens, zero stale timer pops)"
cargo test --offline --test timer_identity -q

echo "== cargo test"
cargo test --workspace --offline -q

echo "== results/ (every study of 'figures --list' regenerates its committed results/<study>.txt byte for byte; ~4 min on 2 vCPUs)"
cargo build --release --offline -q -p bench --bin figures
for study in $(target/release/figures --list); do
  target/release/figures "$study" | diff - "results/$study.txt"
done

echo "== loom (bounded-exhaustive interleaving models of the lock-free shard datapath)"
RUSTFLAGS="--cfg loom" cargo test --offline -p netproxy --test loom -q

echo "== netproxy loadgen smoke (every relay variant x every socket layer, zero unexplained loss)"
cargo run --release --offline -q -p bench --bin netproxy_load -- --smoke

echo "== live figures and example (naive TCP proxy + one-shard relay on loopback; fig5 asserts batch span / decision >= 10x)"
cargo run --release --offline -q -p bench --bin fig4 -- --quick
cargo run --release --offline -q -p bench --bin fig5 -- --quick
cargo run --release --offline -q --example live_proxy

echo "== control-plane examples (global orchestrator, declaration planner, operator loop; each asserts its own result, ~11 s)"
for example in orchestrated_incasts storage_reconstruction operator_loop; do
  cargo run --release --offline -q --example "$example"
done

echo "== netproxy chaos soak (bounded: 5 s, faults + mid-run crash + overload ladder, ledger-verified)"
cargo run --release --offline -q -p bench --bin netproxy_soak -- \
  --duration-s 5 --rate 30000 --overload-pps 9000 --json

echo "== chaos fuzz (bounded campaign, fixed seed range; repros land in target/fuzz-repros)"
cargo run --release --offline -q -p bench --bin fuzz -- --count 500 --start-seed 1

echo "== control-plane fuzz (shard crashes, stale placements, gossip slower than lease expiry)"
cargo run --release --offline -q -p bench --bin fuzz -- --control-plane --count 500 --start-seed 0

echo "== fleet (hybrid sharded engine: --threads 2 and 3 print --threads 1's counts exactly)"
cargo build --release --offline -q -p bench --bin fleet
# The two count lines (events, TxDones never scheduled, saved events,
# windows, cross-shard packets; lane churn), wall-clock field stripped.
fleet_counts() {
  sed -n -e 's/ in [0-9.]*s wall//p' -e '/event queue:/p'
}
FLEET_T1_OUT="$(target/release/fleet --quick --threads 1)"
# Shown, never compared: memory varies with the allocator and the box.
grep 'peak RSS' <<<"$FLEET_T1_OUT" || true
FLEET_T1="$(fleet_counts <<<"$FLEET_T1_OUT")"
if [ "$(wc -l <<<"$FLEET_T1")" -ne 2 ]; then echo "fleet printed no count lines" >&2; exit 1; fi
# --quick has 4 shards: 3 threads split them unevenly.
for threads in 2 3; do
  diff <(echo "$FLEET_T1") <(target/release/fleet --quick --threads "$threads" | fleet_counts)
done

# Last: it builds from crates/perf, whose .cargo/config.toml patch table (all
# unused now; cargo warns and goes on) re-resolves the gitignored Cargo.lock.
echo "== benchmark smoke (BENCHMARK.json's offline build + all six workloads, untraced and traced, every correctness check)"
bash crates/perf/smoke.sh

echo "All checks passed."
