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

echo "== closed workspace: every dependency is a workspace path crate; one benchmark system (crates/perf + BENCHMARK.json; its frozen stand-in list aside); one live-relay driver (bench::live); a clock-free shard step (netproxy::step); one counter declaration (trace::counters!); one scenario build (incast_core::scenario)"
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
if git grep -l -e 'BatchSink::start' -e 'ShardedRelay::start' -- crates/bench/src examples ':!crates/bench/src/live.rs'; then echo "a second live-relay driver in bench or the examples (every live run goes through bench::live::run)" >&2; exit 1; fi
if grep -n -e 'Instant' -e 'SystemTime' crates/netproxy/src/step.rs; then echo "the shard step reads a clock (it takes the run loop's reading as now_ns)" >&2; exit 1; fi
# Every simulated run is a `Scenario` (`incast_core::scenario`): an engine
# is constructed only by the simulator itself, the benchmark, the
# scenario's build, and the tests named here, which drive the simulator
# below the incast level (timer churn and port traces; scheme wiring).
ENGINE_ALLOW=(tests/timer_identity.rs crates/core/src/scheme.rs)
if git grep -n -e 'Simulator::new' -e 'FleetSim::new' -e 'FleetSim::with_partition' -- '*.rs' \
  ':!crates/dcsim' ':!crates/perf' ':!crates/core/src/scenario.rs' "${ENGINE_ALLOW[@]/#/:!}"; then
  echo "a simulated run is built by hand (describe it as a Scenario, or name the test in ENGINE_ALLOW)" >&2; exit 1
fi
if grep -rn -E 'env::var(_os)?\b' crates/dcsim/src crates/core/src; then echo "dcsim or incast_core reads an environment variable (a setting lives in a config field or a constant)" >&2; exit 1; fi
# A brace struct whose every field is an integer is a counter set, and a
# counter set is declared through `trace::counters!` (whose fields carry no
# type, so it never matches here). Configs, handles and per-gap records are
# named below.
COUNTER_STRUCTS="$(awk -v allow=' SignatureConfig LossDetectorConfig TwoDcLayout Fifo TimerHandle Pending Declared ' '
  /^[[:space:]]*(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]+ *\{ *$/ {
    name = $0; sub(/^.*struct /, "", name); sub(/[ {].*$/, "", name); open = 1; fields = 0; ints = 1; next
  }
  open && /^[[:space:]]*\}/ { if (fields && ints && index(allow, " " name " ") == 0) print FILENAME ": struct " name; open = 0; next }
  open && /^[[:space:]]*(\/\/|#)/ { next }
  open && /:/ { fields++; if ($0 !~ /:[[:space:]]*[ui](8|16|32|64|128|size),?[[:space:]]*$/) ints = 0 }
' $(git ls-files 'crates/dcsim/src/*.rs' 'crates/core/src/*.rs' 'crates/netproxy/src/*.rs'))"
if [ -n "$COUNTER_STRUCTS" ]; then echo "$COUNTER_STRUCTS"; echo "an integer counter struct is declared by hand (declare it through trace::counters!)" >&2; exit 1; fi

echo "== scripts parse (bash -n)"
bash -n scripts/pairs.sh

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

echo "== loom (bounded-exhaustive interleaving models of the shard stats flush and the fault stats)"
RUSTFLAGS="--cfg loom" cargo test --offline -p netproxy --test loom -q

echo "== netproxy loadgen smoke (every relay path × socket layer, ledger-verified)"
cargo run --release --offline -q -p bench --bin netproxy_load -- --smoke

echo "== live figures (naive TCP proxy + one-shard relay on loopback; fig4 asserts the proxy lost no bytes, fig5 batch span / decision >= 10x and a balanced ledger)"
cargo run --release --offline -q -p bench --bin fig4 -- --quick
cargo run --release --offline -q -p bench --bin fig5 -- --quick

# Each asserts its own result; their stdout is deterministic and must match
# what is recorded.
echo "== simulated examples (README quickstart, MoE dispatch, global orchestrator, declaration planner, operator loop; stdout == examples/expected/<name>.txt, ~14 s)"
for example in quickstart moe_training orchestrated_incasts storage_reconstruction operator_loop; do
  cargo run --release --offline -q --example "$example" | diff - "examples/expected/$example.txt"
done

# Six 2-3 s scenarios, run one at a time: ~20 s on 2 vCPUs. A failure
# shrinks in at most 8 runs of ~3.5 s, so a failing campaign ends within
# about 3 minutes even if every scenario fails.
echo "== soak fuzz (the live relay under fault plans, mid-run crash/wedge and the shed ladder, ledger-verified; repros land in target/fuzz-repros)"
cargo run --release --offline -q -p bench --bin fuzz -- --soak --count 6 --start-seed 1 --shrink-budget 8

echo "== chaos fuzz (bounded campaign, fixed seed range; repros land in target/fuzz-repros)"
cargo run --release --offline -q -p bench --bin fuzz -- --count 500 --start-seed 1

echo "== control-plane fuzz (shard crashes, stale placements, gossip slower than lease expiry)"
cargo run --release --offline -q -p bench --bin fuzz -- --control-plane --count 500 --start-seed 0

echo "== fleet (hybrid sharded engine: --threads 1, 2 and 3 print the recorded counts exactly)"
cargo build --release --offline -q -p bench --bin fleet
# The three count lines (events, TxDones never scheduled, saved events,
# windows, cross-shard packets; lane churn; port-queue peak and packet-pool
# blocks), wall-clock field stripped.
fleet_counts() {
  sed -n -e 's/ in [0-9.]*s wall//p' -e '/event queue:/p' -e '/port queues:/p'
}
# What `fleet --quick` prints. A change that moves pop order, an event
# count or the window schedule fails here, and so does one that grows
# queue memory: the third line counts pool blocks, which no allocator or
# thread count moves. A change that means to move them re-records these
# lines.
FLEET_EXPECTED="  225005 events + 619 TxDones never scheduled + 313692 saved = 539316 effective (13 windows, 29026 cross-shard packets)
  event queue: 201838 inserts appended to a lane, 23247 pushed into the heap; lanes refused an offer 11579 times
  port queues: 13309 packets queued at once at peak, 457 pool blocks, summed over the shards"
FLEET_T1_OUT="$(target/release/fleet --quick --threads 1)"
# Shown, never compared: memory varies with the allocator and the box.
grep 'peak RSS' <<<"$FLEET_T1_OUT" || true
diff <(echo "$FLEET_EXPECTED") <(fleet_counts <<<"$FLEET_T1_OUT")
# --quick has 4 shards: 3 threads split them unevenly.
for threads in 2 3; do
  diff <(echo "$FLEET_EXPECTED") <(target/release/fleet --quick --threads "$threads" | fleet_counts)
done

# Last: it builds from crates/perf, whose .cargo/config.toml patch table (all
# unused now; cargo warns and goes on) re-resolves the gitignored Cargo.lock.
echo "== benchmark smoke (BENCHMARK.json's offline build + all six workloads, untraced and traced, every correctness check)"
bash crates/perf/smoke.sh

echo "All checks passed."
