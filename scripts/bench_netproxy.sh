#!/usr/bin/env bash
# netproxy datapath snapshot: runs the netproxy criterion suites (zero-copy
# parse / in-place NACK rewrite / zero-alloc staging CPU paths, plus
# proxy_datapath's per-call `decide` and wire codec), then the
# netproxy_load throughput harness — the single-datagram baseline at its
# zero-loss ceiling vs. the batched sharded relay at high load, a shard
# scaling curve, and the naive/streamlined/detecting comparison under
# trimming (the live-socket rerun of the paper's Figs 4–5 gap) — and
# writes everything to BENCH_netproxy.json. scripts/perfgate.sh holds
# fresh criterion medians against this file.
#
# The batched/single speedup is asserted >= NETPROXY_MIN_SPEEDUP
# (default 5, the repro target from the PR acceptance criteria); set
# NETPROXY_MIN_SPEEDUP=0 to record without gating on a loaded host.
#
#   scripts/bench_netproxy.sh            # criterion + loadgen sweep
#   scripts/bench_netproxy.sh --offline  # offline criterion stub, same sweep
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
for arg in "$@"; do
  case "$arg" in
    --offline) OFFLINE=(--offline) ;;
    *) echo "unknown argument: $arg (only --offline is supported)" >&2; exit 2 ;;
  esac
done

OUT=BENCH_netproxy.json
MIN_SPEEDUP="${NETPROXY_MIN_SPEEDUP:-5}"

echo "== cargo bench (netproxy + proxy_datapath suites)"
cargo bench "${OFFLINE[@]}" -q -p bench --bench netproxy --bench proxy_datapath

echo "== building netproxy_load"
cargo build --release "${OFFLINE[@]}" -q -p bench --bin netproxy_load
BIN=target/release/netproxy_load

# Offered rates: the single-datagram relay (one recvfrom/sendto per
# packet) holds zero loss up to ~18k pps on the reference box and
# saturates just past it; the batched relay held zero loss at 300k with
# GSO alone (PR 12; it lost datagrams at 450k) and holds it at 1M — and
# at 1.2M and 1.5M when tried — since trains also land whole (GRO,
# PR 15), with loadgen, relay and sink sharing the box's 2 vCPUs.
# Driving each architecture at its own ceiling compares sustained
# zero-loss throughput rather than drop behavior.
SINGLE_RATE="${NETPROXY_SINGLE_RATE:-18000}"
BATCHED_RATE="${NETPROXY_BATCHED_RATE:-1000000}"
DURATION_MS=800
RUNS=3

best_run() { # $* = netproxy_load args; prints the run with max relayed pps
  local best_line="" best_rate=0 line rate
  for _ in $(seq 1 "$RUNS"); do
    line=$("$BIN" "$@" --duration-ms "$DURATION_MS" --json)
    rate=$(printf '%s' "$line" | python3 -c '
import json, sys
r = json.load(sys.stdin)
print(int(r["relay_forwarded"] * r["achieved_pps"] / max(r["sent"], 1)))')
    if [ "$rate" -gt "$best_rate" ]; then best_rate=$rate; best_line=$line; fi
  done
  printf '%s' "$best_line"
}

echo "== single-datagram baseline at its zero-loss ceiling (${SINGLE_RATE} pps offered, best of $RUNS)"
SINGLE=$(best_run --variant single --threads 1 --rate "$SINGLE_RATE")
echo "$SINGLE"

echo "== batched sharded relay at high load (${BATCHED_RATE} pps offered, best of $RUNS)"
BATCHED=$(best_run --variant streamlined --layer auto --threads 1 --shards 1 --rate "$BATCHED_RATE")
echo "$BATCHED"

echo "== shard scaling curve (${BATCHED_RATE} pps offered)"
SCALING=$(mktemp)
CORES=$(nproc 2>/dev/null || echo 1)
# What box the numbers are from (same stamp as scripts/bench.sh): they are
# only comparable to a baseline recorded on the same CPU model and core count.
CPU_MODEL=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
[ -n "$CPU_MODEL" ] || CPU_MODEL=$(sysctl -n machdep.cpu.brand_string 2>/dev/null || true)
[ -n "$CPU_MODEL" ] || CPU_MODEL=unknown
SHARD_POINTS="1 2"
if [ "$CORES" -ge 4 ]; then SHARD_POINTS="1 2 4"; fi
for s in $SHARD_POINTS; do
  echo "-- shards=$s"
  best_run --variant streamlined --layer auto --threads 1 --shards "$s" \
    --rate "$BATCHED_RATE" | tee -a "$SCALING"
  echo >> "$SCALING"
done

echo "== proxy comparison under trimming (Figs 4–5 rerun: 60k pps offered, 20% trimmed)"
COMPARE=$(mktemp)
for v in naive streamlined detecting; do
  echo "-- variant=$v"
  best_run --variant "$v" --layer auto --threads 1 --shards 1 \
    --rate 60000 --trim 0.2 | tee -a "$COMPARE"
  echo >> "$COMPARE"
done

echo "== writing $OUT"
GIT_REV=$(git describe --always --dirty 2>/dev/null || echo unknown)
python3 - "$OUT" "$GIT_REV" "$CORES" "$SINGLE" "$BATCHED" "$SCALING" "$COMPARE" \
  "$MIN_SPEEDUP" "$CPU_MODEL" <<'PY'
import json, os, sys

(out, rev, cores, single_line, batched_line, scaling_file, compare_file,
 min_speedup, cpu_model) = sys.argv[1:10]

def relayed_pps(r):
    return round(r["relay_forwarded"] * r["achieved_pps"] / max(r["sent"], 1))

def trim_run(r):
    keep = ("variant", "layer", "threads", "flows", "shards", "rate_pps",
            "trim", "payload", "sent", "delivered", "trimmed_sent",
            "nacks_received", "achieved_pps", "sink_received",
            "sink_trimmed", "p50_us", "p99_us", "p999_us",
            "relay_forwarded", "relay_nacks", "relay_dropped",
            "relay_send_errors", "relay_max_batch")
    slim = {k: r[k] for k in keep if k in r}
    slim["relayed_pps"] = relayed_pps(r)
    return slim

single = json.loads(single_line)
batched = json.loads(batched_line)
speedup = relayed_pps(batched) / max(relayed_pps(single), 1)

def load_lines(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]

summary = {
    "suite": "netproxy",
    "git_rev": rev,
    "cores": int(cores),
    "cpu_model": cpu_model,
    "baseline_gap": {
        "single_datagram": trim_run(single),
        "batched_sharded": trim_run(batched),
        "speedup_relayed": round(speedup, 2),
        "note": "each architecture driven at its zero-loss ceiling; "
                "relayed_pps = relay_forwarded / elapsed",
    },
    "shard_scaling": [trim_run(r) for r in load_lines(scaling_file)],
    "proxy_comparison": {r["variant"]: trim_run(r)
                         for r in load_lines(compare_file)},
    "criterion": {},
}
roots = [r for r in ("target/criterion", "crates/bench/target/criterion")
         if os.path.isdir(r)]
for root in roots:
  for dirpath, _dirs, files in os.walk(root):
    if "estimates.json" in files and dirpath.endswith(os.sep + "new"):
        bench = os.path.relpath(os.path.dirname(dirpath), root).replace(os.sep, "/")
        if not bench.startswith(("netproxy_", "streamlined_decision/", "wire_format/")):
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
print(f"wrote {out}: single {relayed_pps(single)} pkts/sec, "
      f"batched {relayed_pps(batched)} pkts/sec ({speedup:.1f}x)")
if float(min_speedup) > 0 and speedup < float(min_speedup):
    print(f"bench_netproxy: speedup {speedup:.1f}x below the {min_speedup}x "
          "target (set NETPROXY_MIN_SPEEDUP=0 to record anyway)")
    sys.exit(1)
PY
rm -f "$SCALING" "$COMPARE"
