#!/usr/bin/env bash
# Alternating pair runs of one benchmark workload: a parent revision
# against this checkout as it stands (uncommitted edits included).
#
#   scripts/pairs.sh PARENT_REV WORKLOAD SEED PAIRS [SECONDS]   # SECONDS: 15
#
# The parent is exported with `git archive` into target/pairs/<rev>/src;
# `git archive` rather than a worktree, so .git gains no metadata. Each side
# is built by its own crates/perf/bench.sh into its own target directory
# (target/pairs/<rev>/target, target/pairs/change), first with one --smoke
# run per side that is not counted. Runs strictly alternate and the side
# that goes first alternates per pair; every run's result line is printed.
# Then, per end-to-end metric of BENCHMARK.json: each side's q1 / median /
# q3 (linear interpolation) and the pairs the change won (strictly better
# in the metric's direction). Exits non-zero if any run is not `correct`
# or has `failed` > 0. Build or test nothing else while it runs.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
  echo "usage: scripts/pairs.sh PARENT_REV WORKLOAD SEED PAIRS [SECONDS]" >&2
  exit 2
fi
rev="$(git rev-parse --short "$1^{commit}")"
workload="$2" seed="$3" pairs="$4" seconds="${5:-15}"

work="$PWD/target/pairs"
parent="$work/$rev/src"
if [ ! -d "$parent" ]; then
  rm -rf "$parent.part" && mkdir -p "$parent.part"
  git archive "$rev" | tar -x -C "$parent.part"
  mv "$parent.part" "$parent"
fi
declare -A root=([parent]="$parent" [change]="$PWD")
declare -A target=([parent]="$work/$rev/target" [change]="$work/change")
runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

# One run of one side: the result JSON (bench.sh's last stdout line).
run() {
  CARGO_TARGET_DIR="${target[$1]}" bash "${root[$1]}/crates/perf/bench.sh" \
    --workload "$workload" --seed "$seed" --seconds "$2" --trace 0 "${@:3}" | tail -n 1
}

for side in parent change; do
  echo "== building $side (${root[$side]}) with one uncounted --smoke run"
  run "$side" 1 --smoke >/dev/null
done

echo "== $workload, seed $seed, $pairs pairs of ${seconds} s: parent $rev vs this checkout"
for ((i = 0; i < pairs; i++)); do
  order=(parent change)
  if ((i % 2)); then order=(change parent); fi
  for side in "${order[@]}"; do
    line="$(run "$side" "$seconds")"
    echo "$line" >"$runs/$side.$i.json"
    echo "pair $i $side $(jq -c '{correct, failed} + (.metrics | map_values(.value))' <<<"$line")"
  done
done

runs_of() { for ((i = 0; i < pairs; i++)); do cat "$runs/$1.$i.json"; done; }
jq -n -r --slurpfile bench BENCHMARK.json --slurpfile parent <(runs_of parent) \
  --slurpfile change <(runs_of change) '
  def sig: if . == 0 then 0 else (3 - (fabs | log10 | floor)) as $e
    | if $e >= 0 then pow(10; $e) as $k | . * $k | round / $k
      else pow(10; -$e) as $k | . / $k | round * $k end end;
  def q($p): sort as $s | (($s | length - 1) * $p) as $x | ($x | floor) as $lo
    | $s[$lo] + ($s[[$lo + 1, ($s | length - 1)] | min] - $s[$lo]) * ($x - $lo);
  def qs: "\(q(0.25) | sig) / \(q(0.5) | sig) / \(q(0.75) | sig)";
  "| metric | parent q1 / median / q3 | change q1 / median / q3 | Δ median | pairs won |",
  "|---|---|---|---|---|",
  ($bench[0].end_to_end[] as $m
    | [$parent[] | .metrics[$m.name].value] as $p
    | [$change[] | .metrics[$m.name].value] as $c
    | [range($p | length) | select(if $m.better == "lower" then $c[.] < $p[.] else $c[.] > $p[.] end)] as $won
    | "| `\($m.name)` | \($p | qs) | \($c | qs) | \(($c | q(0.5)) / ($p | q(0.5)) * 1000 - 1000 | round / 10) % | \($won | length)/\($p | length) |")'

bad="$(cat "$runs"/*.json | jq -s '[.[] | select(.correct != true or .failed > 0)] | length')"
if [ "$bad" -gt 0 ]; then
  echo "$bad run(s) not correct or with failed > 0" >&2
  exit 1
fi
