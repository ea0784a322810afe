#!/usr/bin/env bash
# The benchmark driver's entry point (the "command" of BENCHMARK.json),
# run from the root of a checkout:
#
#   bash crates/perf/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds incast-perf from source — offline, against the stand-ins under
# .offline-stubs/ — and runs one workload; the last line of standard output is the
# result JSON. In a directory that lacks the rest of the repository the
# build fails and this exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
# Cargo reads .cargo/config.toml from its working directory upward, so it
# must run from crates/perf for the [patch.crates-io] table to apply.
(cd "$here" && CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet -p incast-perf) >&2
exec "$target/release/incast-perf" bench "$@"
