#!/usr/bin/env bash
# Every workload at smoke size, untraced and traced, every check on (about 10 s after the build).
cd "$(dirname "${BASH_SOURCE[0]}")" && exec cargo run --release --offline --quiet -p incast-perf -- run --all --trace --smoke --seconds 1
