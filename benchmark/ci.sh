#!/usr/bin/env bash
# One line for CI: build the benchmark, run its tests, run every workload
# at smoke scale in both flavours, then check twice in a row that the
# waterfall's top rung reproduces the end-to-end figure on
# tcp_small_stream (closure within 0.9–1.1). Exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")"

bench() { cargo run --release --offline --quiet -- "$@"; }

cargo build --release --offline
cargo test --release --offline --quiet
bench --all --smoke --trace 0 >/dev/null
bench --all --smoke --trace 1 >/dev/null

for attempt in 1 2; do
    closure=$(bench --workload tcp_small_stream --trace 1 | tail -n 1 |
        sed -n 's/.*"waterfall.closure_share": {"value": \([-0-9.e]*\).*/\1/p')
    echo "tcp_small_stream closure_share (run $attempt): $closure"
    awk -v c="$closure" 'BEGIN { exit !(c >= 0.9 && c <= 1.1) }' ||
        { echo "closure outside 0.9-1.1" >&2; exit 1; }
done
echo "benchmark ci: ok"
