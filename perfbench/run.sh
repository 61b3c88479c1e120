#!/usr/bin/env bash
# Builds `brokerd` (from the repository's workspace) and the benchmark
# (its own package), then runs the benchmark. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload quarter-1.9pct --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh stats  RESULTS.jsonl...
#   bash perfbench/run.sh compare BASE.jsonl NEW.jsonl
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p bench --bin brokerd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
case "${1:-}" in
    stats | compare) exec "$target/release/perfbench" "$@" ;;
    *) exec "$target/release/perfbench" --brokerd "$target/release/brokerd" "$@" ;;
esac
