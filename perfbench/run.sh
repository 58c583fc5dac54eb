#!/usr/bin/env bash
# Builds the shipped `fta` binary and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-table1 --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build); instance files, journals and span dumps go to
# .bench_work. Cargo's messages go to stderr, so the last line of stdout
# is the benchmark's result.
set -euo pipefail
root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac
cargo build --release --offline --locked --quiet --manifest-path "$root/Cargo.toml" -p fta-cli >&2
cargo build --release --offline --locked --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
# One glibc malloc arena per hardware thread (the pool's width): otherwise
# the number of arenas, and with it peak RSS, follows thread start-up races.
export MALLOC_ARENA_MAX="$(nproc)"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --fta-bin "$CARGO_TARGET_DIR/release/fta" --work-dir "$root/.bench_work"
