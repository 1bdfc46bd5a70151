#!/usr/bin/env bash
# Builds the benchmark and the `softermax-server` binary from this
# checkout's sources, then runs one workload. Run from anywhere:
#
#   bash perfbench/run.sh --workload remote-small --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
cargo build --release --offline --quiet -p softermax-server 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/softermax-server" "$@"
