#!/usr/bin/env bash
# Builds the server CLI and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload certain-hot --seed 7 --seconds 25 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build); results and traces go to bench-out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin vqd-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin benchmark >&2
exec "$CARGO_TARGET_DIR/release/benchmark" --server "$CARGO_TARGET_DIR/release/vqd-cli" "$@"
