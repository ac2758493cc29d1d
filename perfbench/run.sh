#!/usr/bin/env bash
# Build the mas_serve server and the benchmark from this checkout, then run
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload relax-small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Cargo's output goes to stderr; the last
# line on stdout is the benchmark's JSON result.
set -euo pipefail
root="$(pwd)"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin mas_serve >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$target/release/perfbench" --mas-serve "$target/release/mas_serve" "$@"
