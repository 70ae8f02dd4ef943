#!/usr/bin/env bash
# Builds the benchmark (release, offline, its own workspace) and runs it.
#   benchmark/run.sh <workload> [--seed S] [--seconds T] [--trace]
#   benchmark/run.sh --workload <name> --seed <n> --seconds <t> --trace <0|1>
#   benchmark/run.sh --selftest | --check-repeat | --manifest
# Run from the repository root or anywhere else; cargo's output goes to
# stderr, so the last line of stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/thinc-benchmark" "$@"
