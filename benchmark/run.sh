#!/bin/sh
# Build the benchmark, then run the end-to-end pass and the per-layer
# (traced) pass, all offline. Extra arguments (--seed N, --seconds S)
# go to both passes. Results land in benchmark/out/.
set -eu
manifest="$(dirname "$0")/Cargo.toml"
cargo build --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run "$@"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --traced "$@"
