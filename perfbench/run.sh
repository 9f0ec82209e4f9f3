#!/bin/sh
# The benchmark's entry point (BENCHMARK.json's `command`), run from the
# root of a checkout: builds both executables — `perfbench` and the
# `sim-shard-worker` that `scale-pipe` spawns; `cargo run` would build only
# the first — then hands every argument to `perfbench`.
set -e
cargo build --release --quiet --manifest-path perfbench/Cargo.toml --bins
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
