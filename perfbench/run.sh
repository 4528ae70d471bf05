#!/usr/bin/env bash
# Builds the release `freqywm` binary and the benchmark from source, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload verify --seed 1 --seconds 32 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (Cargo.toml, crates/cli and perfbench/ must exist)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p freqywm-cli --bin freqywm >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2

target="$CARGO_TARGET_DIR"
[[ "$target" = /* ]] || target="$PWD/$target"
exec "$target/release/freqywm-perfbench" --freqywm-bin "$target/release/freqywm" "$@"
