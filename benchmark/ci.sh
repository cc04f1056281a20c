#!/usr/bin/env bash
# CI smoke for the benchmark: its unit tests, then 3 rounds of every
# workload with all correctness checks (--quick, < 30 s), untraced and
# traced. Run from anywhere inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo test --release --quiet --manifest-path "$manifest"
cargo run --release --quiet --manifest-path "$manifest" -- --quick --trace 0
cargo run --release --quiet --manifest-path "$manifest" -- --quick --trace 1 --workload compile_cold
