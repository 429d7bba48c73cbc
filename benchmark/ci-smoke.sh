#!/usr/bin/env bash
# Build the benchmark, run its self-tests, and smoke every workload
# (untraced + traced, a few seconds in all). Run from anywhere; writes only
# under benchmark/out and the cargo target directory. Not wired into
# .github/workflows/ci.yml yet — a later change does that.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- all --smoke
