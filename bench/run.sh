#!/usr/bin/env bash
# Build the daemon and the harness in release mode, then run the benchmark.
#
#   bench/run.sh                                  every workload, both passes
#   bench/run.sh --workload W --seed N            one workload, both passes
#   bench/run.sh --repeat 2                       two sets, then compare them
#   bench/run.sh --smoke                          tiny counts, a few seconds
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one pass; the last stdout
#                                                 line is the result object
#   bench/run.sh compare DIR_A DIR_B
#
# Everything is built from the sources of the checkout the script is in.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The program under test: the real daemon, built from the workspace as is.
cargo build --release --offline --quiet \
    --manifest-path crates/net/Cargo.toml --bin peerstripe-node
# The harness: a package of its own, outside the workspace.
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml

exec "$CARGO_TARGET_DIR/release/peerstripe-e2e" "$@"
