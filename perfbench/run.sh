#!/usr/bin/env bash
# Builds the shipped `phpsafe` binary and the benchmark harness from the
# checkout's sources, then runs the harness. Run from the checkout root:
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build output goes to stderr; the harness prints its JSON result as the
# last line of stdout.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p phpsafe --bin phpsafe >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
if commit=$(git rev-parse HEAD 2>/dev/null); then
    export PERFBENCH_COMMIT="$commit"
else
    # Not a git checkout: identify the sources by digest instead.
    export PERFBENCH_COMMIT="tree-$(find crates perfbench/src -type f -name '*.rs' | LC_ALL=C sort | xargs cat | cksum | cut -d' ' -f1)"
fi
"$target/release/perfbench" --phpsafe "$target/release/phpsafe" "$@"
