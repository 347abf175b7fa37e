#!/usr/bin/env bash
# Builds the benchmark in release mode, offline, and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result JSON
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, untraced then traced; writes benchmark/out/results.json
#   benchmark/run.sh --aa [--seed N]      two untraced sets compared to the bounds
#   benchmark/run.sh --spread [--seed N]  ten seeds per workload: spread beside each bound
#   benchmark/run.sh --quick              every workload at tiny sizes (smoke test)
#   benchmark/run.sh --print-spec         the text of BENCHMARK.json
#
# Run from the repo root or anywhere else: paths are resolved from this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Reuse the target directory the caller names, else one inside the root
# workspace's, else the package's own.
if [ -z "${CARGO_TARGET_DIR:-}" ]; then
    if [ -d "$root/target" ]; then
        export CARGO_TARGET_DIR="$root/target/benchmark"
    else
        export CARGO_TARGET_DIR="$here/target"
    fi
fi

# Build output goes to stderr so that stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

# One workload (or the spec) is the binary's job; everything that spans
# workloads runs them one process each through suite.py.
case " $* " in
    *" --aa "* | *" --spread "*) ;;
    *" --workload "* | *" --print-spec "*) exec "$CARGO_TARGET_DIR/release/silo-benchmark" "$@" ;;
esac
exec python3 "$here/suite.py" "$@"
