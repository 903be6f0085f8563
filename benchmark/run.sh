#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                       every workload, then the traced
#                                          pass, into benchmark/out/result.json
#   benchmark/run.sh --quick               the same as a smoke run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the last line of standard
#                                          output is its result
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
case "${1:-}" in
    "" | --seed | --seconds | --runs | --quick | --out) exec "$bin" suite "$@" ;;
    *) exec "$bin" "$@" ;;
esac
