#!/usr/bin/env bash
# Build, selftest, then every workload end to end and traced; one exit
# code. Run from anywhere; results land in servebench/out/.
#
#   servebench/run.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-25}"
manifest=servebench/Cargo.toml
results="servebench/out/results-seed${seed}.jsonl"

cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest" -q
bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

bench selftest
mkdir -p servebench/out
rm -f "$results"
for workload in mem_dense durable_churn replicated_churn interactive_rw; do
    for trace in 0 1; do
        echo "# $workload trace=$trace"
        bench run --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$results"
    done
done
echo "results: $results (compare two such files with: servebench compare a.jsonl b.jsonl)"
