#!/usr/bin/env bash
# Runs every wallbench workload once untraced (end-to-end metrics) and
# once traced (per-layer metrics), from the repository root.
#
#   wallbench/run_all.sh [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-24}"
for workload in wordcount sort-spill oltp-mixed query; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path wallbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
