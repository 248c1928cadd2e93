#!/usr/bin/env bash
# Tier-1 verification gate. Run before every merge.
#
#   ./ci.sh                # full gate: fmt, clippy, release build, tests
#   ./ci.sh --fast         # skip the release build (debug build via tests)
#   ./ci.sh --subset       # fast perf tier: gate only the representative
#                          # workload subset from charmap.json
#
# Every `reproduce` pass gate (profile, charmap, SLO,
# BENCH_RESULTS.json drift, chaos seeds, tsdb) is a row of
# crates/bench/tests/passes.rs, so `cargo test --workspace` runs them
# all, byte-diffing two runs of each seed-fixed pass. Fault recovery
# is crates/mapreduce/tests/faults.rs, in the same run and in the
# concurrency loop below; wall-clock numbers come from wallbench.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
subset=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        --subset) subset=1 ;;
        *) echo "usage: $0 [--fast] [--subset]" >&2; exit 2 ;;
    esac
done

run() {
    echo "== $* =="
    "$@"
}

if [ "$subset" -eq 1 ]; then
    # Representative-subset fast tier: run only the workloads the
    # characterization map selected (one per cluster, committed in
    # charmap.json) against the committed BENCH_RESULTS.json. This is
    # the cheap per-PR perf gate; the full gate re-derives the map and
    # enforces the subset stability rule.
    # The SLO pass rides along for the representative serving workload
    # only (the committed subset holds no serving workload, so the pass
    # falls back to Nutch); the binary gates the burn-rate alert and
    # chain reconstruction in-process.
    # One shortened chaos campaign rides along (--bench-subset makes
    # --chaos pick the short fault schedules); the binary gates every
    # invariant checker plus forced failover/read-repair in-process.
    # A shortened time-series scrape rides along too (--bench-subset
    # makes --tsdb shrink the traced-write run and both serving
    # phases); the binary gates chain completeness, stored-vs-live
    # quantile agreement and the recording-rule replay in-process.
    # The binary refuses to write an empty artifact, so exit 0 means
    # every report was written.
    slodir="$(mktemp -d)"
    chaosdir="$(mktemp -d)"
    tsdbdir="$(mktemp -d)"
    trap 'rm -rf "$slodir" "$chaosdir" "$tsdbdir"' EXIT
    run cargo run --release -q -p bdb-bench --bin reproduce -- \
        --fraction 0.02 --bench-baseline BENCH_RESULTS.json \
        --bench-subset charmap.json --slo "$slodir" --chaos 7 "$chaosdir" \
        --tsdb "$tsdbdir"
    echo "ci: subset tier passed"
    exit 0
fi

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
if [ "$fast" -eq 0 ]; then
    run cargo build --workspace --release
fi
run cargo test --workspace -q

if [ "$fast" -eq 0 ]; then
    # Benchmark build guard: wallbench is its own package outside the
    # workspace, so only this step notices when an engine API change
    # breaks it. Cargo refreshes wallbench's stale Cargo.lock on every
    # build; the committed copy is put back whatever the outcome.
    wblock="$(mktemp)"
    cp wallbench/Cargo.lock "$wblock"
    wbstatus=0
    run cargo test --release --offline -q --manifest-path wallbench/Cargo.toml || wbstatus=$?
    cp "$wblock" wallbench/Cargo.lock
    rm -f "$wblock"
    if [ "$wbstatus" -ne 0 ]; then
        echo "ci: wallbench does not build or its tests fail" >&2
        exit 1
    fi

    # Concurrency guard: these suites run jobs in parallel test threads
    # that share the temp directory, so a name collision or scheduling
    # race shows up only some of the time. The kvstore suites keep
    # SSTable handles open across flush and compaction. The query
    # kernels merge worker results by morsel index, so an ordering bug
    # that depends on which worker ran which morsel shows up only in
    # some runs of the SQL differential suites. Ten rounds; the first
    # failure stops the gate.
    for round in $(seq 1 10); do
        echo "== concurrency suites, round $round/10 =="
        cargo test -q -p bdb-mapreduce \
            --test concurrent_spill --test faults --test proptest_engine
        cargo test -q -p bdb-integration --test telemetry_trace --test bench_results \
            --test columnar_differential
        cargo test -q -p bdb-kvstore --test crash --test proptest_store
        cargo test -q -p bdb-sql --test proptest_sql
    done
fi

echo "ci: all gates passed"
