#!/usr/bin/env bash
# Tier-1 verification gate. Run before every merge.
#
#   ./ci.sh                # full gate: fmt, clippy, rustdoc, release build, a
#                          # figure smoke (reproduce --all at fraction 0.02), tests,
#                          # wallbench's tests and a one-second correctness
#                          # smoke of each wallbench workload
#   ./ci.sh --fast         # skip the release build (debug build via tests)
#
# Every `reproduce` pass gate (profile, charmap, SLO,
# BENCH_RESULTS.json, chaos seeds, tsdb) is a row of
# crates/bench/tests/passes.rs, so `cargo test --workspace` runs them
# all, checking both runs of each seed-fixed pass against one pin table
# (the committed BENCH_RESULTS.json and charmap.json byte for byte,
# every other file by length and FNV-1a). Fault recovery
# is crates/mapreduce/tests/faults.rs, in the same run and in the
# concurrency loop below; wall-clock numbers come from wallbench.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
    esac
done

run() {
    echo "== $* =="
    "$@"
}

# Benchmark correctness smoke: wallbench exits 0 even when its output
# check fails, so each workload runs for one second at benchmark scale
# and its last line, the result JSON, must report a correct run with
# no failed operation.
wallbench_smoke() {
    local workload result
    for workload in wordcount sort-spill oltp-mixed query; do
        echo "== wallbench --workload $workload --seed 1 --seconds 1 =="
        result="$(cargo run --release --offline -q --manifest-path wallbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)" || return 1
        case "$result" in
            *'"correct": true,'*'"failed": 0,'*) ;;
            *)
                echo "ci: wallbench $workload output check failed: $result" >&2
                return 1
                ;;
        esac
    done
}

# `--locked` on every root-workspace cargo call: a manifest edit that
# was not carried into Cargo.lock fails the gate instead of silently
# rewriting the lockfile.
run cargo fmt --all -- --check
# wallbench is its own workspace, so the root call does not reach it.
run cargo fmt --manifest-path wallbench/Cargo.toml -- --check
run cargo clippy --locked --workspace --all-targets -- -D warnings
# Rustdoc gate: a stale intra-doc link (often left behind when code is
# deleted) fails here rather than only in a rendered doc page.
run env RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --offline
if [ "$fast" -eq 0 ]; then
    run cargo build --locked --workspace --release
    # Figure smoke: no test runs Figures 2–6, so the release binary
    # draws every paper section once at a small fraction. It must exit
    # 0 (the pass fails on an empty artifact) and write all five
    # figures. The figures are not pinned here; passes.rs holds the
    # only pin table.
    figdir="$(mktemp -d)"
    echo "== reproduce --fraction 0.02 --all --json DIR =="
    figstatus=0
    cargo run --locked --release -q -p bdb-bench --bin reproduce -- \
        --fraction 0.02 --all --json "$figdir" > /dev/null || figstatus=$?
    for n in 2 3 4 5 6; do
        [ -s "$figdir/fig$n.json" ] || figstatus=1
    done
    rm -rf "$figdir"
    if [ "$figstatus" -ne 0 ]; then
        echo "ci: reproduce --all failed or did not write fig2.json to fig6.json" >&2
        exit 1
    fi
fi
run cargo test --locked --workspace -q

if [ "$fast" -eq 0 ]; then
    # Benchmark build guard: wallbench is its own package outside the
    # workspace, so only this step notices when an engine API change
    # breaks it. Cargo refreshes wallbench's stale Cargo.lock on every
    # build; the committed copy is put back whatever the outcome.
    wblock="$(mktemp)"
    cp wallbench/Cargo.lock "$wblock"
    wbstatus=0
    run cargo test --release --offline -q --manifest-path wallbench/Cargo.toml || wbstatus=$?
    if [ "$wbstatus" -eq 0 ]; then
        wallbench_smoke || wbstatus=$?
    fi
    cp "$wblock" wallbench/Cargo.lock
    rm -f "$wblock"
    if [ "$wbstatus" -ne 0 ]; then
        echo "ci: wallbench does not build, its tests fail or a workload's output is wrong" >&2
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
        cargo test --locked -q -p bdb-mapreduce \
            --test concurrent_spill --test faults --test proptest_engine
        cargo test --locked -q -p bdb-integration --test telemetry_trace --test bench_results \
            --test columnar_differential
        cargo test --locked -q -p bdb-kvstore --test crash --test proptest_store
        cargo test --locked -q -p bdb-sql --test proptest_sql
    done
fi

# The size of the Rust tree, so each change's line count comes from
# the gate rather than a hand-run command.
rust_lines="$(find crates tests vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "ci: all gates passed ($rust_lines lines of Rust)"
