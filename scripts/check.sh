#!/usr/bin/env bash
# Repository hygiene gate: formatting, lints, the runner determinism
# suite, the property suites, a serial-vs-parallel smoke pass of the
# combined acceptance harness, and perfbench's tests plus a 2-second
# reference-digest smoke per workload. Fails on any diff, warning, test
# failure, digest mismatch, or byte divergence between --jobs 1 and
# --jobs N output.
#
# `--bench` additionally runs the perf section: the queue_bench fig4
# golden-digest smoke, the cluster_study byte-identity gate, and the
# wall-time regression gate (`bench_gate`) over a fresh BENCH_runner.json
# versus the committed trajectory. Set XC_BENCH_GATE=off to disarm the
# regression comparison on timing-noisy hosts (the byte gates still run).
set -euo pipefail
cd "$(dirname "$0")/.."

bench=0
for arg in "$@"; do
    case "$arg" in
        --bench) bench=1 ;;
        *) echo "usage: $0 [--bench]" >&2; exit 2 ;;
    esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets incl. feature-gated code, warnings are errors) =="
# The same proptest features the property-suite step below runs, so no
# property code goes unlinted.
cargo clippy --workspace --all-targets \
    --features xc-sim/proptest,xc-workloads/proptest,xc-faults/proptest,xc-verify/proptest,xc-verify/profile \
    --features xc-isa/proptest,xc-libos/proptest,xc-xen/proptest,xc-abom/proptest \
    --features xc-runtimes/proptest,xcontainers/proptest \
    -- -D warnings

echo "== runner determinism suite =="
cargo test -q -p xc-bench --test determinism

echo "== property suites (every crate's proptest feature on) =="
cargo test -q --workspace \
    --features xc-sim/proptest,xc-workloads/proptest,xc-faults/proptest,xc-verify/proptest \
    --features xc-isa/proptest,xc-libos/proptest,xc-xen/proptest,xc-abom/proptest \
    --features xc-runtimes/proptest,xcontainers/proptest

echo "== all_experiments --jobs 1 vs --jobs N smoke pass =="
cargo build -q --release -p xc-bench --bin all_experiments
bin=target/release/all_experiments
jobs=$(nproc 2>/dev/null || echo 4)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

t0=$(date +%s.%N)
"$bin" --jobs 1 >"$tmp/serial.out"
t1=$(date +%s.%N)
cp results/all_experiments.json "$tmp/serial.json"
"$bin" --jobs "$jobs" >"$tmp/parallel.out"
t2=$(date +%s.%N)
cp results/all_experiments.json "$tmp/parallel.json"

if ! diff -q "$tmp/serial.out" "$tmp/parallel.out" >/dev/null; then
    echo "FAIL: all_experiments stdout diverges between --jobs 1 and --jobs $jobs" >&2
    diff "$tmp/serial.out" "$tmp/parallel.out" >&2 || true
    exit 1
fi
if ! diff -q "$tmp/serial.json" "$tmp/parallel.json" >/dev/null; then
    echo "FAIL: results/all_experiments.json diverges between --jobs 1 and --jobs $jobs" >&2
    exit 1
fi
awk -v s="$t0" -v m="$t1" -v p="$t2" -v j="$jobs" 'BEGIN {
    printf "ok: identical output at --jobs 1 (%.1fs) and --jobs %s (%.1fs, incl. serial self-check)\n",
        m - s, j, p - m
}'

echo "== chaos_study --quick --jobs 1 vs --jobs N byte-identity gate =="
cargo build -q --release -p xc-bench --bin chaos_study
target/release/chaos_study --quick --jobs 1 >"$tmp/chaos-serial.out"
cp results/chaos.json "$tmp/chaos-serial.json"
target/release/chaos_study --quick --jobs "$jobs" >"$tmp/chaos-parallel.out"
cp results/chaos.json "$tmp/chaos-parallel.json"
if ! diff -q "$tmp/chaos-serial.out" "$tmp/chaos-parallel.out" >/dev/null; then
    echo "FAIL: chaos_study stdout diverges between --jobs 1 and --jobs $jobs" >&2
    diff "$tmp/chaos-serial.out" "$tmp/chaos-parallel.out" >&2 || true
    exit 1
fi
if ! diff -q "$tmp/chaos-serial.json" "$tmp/chaos-parallel.json" >/dev/null; then
    echo "FAIL: results/chaos.json diverges between --jobs 1 and --jobs $jobs" >&2
    exit 1
fi
if grep -q "VIOLATED" "$tmp/chaos-serial.out"; then
    echo "FAIL: chaos_study reports a conservation violation" >&2
    exit 1
fi
echo "ok: chaos sweep byte-identical at --jobs 1 and --jobs $jobs, all ledgers balanced"

echo "== panic isolation smoke: a poisoned cell must not abort the grid =="
cargo test -q -p xc-bench --test determinism panicking_cell_is_isolated_from_the_grid

echo "== coverage regression gate: verify_lint --quick (golden digest, coverage floor, Unknown ceiling) =="
cargo build -q --release -p xc-bench --bin verify_lint
target/release/verify_lint --quick

echo "== perfbench: its unit tests and a reference-digest smoke per workload =="
# perfbench exits 0 even when cells fail, so the smoke reads the verdict
# from the JSON on its last stdout line; at --seed 2019 every cell digest
# must match perfbench/digests/<workload>.txt.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml
for workload in cluster-open closed-loop abom-corpus; do
    last=$(perfbench/target/release/perfbench --workload "$workload" \
        --seed 2019 --seconds 2 --trace 0 | tail -n 1)
    if ! grep -q '"correct":true' <<<"$last"; then
        echo "FAIL: perfbench $workload diverges from its reference digests: $last" >&2
        exit 1
    fi
done
echo "ok: perfbench reproduces the reference digests on every workload"

echo "== crash-safety smoke: interrupted cluster_study --quick resumes byte-identically =="
# Reference run, then a journaled run halted mid-grid (exit 3 = resumable),
# then --resume; the merged output and findings ledger must byte-match the
# uninterrupted run and the retired journal must be gone (DESIGN.md §4j).
# Pinned to --jobs 2 so --halt-after 8 always leaves cells for the resume.
cargo build -q --release -p xc-bench --bin cluster_study
target/release/cluster_study --quick --jobs 2 >"$tmp/resume-ref.out"
cp results/cluster.json "$tmp/resume-ref.json"
rc=0
target/release/cluster_study --quick --jobs 2 --fresh --halt-after 8 \
    >"$tmp/resume-halt.out" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: halted cluster_study exited $rc (want 3, the resumable status)" >&2
    exit 1
fi
target/release/cluster_study --quick --jobs 2 --resume >"$tmp/resume.out"
cp results/cluster.json "$tmp/resume.json"
if ! diff -q "$tmp/resume-ref.out" "$tmp/resume.out" >/dev/null; then
    echo "FAIL: resumed cluster_study stdout differs from an uninterrupted run" >&2
    diff "$tmp/resume-ref.out" "$tmp/resume.out" >&2 || true
    exit 1
fi
if ! diff -q "$tmp/resume-ref.json" "$tmp/resume.json" >/dev/null; then
    echo "FAIL: resumed results/cluster.json differs from an uninterrupted run" >&2
    exit 1
fi
if [ -e results/.journal/cluster_study_quick/cells.jsonl ]; then
    echo "FAIL: completed resume left its journal behind" >&2
    exit 1
fi
echo "ok: interrupted run resumed to byte-identical output, journal retired"

if [ "$bench" -eq 1 ]; then
    # Snapshot the committed trajectory before the perf section's
    # harness runs rewrite BENCH_runner.json in place.
    git show HEAD:BENCH_runner.json >"$tmp/bench-baseline.json" 2>/dev/null \
        || cp BENCH_runner.json "$tmp/bench-baseline.json"

    echo "== cluster_study --quick --jobs 1 vs --jobs N byte-identity gate =="
    cargo build -q --release -p xc-bench --bin cluster_study
    target/release/cluster_study --quick --jobs 1 >"$tmp/cluster-serial.out"
    cp results/cluster.json "$tmp/cluster-serial.json"
    target/release/cluster_study --quick --jobs "$jobs" >"$tmp/cluster-parallel.out"
    cp results/cluster.json "$tmp/cluster-parallel.json"
    if ! diff -q "$tmp/cluster-serial.out" "$tmp/cluster-parallel.out" >/dev/null; then
        echo "FAIL: cluster_study stdout diverges between --jobs 1 and --jobs $jobs" >&2
        diff "$tmp/cluster-serial.out" "$tmp/cluster-parallel.out" >&2 || true
        exit 1
    fi
    if ! diff -q "$tmp/cluster-serial.json" "$tmp/cluster-parallel.json" >/dev/null; then
        echo "FAIL: results/cluster.json diverges between --jobs 1 and --jobs $jobs" >&2
        exit 1
    fi
    echo "ok: cluster study byte-identical at --jobs 1 and --jobs $jobs"

    echo "== perf smoke: queue_bench --quick (fig4 golden digest gate) =="
    cargo build -q --release -p xc-bench --bin queue_bench
    target/release/queue_bench --quick --sparse

    echo "== perf regression gate: fresh wall times vs committed BENCH_runner.json =="
    cargo build -q --release -p xc-bench --bin fig3_macro --bin cluster_study --bin bench_gate
    # Refresh the gated harnesses at the jobs values the committed
    # trajectory was recorded at, so the gate compares like with like
    # (each binary records the --jobs it actually ran with).
    target/release/fig3_macro --jobs 2 >/dev/null
    target/release/all_experiments --jobs 2 >/dev/null
    target/release/cluster_study --jobs 1 >/dev/null
    target/release/chaos_study --jobs 1 >/dev/null
    target/release/verify_lint --jobs 1 >/dev/null
    target/release/bench_gate --baseline "$tmp/bench-baseline.json"
    echo "ok: perf section green (byte gates, fig4 digest, wall-time budget)"
fi

echo "ok: formatting clean, no lints, deterministic at any --jobs, fault-tolerant runner, lint coverage at floor"
