#!/usr/bin/env bash
# Repository hygiene gate: formatting, lints, rustdoc, the workspace test suite
# (unit, property, determinism and golden-digest tests), serial-vs-parallel
# byte gates for the combined acceptance harness and the chaos and
# cluster studies, and perfbench's tests plus a 2-second reference-digest
# smoke per workload. Fails on any diff, warning, test failure, digest
# mismatch, or byte divergence between --jobs 1 and --jobs N output.
# Wall time is perfbench's job (BENCHMARK.json); nothing here times.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
    echo "usage: $0" >&2
    exit 2
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "== workspace tests (unit, property, determinism, golden digests) =="
cargo test -q --workspace

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
    printf "ok: identical output at --jobs 1 (%.1fs) and --jobs %s (%.1fs)\n",
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

echo "== coverage regression gate: verify_lint --quick (golden digest, coverage floor, Unknown ceiling) =="
# Run from outside the repository: the golden digest path must not
# depend on the working directory.
cargo build -q --release -p xc-bench --bin verify_lint
lint="$PWD/target/release/verify_lint"
(cd "$tmp" && "$lint" --quick)

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

echo "ok: formatting clean, no lints, deterministic at any --jobs, fault-tolerant runner, lint coverage at floor"
