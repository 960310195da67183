#!/bin/sh
# Determinism gate for the parallel trial engine: the whole test suite must
# pass, and the experiment tables must be byte-identical at DCS_DOMAINS=1
# (sequential fallback), 2 and 4 (parallel fan-out). Any divergence means
# per-trial seed-splitting leaked scheduling into a result.
#
# Usage: bin/check_determinism.sh [experiment ids...]
#                                 (default: E3 E4 E16 E17 E19 E20 E21 E22 E23 E24)
#
# Experiments are diffed ONE AT A TIME so the first divergence fails fast
# and names the experiment (a combined run could only say "something in the
# battery differs" after paying for all of it).
#
# E19 is in the default set because it drives both graph representations —
# the hashtable adjacency and the frozen CSR arrays — through the same
# decodes and cut evaluations: its agreement flags and csr.* counter checks
# must come out identical at every domain count (wall-clock figures go to
# stderr and never enter the diff).
#
# E20 is in the default set because it drives the pool (Pool.run_batched,
# one scratch arena per domain) and the batched CSR kernels
# (cut_many / flip_sweep) through the decode battery, a
# k = 28 enumerate and a Karger sweep at explicit domain counts 1/2/4
# *inside* the experiment; the gate re-runs it under each DCS_DOMAINS value
# to prove the ambient domain count leaks into nothing.
#
# E21 is in the default set because it replays a million-request serving
# trace through dcutd's engine — token-bucket admission, bounded-queue
# shedding, wire give-ups, jittered oracle retries, circuit-breaker
# degradation — under five scenarios. Virtual time keeps every latency and
# shed decision a pure function of (trace, config, seed), so the whole
# throughput x p50/p99 x shed-rate table must be byte-identical at every
# DCS_DOMAINS value. Its three runs also write DCS_METRICS snapshots,
# diffed like E18's below: the serve.* tallies and the pool.* counts of
# its batch fan-out must not depend on the domain count either.
#
# E16 is in the default set because it exercises the fault-injection layer:
# its drop/corruption/timeout/lie draws must come out of the split streams
# identically however the trials are scheduled. It runs as DAG stages (one
# per sweep row), so it also joins the --sched-cache cycles below. E17 is
# the chaos harness — supervised restarts, checkpoint corruption recovery
# and stragglers all have to produce the same tables at every domain count.
#
# E22 is in the default set because it is the streaming chaos battery:
# WAL recovery digests, adversarial replay accounting, the streamed-vs-
# batch E3/E4 decode reruns and the live-mutation serving table must all
# come out byte-identical at every domain count. Its three runs also write
# DCS_METRICS snapshots, diffed like E21's: the stream.* counts (inserts,
# deletes, rejects, compactions, recoveries) and the csr.* freezes and
# cut evaluations must not depend on the domain count either.
#
# E23 is in the default set because it is the scheduler's own contract: it
# replays the merged E3/E4/E19/E20 stage DAG cold and warm against one
# artifact store (stdout must be byte-identical, warm hit rate >= 50%,
# sched.* registry = scheduler reports) and walks the disk tier through a
# bit-flip/recompute/repair cycle — all of it must come out identical at
# every DCS_DOMAINS value, since the artifact bytes are the cache keys.
# Its three runs also write DCS_METRICS snapshots, diffed like E21's: the
# pool.batched_calls and pool.tasks its pooled stages meter on
# Pool.parallel_init, like the sched.* counts, must not depend on the
# domain count. The gate additionally runs a cross-process --sched-cache cycle below: a
# cold E3+E4+E16+E24 run fills a cache directory at DCS_DOMAINS=1 and warm
# reruns at 1, 2 and 4 must reproduce the cold stdout byte for byte from
# disk.
#
# E24 is in the default set because it is the sparsify-then-solve pipeline:
# connectivity estimation fans capped max-flows across the worker pool, the
# sampler draws one Prng.split stream per edge, and the speed stage re-runs
# the whole sparse pipeline at explicit domain counts 1/2/4 inside the
# experiment — its tables (and the >= 3x floor it enforces on every cold
# run) must be byte-identical at every ambient DCS_DOMAINS value. Wall
# clock goes to stderr. Its three runs also write DCS_METRICS snapshots,
# diffed like E21's: the conn.* tier counts (the maximum-adjacency passes
# and certified edges included) and the flows the pool runs must not
# depend on the domain count. It also joins the --sched-cache cycle below:
# its quality floors are re-verified in the report closure, so a warm run
# must still pass them from cached artifacts alone.
#
# --sched-cache is the bench's resume path, so the gate also resumes that
# cycle from partial caches: at DCS_DOMAINS=1, 2 and 4 it copies the cold
# cache, deletes every second artifact in name order and reruns. A killed
# run leaves downstream artifacts missing; this also deletes upstream
# ones. Stdout must match the cold run's byte for byte, with both stage
# runs and cache hits reported. Cache keys carry a digest of the running
# executable, so a copy of the bench with one byte appended must match
# the cold stdout with 0 cache hits over the same cache. E22 gets a
# kill-then-resume cycle through its WAL-backed journal (DCS_STREAM_DIR /
# DCS_STREAM_KILL): the journaled ingest is killed at a record boundary
# mid-stream (exit 3), reopened in the same directory — snapshot restore
# plus WAL replay — and the finished run's stdout must be byte-identical
# to an uninterrupted run's.
#
# Finally it runs E18 (the instrumented profiling pass) with DCS_METRICS
# pointing at a snapshot file, at DCS_DOMAINS=1, 2 and 4, and diffs the
# metrics JSON: the Obs.Metrics registry carries counts only (no wall
# clock), so the sharded counters must merge to byte-identical snapshots at
# every domain count. E18's stdout contains a wall-clock hot-path table and
# trace files are timing by definition, so neither joins the diff — only
# the metrics snapshot does.
#
# First of all it runs bin/check_exports.sh, the compiler-derived export
# guard: every value a lib/*/*.mli declares must have a reader in another
# compilation unit, and every optional parameter of a value some program
# (lib, bench, bin, perfbench) calls must be passed by one of those
# calls.
#
# Last, each of the six test executables runs at DCS_DOMAINS=1 and 4.
# @batched holds the CSR kernels vs their scalar paths, run_batched's
# arena reuse and lowest-index failure contract, run_supervised under
# crash/hang injection (outputs, reports and counters identical across
# domain counts), the golden Prng.fingerprint pins of task streams, and
# the Forall_lb/Brute kernel routing. @sched, @sparsolve, @serve and @stream cover their
# subsystems; the main suite holds the Pool failure contract and the
# Checkpoint.sweep kill-then-resume cases.
set -eu

cd "$(dirname "$0")/.."
experiments="${*:-E3 E4 E16 E17 E19 E20 E21 E22 E23 E24}"
domain_counts="1 2 4"
bench=_build/default/bench/main.exe

echo "== export guard (bin/check_exports.sh) =="
bin/check_exports.sh

echo "== building (bench, tests, @batched, @serve, @stream, @sched, @sparsolve suites) =="
dune build bench/main.exe test/main.exe @batched @serve @stream @sched @sparsolve

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
. bin/run_bench.sh

echo "== experiment-by-experiment diff at DCS_DOMAINS=$domain_counts =="
# metrics_for EXP D: point DCS_METRICS at EXP's snapshot for domain
# count D when EXP's metrics are diffed (E21, E22, E23, E24), else leave
# it unset.
metrics_for () {
    unset DCS_METRICS
    case "$1" in
        E21 | E22 | E23 | E24) export DCS_METRICS="$tmpdir/$1_metrics_d$2.json" ;;
    esac
}

for exp in $experiments; do
    ref="$tmpdir/${exp}_d1.out"
    metrics_for "$exp" 1
    run_bench 1 "$bench" --only "$exp" > "$ref"
    for d in 2 4; do
        out="$tmpdir/${exp}_d$d.out"
        metrics_for "$exp" "$d"
        run_bench "$d" "$bench" --only "$exp" > "$out"
        if ! diff -u "$ref" "$out"; then
            echo "FAIL: $exp output diverges between DCS_DOMAINS=1 and $d" >&2
            exit 1
        fi
        if [ -n "${DCS_METRICS:-}" ] \
            && ! diff -u "$tmpdir/${exp}_metrics_d1.json" "$DCS_METRICS"; then
            echo "FAIL: $exp metrics snapshot diverges between DCS_DOMAINS=1 and $d" >&2
            exit 1
        fi
    done
    echo "  $exp: byte-identical at DCS_DOMAINS=$domain_counts${DCS_METRICS:+ (stdout and metrics snapshot)}"
    unset DCS_METRICS
done
echo "experiment tables byte-identical across domain counts"

echo "== scheduler disk-cache cycle (E3+E4+E16+E24, --sched-cache) =="
cached="E3 E4 E16 E24"
sched_cache="$tmpdir/sched_cache"
run_bench 1 "$bench" --only $cached --sched-cache "$sched_cache" > "$tmpdir/sched_cold.out"
for d in 1 2 4; do
    # Warm rerun out of the spilled artifacts, in a fresh process at each
    # domain count: stdout must match the cold run byte for byte, and the
    # scheduler summary (stderr) must report zero stage runs (E24's
    # quality/speed floors are still re-checked from the cached artifacts).
    run_bench "$d" "$bench" --only $cached --sched-cache "$sched_cache" \
        > "$tmpdir/sched_warm_d$d.out"
    if ! diff -u "$tmpdir/sched_cold.out" "$tmpdir/sched_warm_d$d.out"; then
        echo "FAIL: warm --sched-cache run diverges from cold at DCS_DOMAINS=$d" >&2
        exit 1
    fi
    if ! grep -q ' 0 ran ' "$tmpdir/bench.err"; then
        echo "FAIL: warm --sched-cache run recomputed stages at DCS_DOMAINS=$d" >&2
        grep '\[sched:' "$tmpdir/bench.err" >&2 || true
        exit 1
    fi
    echo "  DCS_DOMAINS=$d: warm run all-hits, byte-identical to cold"
done
echo "scheduler disk cache byte-identical cold vs warm at DCS_DOMAINS=1, 2 and 4"

echo "== partial-cache resume ($cached, every second artifact deleted) =="
for d in 1 2 4; do
    partial="$tmpdir/sched_partial_d$d"
    cp -R "$sched_cache" "$partial"
    n=0
    for f in $(cd "$partial" && LC_ALL=C ls | grep '\.art$'); do
        n=$((n + 1))
        if [ $((n % 2)) -eq 0 ]; then rm "$partial/$f"; fi
    done
    run_bench "$d" "$bench" --only $cached --sched-cache "$partial" \
        > "$tmpdir/sched_partial_d$d.out"
    if ! diff -u "$tmpdir/sched_cold.out" "$tmpdir/sched_partial_d$d.out"; then
        echo "FAIL: partial-cache run diverges from cold at DCS_DOMAINS=$d" >&2
        exit 1
    fi
    # Both halves must show: the deleted stages ran, the kept ones hit.
    if grep -qE ' 0 ran |, 0 cache hits' "$tmpdir/bench.err"; then
        echo "FAIL: partial-cache run did not both run and hit stages at DCS_DOMAINS=$d" >&2
        grep '\[sched:' "$tmpdir/bench.err" >&2 || true
        exit 1
    fi
    echo "  DCS_DOMAINS=$d: byte-identical to cold; $(grep '\[sched:' "$tmpdir/bench.err")"
done
echo "partial-cache resume byte-identical to cold at DCS_DOMAINS=1, 2 and 4"

echo "== cache key follows the executable ($cached, one byte appended) =="
# A rebuilt binary must not read the old binary's artifacts: the copy's
# digest differs, so every stage recomputes over the cold cache.
rebuilt="$tmpdir/main_rebuilt.exe"
cp "$bench" "$rebuilt"
chmod u+w "$rebuilt"
printf '\n' >> "$rebuilt"
run_bench 1 "$rebuilt" --only $cached --sched-cache "$sched_cache" > "$tmpdir/sched_rebuilt.out"
if ! diff -u "$tmpdir/sched_cold.out" "$tmpdir/sched_rebuilt.out"; then
    echo "FAIL: rebuilt-binary run diverges from cold" >&2
    exit 1
fi
if ! grep -q ', 0 cache hits' "$tmpdir/bench.err"; then
    echo "FAIL: rebuilt binary read the old binary's artifacts" >&2
    grep '\[sched:' "$tmpdir/bench.err" >&2 || true
    exit 1
fi
echo "  rebuilt binary: byte-identical to cold; $(grep '\[sched:' "$tmpdir/bench.err")"

echo "== WAL kill-then-replay cycle (E22, DCS_STREAM_KILL=20) =="
export DCS_STREAM_DIR="$tmpdir/wal_ref"
run_bench 1 "$bench" --only E22 > "$tmpdir/wal_ref.out"
for d in 1 2 4; do
    wal="$tmpdir/wal_d$d"
    # Phase 1: kill the journaled ingest after 20 fresh records. Exit 3
    # means "interrupted at a record boundary, WAL flushed"; anything
    # else is a failure of the crash plumbing.
    export DCS_STREAM_DIR="$wal"
    status=0
    DCS_DOMAINS="$d" DCS_STREAM_KILL=20 "$bench" --only E22 \
        > /dev/null 2> /dev/null || status=$?
    if [ "$status" -ne 3 ]; then
        echo "FAIL: DCS_STREAM_KILL exited with $status (want 3) at DCS_DOMAINS=$d" >&2
        exit 1
    fi
    # Phase 2: reopen the same journal directory — snapshot restore plus
    # WAL replay — and finish the stream; stdout must match the
    # uninterrupted reference byte for byte.
    run_bench "$d" "$bench" --only E22 > "$tmpdir/wal_resumed_d$d.out"
    if ! diff -u "$tmpdir/wal_ref.out" "$tmpdir/wal_resumed_d$d.out"; then
        echo "FAIL: WAL-replayed run diverges from uninterrupted run at DCS_DOMAINS=$d" >&2
        exit 1
    fi
    echo "  DCS_DOMAINS=$d: killed at a record boundary (exit 3), replayed, byte-identical"
done
unset DCS_STREAM_DIR
echo "WAL kill-then-replay cycle byte-identical at DCS_DOMAINS=1, 2 and 4"

echo "== metrics snapshots (E18, DCS_METRICS) =="
for d in 1 2 4; do
    export DCS_METRICS="$tmpdir/metrics_d$d.json"
    run_bench "$d" "$bench" --only E18 > /dev/null
done
unset DCS_METRICS
for d in 2 4; do
    if ! diff -u "$tmpdir/metrics_d1.json" "$tmpdir/metrics_d$d.json"; then
        echo "FAIL: E18 metrics snapshot diverges between DCS_DOMAINS=1 and $d" >&2
        exit 1
    fi
done
echo "E18 metrics snapshots byte-identical at DCS_DOMAINS=1, 2 and 4"

echo "== test suites with DCS_DOMAINS=1 and 4 =="
for suite in batched/main_batched sched/main_sched sparsolve/main_sparsolve \
    serve/main_serve stream/main_stream main; do
    for d in 1 4; do
        run_bench "$d" "_build/default/test/$suite.exe" > /dev/null
    done
    echo "  test/$suite.exe: green at DCS_DOMAINS=1 and 4"
done

echo "OK: suites green, tables identical per experiment, cache and WAL resumes identical, metrics snapshots identical under DCS_DOMAINS=1, 2 and 4"
