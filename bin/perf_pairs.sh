#!/bin/sh
# Paired perfbench runs of an earlier revision against the working tree.
#
# Usage: bin/perf_pairs.sh [REV] WORKLOAD [--pairs N] [--seconds S] [--seed K]
#                          [--trace] [--aa]
#        (REV defaults to HEAD~1, N to 10, S to run_seconds in
#        BENCHMARK.json, K to 71.)
#
# REV is exported with `git archive` into a temporary directory (removed
# on exit). Each pair runs `perfbench/run.py --trace 0` once in REV and
# once in the working tree, alternating which side goes first. Prints
# every run's end-to-end metrics, then per metric both sides' median and
# quartiles and how many pairs the working tree won, then one JSON ledger
# line: REV, commit, workload, seed, pairs, seconds, host (nproc, OCaml,
# DCS_DOMAINS), per metric both sides' median/q1/q3 and the change's
# wins, and failed operations per side.
#
# With --aa both sides of every pair run the REV export (an A/A set): the
# same table and summary, and the ledger line carries "aa": true. The
# spread and the win count of an A/A set are the noise floor that a
# verdict on the same workload and seed has to clear.
#
# With --trace the same pairs run `perfbench/run.py --trace 1` (spans
# on). It prints every run's per-layer self times, then per layer both
# sides' median and quartiles and the change's wins (the `ms` metrics of
# BENCHMARK.json's per_layer list, leaving out layers that read 0 in
# every run), then each side's per-operation counters, marking `DIFFERS`
# where the two sides' medians differ by more than 0.1%. A workload's
# inputs differ in their counts, so a per-operation average of equal work
# moves by up to a few parts in 10^4 with the number of operations a run
# completes. It prints no ledger line.
#
# Exits 1 if a run reports failed operations or `correct: false`, 2 on
# bad usage, a bad REV or a failed run. Run nothing CPU-heavy alongside.
set -eu

cd "$(dirname "$0")/.."
here=$(pwd)
usage="usage: bin/perf_pairs.sh [REV] WORKLOAD [--pairs N] [--seconds S] [--seed K] [--trace] [--aa]"

rev=HEAD~1
case "${1:-}" in
    decode | sparsolve | serve | ingest) ;;
    '') echo "$usage" >&2; exit 2 ;;
    *) rev="$1"; shift ;;
esac
workload="${1:?$usage}"
shift
pairs=10
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
seed=71
trace=0
aa=0
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace=1; shift; continue ;;
        --aa) aa=1; shift; continue ;;
        --pairs) pairs="${2-}" ;;
        --seconds) seconds="${2-}" ;;
        --seed) seed="${2-}" ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
    shift 2
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmpdir/parent"
if ! git archive -o "$tmpdir/parent.tar" "$rev" 2> "$tmpdir/git.err"; then
    cat "$tmpdir/git.err" >&2
    echo "FAIL: cannot export $rev" >&2
    exit 2
fi
tar -xf "$tmpdir/parent.tar" -C "$tmpdir/parent"
commit=$(git rev-parse --verify "$rev^{commit}")
# The side the summary calls "change": the working tree, or REV again.
change_tree="$here"
against="working tree"
if [ "$aa" -eq 1 ]; then
    change_tree="$tmpdir/parent"
    against="$rev (A/A)"
fi

# run_side SIDE TREE PAIR: one perfbench run; its JSON result line is kept.
run_side () {
    if ! python3 "$2/perfbench/run.py" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" > "$tmpdir/run.out" 2> "$tmpdir/run.err"; then
        cat "$tmpdir/run.err" >&2
        echo "FAIL: $1 run of pair $3 failed" >&2
        exit 2
    fi
    tail -n 1 "$tmpdir/run.out" > "$tmpdir/$1.$3.json"
}

traced=
[ "$trace" -eq 0 ] || traced=", traced"
echo "== perfbench $workload, seed $seed, ${seconds}s$traced: $rev vs $against, $pairs pairs =="
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$tmpdir/parent" "$i"
        run_side change "$change_tree" "$i"
    else
        run_side change "$change_tree" "$i"
        run_side parent "$tmpdir/parent" "$i"
    fi
    i=$((i + 1))
done

python3 - "$tmpdir" "$pairs" "$rev" "$commit" "$workload" "$seed" "$seconds" "$trace" "$aa" <<'EOF'
import json, os, statistics, subprocess, sys

tmpdir, pairs, rev, commit, workload, seed, seconds, trace, aa = sys.argv[1:]
pairs = int(pairs)
bench = json.load(open("BENCHMARK.json"))
runs = {side: [json.load(open(f"{tmpdir}/{side}.{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}
value = lambda run, m: run["metrics"][m["name"]]["value"]
values = lambda m: ([value(r, m) for r in runs[side]] for side in ("parent", "change"))
if trace == "1":
    metrics = [m for m in bench["per_layer"] if m["unit"] == "ms"
               and any(value(r, m) for rs in runs.values() for r in rs)]
    counters = [m for m in bench["per_layer"] if m["unit"] == "count"]
    width = max(len(m["name"]) for m in metrics + counters)
else:
    metrics, width = bench["end_to_end"], 11
column = max(14, width + 2)

print("pair  side  " + "".join(f"{m['name']:>{column}}" for m in metrics) + "  failed  correct")
for i in range(pairs):
    for side in ("parent", "change"):
        r = runs[side][i]
        print(f"{i + 1:>4}  {side}" + "".join(f"{value(r, m):>{column}.6g}" for m in metrics)
              + f"  {r['failed']:>6}  {str(r['correct']).lower():>7}")

def quartiles(xs):
    return tuple(statistics.quantiles(xs, n=4, method="inclusive")) if len(xs) > 1 else (xs[0],) * 3

ledger = {}
print(f"\n{'metric':<{width}} {rev + ' median [q1, q3]':>34}  {'change median [q1, q3]':>34}    diff  wins")
for m in metrics:
    p, c = values(m)
    sign = 1 if m["better"] == "lower" else -1
    wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    print(f"{m['name']:<{width}} {f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>34}  "
          f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>34}  {f'{100 * (cm - pm) / pm:+5.1f}%' if pm else '     -'}  {wins}/{pairs}")
    ledger[m["name"]] = {"parent": {"median": pm, "q1": p1, "q3": p3},
                         "change": {"median": cm, "q1": c1, "q3": c3}, "change_wins": wins}
if trace == "1":
    # Per-operation counts: one value when every run of a side prints
    # the same, else the median and the range.
    def spread(xs):
        lo, hi = f"{min(xs):.6g}", f"{max(xs):.6g}"
        return lo if lo == hi else f"{statistics.median(xs):.6g} [{lo}, {hi}]"
    print(f"\n{'counter per op':<{width}} {rev:>34}  {'change':>34}")
    for m in counters:
        p, c = values(m)
        pm, cm = statistics.median(p), statistics.median(c)
        flag = "  DIFFERS" if abs(pm - cm) > 1e-3 * max(abs(pm), abs(cm)) else ""
        print(f"{m['name']:<{width}} {spread(p):>34}  {spread(c):>34}{flag}")
else:
    ocaml = subprocess.run(["ocaml", "-vnum"], capture_output=True, text=True).stdout.strip()
    host = {"nproc": len(os.sched_getaffinity(0)), "ocaml": ocaml, "DCS_DOMAINS": os.environ.get("DCS_DOMAINS")}
    line = {"rev": rev, "commit": commit, "workload": workload, "seed": int(seed), "pairs": pairs,
            "seconds": float(seconds), "host": host, "metrics": ledger,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}}
    if aa == "1":
        line["aa"] = True
    print(json.dumps(line))
if any(r["failed"] > 0 or not r["correct"] for side in runs.values() for r in side):
    sys.exit("FAIL: a run reported failed operations")
EOF
