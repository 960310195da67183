#!/bin/sh
# Paired perfbench runs of an earlier revision against the working tree.
#
# Usage: bin/perf_pairs.sh [REV] WORKLOAD [--pairs N] [--seconds S] [--seed K]
#        (REV defaults to HEAD~1, N to 10, S to run_seconds in
#        BENCHMARK.json, K to 71.)
#
# REV is exported with `git archive` into a temporary directory (removed
# on exit). Each pair runs `perfbench/run.py --trace 0` once in REV and
# once in the working tree, alternating which side goes first. Prints
# every run's end-to-end metrics, then per metric both sides' median and
# quartiles and how many pairs the working tree won. Exits 1 if a run
# reports failed operations or `correct: false`, 2 on bad usage, a bad
# REV or a failed run. Run nothing CPU-heavy alongside.
set -eu

cd "$(dirname "$0")/.."
here=$(pwd)
usage="usage: bin/perf_pairs.sh [REV] WORKLOAD [--pairs N] [--seconds S] [--seed K]"

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
while [ $# -ge 2 ]; do
    case "$1" in
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        --seed) seed="$2" ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    shift 2
done
[ $# -eq 0 ] || { echo "$usage" >&2; exit 2; }

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

# run_side SIDE TREE PAIR: one perfbench run; its JSON result line is kept.
run_side () {
    if ! python3 "$2/perfbench/run.py" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 > "$tmpdir/run.out" 2> "$tmpdir/run.err"; then
        cat "$tmpdir/run.err" >&2
        echo "FAIL: $1 run of pair $3 failed" >&2
        exit 2
    fi
    tail -n 1 "$tmpdir/run.out" > "$tmpdir/$1.$3.json"
}

echo "== perfbench $workload, seed $seed, ${seconds}s: $rev vs working tree, $pairs pairs =="
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$tmpdir/parent" "$i"
        run_side change "$here" "$i"
    else
        run_side change "$here" "$i"
        run_side parent "$tmpdir/parent" "$i"
    fi
    i=$((i + 1))
done

python3 - "$tmpdir" "$pairs" "$rev" <<'EOF'
import json, statistics, sys

tmpdir, pairs, rev = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {side: [json.load(open(f"{tmpdir}/{side}.{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}
value = lambda run, m: run["metrics"][m["name"]]["value"]

print("pair  side  " + "".join(f"{m['name']:>14}" for m in metrics) + "  failed  correct")
for i in range(pairs):
    for side in ("parent", "change"):
        r = runs[side][i]
        print(f"{i + 1:>4}  {side}" + "".join(f"{value(r, m):>14.6g}" for m in metrics)
              + f"  {r['failed']:>6}  {str(r['correct']).lower():>7}")

def quartiles(xs):
    return tuple(statistics.quantiles(xs, n=4, method="inclusive")) if len(xs) > 1 else (xs[0],) * 3

print(f"\nmetric      {rev + ' median [q1, q3]':>34}  {'change median [q1, q3]':>34}    diff  wins")
for m in metrics:
    p, c = ([value(r, m) for r in runs[side]] for side in ("parent", "change"))
    sign = 1 if m["better"] == "lower" else -1
    wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    print(f"{m['name']:<11} {f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>34}  "
          f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>34}  {100 * (cm - pm) / pm:+5.1f}%  {wins}/{pairs}")
if any(r["failed"] > 0 or not r["correct"] for side in runs.values() for r in side):
    sys.exit("FAIL: a run reported failed operations")
EOF
