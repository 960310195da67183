#!/bin/sh
# Byte-identity check against an earlier revision: every experiment's
# stdout must be the same in REV and in the working tree.
#
# Usage: bin/diff_parent.sh [REV] [experiment ids...]
#        (REV defaults to HEAD~1, the parent of a committed change; pass
#        HEAD to check uncommitted edits. The default experiments are
#        every id `bench/main.exe -- --list` prints except E10 and E18,
#        whose tables are wall clock.)
#
# REV is exported with `git archive` into a temporary directory (removed
# on exit, however the script ends). bench/main.exe is built in both
# trees, and each experiment runs alone at DCS_DOMAINS=1 in each. The
# wall-clock footers (" done in ") are stripped, and the two outputs are
# diffed. Every experiment runs: each one whose outputs differ prints its
# diff, and a last FAIL line names all of them (exit 1). A run that fails
# in either tree stops the script at once, naming it (exit 1); a bad REV
# or a failed build exits 2. Run nothing CPU-heavy alongside: E20 and E24
# enforce wall-clock floors and abort (a failed run) on a busy host.
set -eu

cd "$(dirname "$0")/.."
here=$(pwd)

rev=HEAD~1
case "${1:-}" in
    '' | E[0-9]*) ;;
    *) rev="$1"; shift ;;
esac

tmpdir=$(mktemp -d)
parent="$tmpdir/parent"
trap 'rm -rf "$tmpdir"' EXIT
trap 'exit 130' INT TERM
. bin/run_bench.sh

mkdir "$parent"
if ! git archive -o "$tmpdir/parent.tar" "$rev" 2> "$tmpdir/git.err"; then
    cat "$tmpdir/git.err" >&2
    echo "FAIL: cannot export $rev" >&2
    exit 2
fi
tar -xf "$tmpdir/parent.tar" -C "$parent"

echo "== building bench/main.exe at $rev and in the working tree =="
for tree in "$parent" "$here"; do
    if ! dune build --root "$tree" bench/main.exe > "$tmpdir/build.err" 2>&1; then
        cat "$tmpdir/build.err" >&2
        echo "FAIL: bench/main.exe does not build in $tree" >&2
        exit 2
    fi
done

if [ $# -gt 0 ]; then
    experiments="$*"
else
    experiments=$("$here/_build/default/bench/main.exe" --list \
        | awk '$1 != "E10" && $1 != "E18" { print $1 }')
fi

echo "== experiment-by-experiment diff, $rev vs working tree, DCS_DOMAINS=1 =="
moved=""
for exp in $experiments; do
    run_bench 1 "$parent/_build/default/bench/main.exe" --only "$exp" > "$tmpdir/parent.out"
    run_bench 1 "$here/_build/default/bench/main.exe" --only "$exp" > "$tmpdir/change.out"
    if diff -u "$tmpdir/parent.out" "$tmpdir/change.out"; then
        echo "  $exp: byte-identical"
    else
        echo "  $exp: differs"
        moved="$moved $exp"
    fi
done
if [ -n "$moved" ]; then
    echo "FAIL: output differs from $rev in$moved" >&2
    exit 1
fi
echo "every experiment byte-identical to $rev"
