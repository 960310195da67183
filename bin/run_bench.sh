# Sourced by bin/check_determinism.sh and bin/diff_parent.sh, after they
# set $tmpdir.
#
# run_bench D EXE ARGS...: run EXE ARGS... at DCS_DOMAINS=D and print its
# stdout minus the wall-clock footers ("[E3 done in 1.2s]" and the
# total): timing is the one thing allowed to differ between runs. Its
# stderr is kept in $tmpdir/bench.err. stdout goes through a file, not a
# pipe, so a non-zero exit (an aborted experiment prints only the banner)
# fails the caller naming the run, with its stderr and the tail of its
# stdout, instead of diffing banner against banner.
run_bench () {
    d="$1"
    shift
    status=0
    DCS_DOMAINS="$d" "$@" > "$tmpdir/bench.out" 2> "$tmpdir/bench.err" || status=$?
    if [ "$status" -ne 0 ]; then
        tail -n 20 "$tmpdir/bench.out" >&2
        cat "$tmpdir/bench.err" >&2
        echo "FAIL: $* exited with status $status at DCS_DOMAINS=$d" >&2
        exit 1
    fi
    grep -v ' done in ' "$tmpdir/bench.out"
}
