#!/bin/sh
# A flag value or a stream line dcut cannot answer is a usage error: exit
# 124 and a first stderr line naming it, never an uncaught exception
# (exit 125), a hang or a wrong answer. Prints one line per case,
# "exit=<code> <first stderr line>"; each case gets 10 s, so a hang shows
# as exit=137.
#
# Usage: dcut_refusals.sh DCUT GRAPH   (GRAPH: a connected edge list)
dcut="$1"
graph="$2"

# check STDIN ARGS...: run dcut ARGS with STDIN (printf %b escapes) on stdin.
check () {
    input="$1"
    shift
    err=$(printf '%b' "$input" | timeout -s KILL 10 "$dcut" "$@" 2>&1 >/dev/null)
    code=$?
    echo "exit=$code $(printf '%s\n' "$err" | head -n 1)"
}

check '' gen --family balanced --beta 0.5
check '' encode --message hi --inv-eps 3
check '' encode --message hi --beta 2
check '' sparsify --eps 0 -i "$graph"
check '' sparsify --eps 2 -i "$graph"
check '' sparsify --beta 0.5 -i "$graph"
check '' mincut --algo karger --trials 0 -i "$graph"
check '' localquery --eps 0 -i "$graph"
check '' localquery --eps 1.5 -i "$graph"
check '' distributed --servers 0 -i "$graph"
check '' distributed --eps 0 -i "$graph"
check '' gen --family planted -n 3
check '' gen --family planted -n 4
check '' gen --family planted -n 5
check '+ 0 1\n' connectivity -n 3 --copies 0
check '+ 0 x\n' connectivity -n 3
check 'bogus\n' connectivity -n 3
check '+ 0 9\n' connectivity -n 3
check '+ 1 1\n' connectivity -n 3
