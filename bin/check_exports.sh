#!/bin/sh
# Export guard: every value a lib/*/*.mli declares must be read by some
# other compilation unit of the workspace (lib, bench, bin, perfbench,
# examples, test). The list comes from the compiler, not a text search:
# `dune build @check` writes every .cmt/.cmti, and tools/check_exports
# matches each `val` of lib/ against the identifiers that resolve to it.
#
# Usage: bin/check_exports.sh
#
# Prints each value that no other unit reads (a dead value, or one only
# its own module reads, which belongs out of the interface) and exits 1
# if there is one; prints how many values only test/ reads.
set -eu

cd "$(dirname "$0")/.."
dune build @check tools/check_exports.exe
./_build/default/tools/check_exports.exe _build/default
