#!/bin/sh
# Export guard, two checks on what lib/*/*.mli declares:
#
# - every value must be read by some other compilation unit of the
#   workspace (lib, bench, bin, perfbench, examples, test);
# - every optional parameter of a value that some program (a unit in
#   lib, bench, bin or perfbench, the value's own module included)
#   calls must be passed by at least one program call: a default no
#   program changes is a constant, whatever tests set.
#
# The lists come from the compiler, not a text search: `dune build
# @check` writes every .cmt/.cmti, and tools/check_exports matches each
# `val` of lib/ against the identifiers and calls that resolve to it.
#
# Usage: bin/check_exports.sh
#
# Prints each value that no other unit reads (a dead value, or one only
# its own module reads, which belongs out of the interface) and each
# option no program call passes, and exits 1 if there is either; prints
# how many values only test/ reads and how many option slots the
# interfaces declare.
set -eu

cd "$(dirname "$0")/.."
dune build @check tools/check_exports.exe
./_build/default/tools/check_exports.exe _build/default
