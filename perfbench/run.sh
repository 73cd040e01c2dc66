#!/bin/sh
# Build the benchmark from the sources of the checkout it is run in, then
# run it with the given arguments, e.g.
#
#   sh perfbench/run.sh --workload kv-closed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.  Outside a full checkout
# the build fails and so does this script.
set -eu
dune build --root . --display quiet --cache disabled -j 2 ./perfbench/bin/main.exe >&2
exec ./_build/default/perfbench/bin/main.exe "$@"
