#!/usr/bin/env bash
# Build the benchmark from source with dune, then run it with the given
# arguments: --workload NAME --seed N --seconds S --trace 0|1.
# Run from the root of the repository.  Build output goes to standard
# error; the benchmark's result is the last line of standard output.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
