#!/usr/bin/env bash
# Same-host A/B of the repository benchmark against a base revision.
#
#   bash tools/perf_ab.sh BASE_REV
#
# Run from the root of the repository.  Exports BASE_REV's tree (with
# git archive, so nothing is registered in .git) to a temporary
# directory, builds it and the working tree, then runs every workload
# BENCHMARK.json declares as 5 interleaved pairs of
#   bash perfbench/run.sh --workload W --seed S --seconds RUN_SECONDS --trace 0
# with seeds 1-5, alternating which side runs first.  Each run's result
# line goes to _build/perf-ab/{base,change}/W.jsonl, and
# bin/bench_trend.exe compares the two sides against the direction and
# bound of every end-to-end metric in BENCHMARK.json.  Exits 1 when a
# metric is worse beyond its bound or a run is incorrect, 0 otherwise.
# Build output and progress go to standard error.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: bash tools/perf_ab.sh BASE_REV" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

rev=$(git rev-parse --verify "$1^{commit}")
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
# workload names: the "name" fields between "workloads": [ and its ]
workloads=$(sed -n '/"workloads": *\[/,/\]/p' BENCHMARK.json |
  grep -o '"name": *"[^"]*"' | sed 's/.*"\([^"]*\)"$/\1/')

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$rev" | tar -x -C "$base"

out=_build/perf-ab
rm -rf "$out"
mkdir -p "$out/base" "$out/change"

echo "perf-ab: building $rev and the working tree" >&2
(cd "$base" && dune build --root . ./perfbench/bench.exe) 1>&2
dune build --root . ./perfbench/bench.exe ./bin/bench_trend.exe 1>&2

# One run; its last line of output (the result) is appended to
# $out/SIDE/W.jsonl, or a marker the comparator reports when it printed
# nothing.
run() {
  local side=$1 dir=$2 w=$3 s=$4 line
  echo "perf-ab: $w seed $s $side" >&2
  line=$(cd "$dir" && bash perfbench/run.sh --workload "$w" --seed "$s" \
    --seconds "$seconds" --trace 0 | tail -n 1) || true
  echo "${line:-run failed: no result line}" >>"$out/$side/$w.jsonl"
}

for w in $workloads; do
  for s in 1 2 3 4 5; do
    if [ $((s % 2)) -eq 1 ]; then
      run base "$base" "$w" "$s"
      run change . "$w" "$s"
    else
      run change . "$w" "$s"
      run base "$base" "$w" "$s"
    fi
  done
done

./_build/default/bin/bench_trend.exe --old "$out/base" --new "$out/change"
