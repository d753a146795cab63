#!/bin/sh
# Same-series check for behaviour-preserving refactors: build REV and the
# working tree, run every bench figure at tiny scale with seed 7 in each,
# and diff the JSON reports after stripping the wall-clock fields. Any
# remaining difference is a change in a digest, a storage or bandwidth
# series, a fault schedule or a modeled query latency.
#
#   sh scripts/same_series.sh <rev>       (or: make same-series REV=<rev>)
#
# REV is exported with `git archive` into a temporary directory (under
# $TMPDIR, default /tmp), so no worktree metadata is left behind. Exits 0
# and prints "same series" when the stripped reports are identical.
set -eu

rev=${1:?usage: same_series.sh <rev>}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/dpc-same-series.XXXXXX")
trap 'rm -rf "$work"' EXIT

# Wall-clock fields, as in scripts/ci.sh's determinism step, plus the
# per-domain throughput table of the scaling figure.
strip() {
    grep -v '"wall_clock_s"\|"events_per_s"\|"recovery ms"\|"events_per_s_by_domains"' "$1"
}

run_bench() {
    # $1: source tree, $2: output JSON.
    (cd "$1" && dune build --root . ./bench/main.exe 2>&1 >/dev/null &&
        ./_build/default/bench/main.exe --tiny --seed 7 --json "$2" >/dev/null)
}

mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
echo "== building and running $rev =="
run_bench "$work/base" "$work/base.json"
echo "== building and running the working tree =="
run_bench "$root" "$work/head.json"

strip "$work/base.json" > "$work/base.stripped"
strip "$work/head.json" > "$work/head.stripped"
if diff "$work/base.stripped" "$work/head.stripped"; then
    echo "same series: $(grep -c '' "$work/head.stripped") report lines match $rev"
else
    echo "series differ from $rev" >&2
    exit 1
fi
