#!/bin/sh
# Benchmark gate: the end-to-end suite on BASE_REF against the working
# tree, on the same machine.
#
#   benchmarks/gate.sh BASE_REF
#
# Checks BASE_REF out in a temporary worktree and runs three pairs of
# `benchmarks/suite/run.py --seed i`, one run in each checkout per pair.
# The base goes first in pairs 1 and 3, the working tree in pair 2.
# Exits with the status of `run.py --compare base.json change.json`:
# 1 when an end-to-end metric regressed beyond its bound in
# BENCHMARK.json or a workload's fail rate rose, else 0.
set -eu
[ $# -eq 1 ] || { echo "usage: benchmarks/gate.sh BASE_REF" >&2; exit 2; }
change=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
base="$tmp/base"
trap 'git -C "$change" worktree remove --force "$base" 2>/dev/null || true
      rm -rf "$tmp"' EXIT
git -C "$change" worktree add --quiet --detach "$base" "$1"

suite() {  # suite CHECKOUT SEED SET
    (cd "$1" && python3 benchmarks/suite/run.py --seed "$2" --out "$3")
}
for i in 1 2 3; do
    if [ "$i" -eq 2 ]; then
        suite "$change" "$i" "$tmp/change.json"
        suite "$base" "$i" "$tmp/base.json"
    else
        suite "$base" "$i" "$tmp/base.json"
        suite "$change" "$i" "$tmp/change.json"
    fi
done
status=0
python3 "$change/benchmarks/suite/run.py" \
    --compare "$tmp/base.json" "$tmp/change.json" || status=$?
exit "$status"
