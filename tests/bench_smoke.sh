#!/usr/bin/env bash
# The benchmark smoke: each workload of perfbench/run.py for one second,
# untraced at seeds 1, 2 and 3 and then traced at seed 1.  run.py exits
# nonzero when an output check fails, and the traced run checks the
# tracer's by-name wrapping.  The untraced runs' output digests must equal
# those in perfbench/baseline.json, since outputs stay byte-identical across
# changes.  run.py imports the package from src/, so nothing need be
# installed; from the repository's root:
#
#   bash tests/bench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for w in cli extension split_higgs spectral_height; do
  for seed in 1 2 3; do
    out="$(python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 1 --trace 0)"
    echo "$out"
    got="$(echo "$out" | sed -n 's/^ *outputs \(sha256:.*\)$/\1/p')"
    want="$(python3 -c 'import json, sys; print(*(r["digest"] for r in json.load(open("perfbench/baseline.json"))[sys.argv[1]]["runs"] if r["seed"] == int(sys.argv[2])))' "$w" "$seed")"
    echo "digest $w seed $seed: got $got, baseline $want"
    test -n "$want"
    test "$got" = "$want"
  done
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1
done
