"""Run the benchmark over several seeds and report each end-to-end metric's
median and spread: the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound BENCHMARK.json fixes for it.

    python3 perfbench/steadiness.py --workload split_higgs --seeds 1-10
    python3 perfbench/steadiness.py --workload cli --seeds 1-10 --record perfbench/baseline.json

``--record`` also makes one traced run on the first seed, and merges the
summary, the per-seed values, the traced run's per-layer metrics and layer
emphasis, and the environment fingerprint of the first run into a JSON file
keyed by workload (the committed baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--record", help="JSON file to merge the summary into")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def run(seed: int, trace: int) -> dict | None:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
            return None
        path = os.path.join(HERE, "out", f"{args.workload}-seed{seed}-trace{trace}.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    values: dict[str, list[float]] = {}
    runs = []
    fingerprint = None
    for seed in seed_range(args.seeds):
        result = run(seed, 0)
        if result is None:
            return 1
        fingerprint = fingerprint or result["fingerprint"]
        runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                     "digest": result["digest"], "raw": result["detail"]["raw"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        print(f"{name:<20} median {med:14.6g}  spread {spread:7.4f}  bound {bounds.get(name)}  "
              f"{'ok' if spread <= bounds.get(name, 0) / 3 else 'WIDE'}")

    if args.record:
        first = runs[0]["seed"]
        traced = run(first, 1)
        if traced is None:
            return 1
        try:
            with open(args.record, encoding="utf-8") as fh:
                record = json.load(fh)
        except FileNotFoundError:
            record = {}
        record[args.workload] = {
            "fingerprint": fingerprint, "seconds": seconds, "summary": summary,
            "runs": runs,
            "traced": {"seed": first, "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                       "emphasis": traced["detail"]["emphasis"], "digest": traced["digest"]},
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
