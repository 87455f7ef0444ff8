"""Set-up probe, run in a fresh interpreter by ``run.py``.

Generates the workload's first operation (not timed), then times importing
the ``cohiggs`` modules the workload calls plus that one operation, checks
its output, and prints "<set-up s> <kernel ms>" as its last line, where the
calibration kernel (see calibrate.py) is timed in the same interpreter twice
just before and twice just after the timed part.

    python3 perfbench/probe.py --workload NAME --seed N --workdir DIR
"""

from __future__ import annotations

import argparse
import statistics
import time

import calibrate
import gen


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    if args.workload == "cli":
        import cli_ops

        spec = next(cli_ops.cli_ops(args.seed))
        argv = cli_ops.materialize(spec, args.workdir, "probe")
        kernel_ns = [calibrate.time_kernel() for _ in range(2)]
        t0 = time.perf_counter()
        import cohiggs.cli

        code, stdout, _ = cli_ops.run_inprocess(cohiggs.cli.main, argv)
        elapsed = time.perf_counter() - t0
        cli_ops.check_output(spec, code, stdout)
    else:
        spec = next(gen.library_ops(args.workload, args.seed))
        kernel_ns = [calibrate.time_kernel() for _ in range(2)]
        t0 = time.perf_counter()
        import lib_ops

        prepare, check = lib_ops.WORKLOADS[args.workload]
        result = prepare(spec)()
        elapsed = time.perf_counter() - t0
        check(spec, result)
    kernel_ns += [calibrate.time_kernel() for _ in range(2)]
    kernel_ms = statistics.median(kernel_ns) / 1e6
    print(f"{elapsed!r} {kernel_ms!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
