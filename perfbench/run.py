"""cohiggs benchmark: four seeded closed-loop workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` and
installs nothing.  Workloads (see BENCHMARK.json and perfbench/README.md):

* ``cli``: one ``python -m cohiggs.cli`` process per operation, a round of
  all 18 subcommand paths plus one exit-1 and one exit-2 case;
* ``extension``: one non-trivial extension class per operation through the
  dimension count, closed forms, glue checks, dichotomy, strata and weak
  isomorphism;
* ``split_higgs``: Higgs fields of coefficient height <= 9 on four split
  bundles through validation, stability, Hitchin map, normal forms and
  fibres, plus section_Q, pullbacks and general conjugation;
* ``spectral_height``: the same chain with 30-60-bit coefficients and
  fibre values of about 10-12 digits.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked.  A run times at least
``--seconds`` seconds and at least 100 operations.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of importing the modules the workload calls plus one
operation), ``op_p50_ms``/``op_p90_ms`` (operation latency), ``ops_per_s``
(operations per second of timed wall clock) and ``batch_tuples_per_s``
(one ``moduli nonempty --batch`` process over a 35,301-tuple grid, best of
several).  Each is scaled by a reference timed alongside it, so that drift
in the machine's speed cancels (see calibrate.py).  ``--trace 1`` wraps the
program's functions (see spans.py), runs a prefix of the same operations
untraced and then traced, and prints the per-layer metrics.  The last line
of output is one JSON object; the full result, with an environment
fingerprint and the output digest, is written to perfbench/out/.  The exit
code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cli", "extension", "split_higgs", "spectral_height")
MIN_OPS = 100  # so that ten timed operations lie beyond p90
DIGEST_OPS = 100  # the output digest covers the first 100 timed operations
SETUP_RUNS = 5
BATCH_RUNS = 9
IMPORT_RUNS = 5
HARD_STOP_S = 140  # stop timing early rather than overrun the 180 s limit
TRACE_SHARE = 0.3  # share of --seconds for the untraced prefix of a traced run
TRACE_MIN_OPS, TRACE_MAX_OPS = 20, 2000
BATCH_REFERENCE_KERNELS = 30  # the batch is mostly computation after start-up

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("batch_tuples_per_s", "1/s"),
]

IMPORT_MODULES = ["cohiggs", "errors", "exactalg", "_univariate", "_laurent", "linalg",
                  "cohomology", "chern", "higgs", "extension", "spectral", "jsonio", "cli"]


def _import_metric(mod: str) -> str:
    return f"import.{mod.lstrip('_')}_ms"


# (name, unit, how it is computed); self times and counts are per timed
# operation of the traced run unless the unit says otherwise.
PER_LAYER = (
    [("import.total_ms", "ms")]
    + [(_import_metric(m), "ms") for m in IMPORT_MODULES]
    + [
        ("cli.startup_ms", "ms"),
        ("cli.main.self_ms", "ms/op"),
        ("jsonio.decode.self_ms", "ms/op"),
        ("jsonio.encode.self_ms", "ms/op"),
        ("jsonio.bytes_out", "B/op"),
        ("chern.calls", "calls/op"),
        ("chern.self_ms", "ms/op"),
        ("cohomology.self_ms", "ms/op"),
        ("linalg.rank.calls", "calls/op"),
        ("linalg.rank.self_ms", "ms/op"),
        ("linalg.rank.cells", "cells/call"),
        ("linalg.rank.rank_ratio", "ratio"),
        ("laurent.calls", "calls/op"),
        ("laurent.self_ms", "ms/op"),
        ("extension.end0T_dimension.self_ms", "ms/op"),
        ("extension.glue_check.self_ms", "ms/op"),
        ("extension.build.self_ms", "ms/op"),
        ("exactalg.mul.calls", "calls/op"),
        ("exactalg.mul.self_ms", "ms/op"),
        ("exactalg.mul.terms_out", "terms/call"),
        ("exactalg.mul.max_coeff_bits", "bits"),
        ("exactalg.add.self_ms", "ms/op"),
        ("exactalg.exact_div.calls", "calls/op"),
        ("exactalg.exact_div.self_ms", "ms/op"),
        ("exactalg.exact_div.hit_ratio", "ratio"),
        ("exactalg.evaluate.self_ms", "ms/op"),
        ("exactalg.conjugate2.self_ms", "ms/op"),
        ("exactalg.ratfn.self_ms", "ms/op"),
        ("exactalg.polymat.self_ms", "ms/op"),
        ("univariate.gcd.self_ms", "ms/op"),
        ("univariate.resultant.self_ms", "ms/op"),
        ("higgs.stability_classify.self_ms", "ms/op"),
        ("higgs.is_integrable.self_ms", "ms/op"),
        ("higgs.normal_form.self_ms", "ms/op"),
        ("higgs.graded.self_ms", "ms/op"),
        ("spectral.hitchin_map.self_ms", "ms/op"),
        ("spectral.exact_sqrt.calls", "calls/op"),
        ("spectral.exact_sqrt.self_ms", "ms/op"),
        ("spectral.exact_sqrt.max_bits", "bits"),
        ("spectral.fibre_over_point.self_ms", "ms/op"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def child_env() -> dict:
    """Environment of every child interpreter: the package from src/ only,
    bytecode caches allowed (users run from an installed, compiled package),
    and no CLI logging on stderr."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "COHIGGS_LOG")}
    env["PYTHONPATH"] = SRC
    return env


def fingerprint(args) -> dict:
    sha = "unknown"  # a checkout without git metadata, or no git installed
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or sha
        except OSError:
            pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(), "git_sha": sha,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


class Tally:
    """Attempted and failed operations, the first failure messages, and the
    digest of the canonical outputs of the first DIGEST_OPS operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()
        self._digested = 0

    def record(self, call, digest: bool = True):
        """Run ``call()`` -> (result, canonical text); the result, or None on
        failure.  ``digest=False`` keeps the text out of the output digest."""
        self.attempted += 1
        try:
            result, text = call()
        except Exception:  # any failure of one operation is counted, not fatal
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(traceback.format_exc(limit=3)[-1500:])
            result, text = None, "FAILED"
        if digest and self._digested < DIGEST_OPS:
            self._digest.update(text.encode() + b"\n")
            self._digested += 1
        return result

    def digest(self) -> str:
        return f"sha256:{self._digest.hexdigest()} over {self._digested} ops"


# -- operations ------------------------------------------------------------------------


def library_op(workload: str):
    """(op(spec) -> (latency ns, canonical text), prepare, check) of a library workload."""
    import lib_ops

    prepare, check = lib_ops.WORKLOADS[workload]

    def op(spec):
        run = prepare(spec)
        t0 = time.perf_counter_ns()
        result = run()
        latency = time.perf_counter_ns() - t0
        return latency, check(spec, result)

    return op, prepare, check


def closed_loop(specs, op, seconds: float, tally: Tally, min_ops: int = MIN_OPS,
                max_ops: int | None = None, cal=None) -> tuple[list, list[int], list[int]]:
    """Run operations one after another until both ``seconds`` and
    ``min_ops`` are reached.  Returns the specs run, their latencies and,
    with ``cal``, for each latency the index of the first calibration
    sample taken after it (samples are taken between operations)."""
    done, latencies, marks = [], [], []
    start = time.perf_counter()
    while True:
        if cal is not None:
            cal.tick()
        elapsed = time.perf_counter() - start
        if (len(done) >= min_ops and elapsed >= seconds) or elapsed >= HARD_STOP_S:
            break
        if max_ops is not None and len(done) >= max_ops:
            break
        spec = next(specs)
        mark = len(cal.samples) if cal is not None else 0
        latency = tally.record(lambda: op(spec))
        done.append(spec)
        if latency is not None:
            latencies.append(latency)
            marks.append(mark)
    if cal is not None:
        cal.sample()
    return done, latencies, marks


def cli_op(workdir: str, env: dict):
    import cli_ops

    counter = iter(range(10**9))

    def op(spec):
        argv = cli_ops.materialize(spec, workdir, f"op{next(counter)}")
        code, stdout, wall = cli_ops.run_subprocess(argv, ROOT, env)
        return wall, cli_ops.check_output(spec, code, stdout)

    return op


def specs_for(workload: str, seed: int):
    if workload == "cli":
        import cli_ops

        return cli_ops.cli_ops(seed)
    import gen

    return gen.library_ops(workload, seed)


# -- end-to-end measurement ----------------------------------------------------------------


def probe_setup(workload: str, seed: int, workdir: str, env: dict) -> tuple[float, float]:
    """(set-up seconds, calibration kernel ms) from one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), "--workload", workload,
         "--seed", str(seed), "--workdir", workdir],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-3000:]}")
    setup_s, kernel_ms = proc.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(kernel_ms)


def measure_batch(seed: int, workdir: str, env: dict, tally: Tally) -> tuple[float, dict]:
    """Tuples per second of the best of BATCH_RUNS batch processes, after
    one untimed run that fills the bytecode and file caches.  Output goes to
    a file, as from a shell redirect, and is checked afterwards.  The best
    wall time is scaled by the best spawn reference sampled between the
    runs: the machine's slow phases last about as long as one run, so best
    against best is what repeats."""
    import cli_ops
    import gen

    grid = gen.batch_grid(seed)
    path = os.path.join(workdir, "grid.json")
    out_path = os.path.join(workdir, "batch.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tuples": grid}, fh)
    cmd = [sys.executable, "-m", "cohiggs.cli", "moduli", "nonempty", "--batch", path]
    first: list[str] = []

    def op():
        with open(out_path, "w", encoding="utf-8") as out:
            t0 = time.perf_counter_ns()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.PIPE,
                                  text=True, timeout=150)
            wall = time.perf_counter_ns() - t0
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        cli_ops.need(proc.returncode == 0 and not proc.stderr,
                     f"batch exit code {proc.returncode}: {proc.stderr[-300:]}")
        if first:  # the output is deterministic: later runs must repeat it byte for byte
            cli_ops.need(stdout == first[0], "batch output differs between runs")
        else:
            cli_ops.check_batch(grid, stdout)
            first.append(stdout)
        return wall, f"{len(stdout)}:{hashlib.sha256(stdout.encode()).hexdigest()}"

    cal = calibrate.spawn_calibration(env, ROOT, kernels=BATCH_REFERENCE_KERNELS)
    tally.record(op)  # untimed warm-up
    cal.sample()
    walls = []
    for _ in range(BATCH_RUNS):
        wall = tally.record(op)
        cal.sample()
        if wall is not None:
            walls.append(wall / 1e9)
    if not walls:
        return {"raw": 0.0, "scaled": 0.0}, {}
    best_reference_ms = min(cal.samples) / 1e6
    rates = {"raw": len(grid) / min(walls),
             "scaled": len(grid) / (min(walls) * cal.nominal_ms / best_reference_ms)}
    return rates, {"batch_wall_s": walls, "batch_best_reference_ms": best_reference_ms}


def measure(args, workdir: str) -> tuple[dict, dict, Tally]:
    """End-to-end metrics, each scaled by a reference timed alongside it
    (see calibrate.py); the raw values go to the result file."""
    env = child_env()
    tally = Tally()
    probes = []
    for k in range(SETUP_RUNS + 1):  # the first, untimed, writes the bytecode caches
        probe = tally.record(lambda: (probe_setup(args.workload, args.seed, workdir, env), ""),
                             digest=False)
        if k and probe is not None:
            probes.append(probe)

    specs = specs_for(args.workload, args.seed)
    if args.workload == "cli":
        op = cli_op(workdir, env)
        cal = calibrate.spawn_calibration(env, ROOT)
    else:
        op, _, _ = library_op(args.workload)
        cal = calibrate.kernel_calibration()
    warm = next(specs)
    tally.record(lambda: op(warm))  # untimed warm-up
    _, lat, marks = closed_loop(specs, op, args.seconds, tally, cal=cal)
    rates, batch_detail = measure_batch(args.seed, workdir, env, tally)

    def latency_metrics(ns: list) -> dict:
        ms = sorted(x / 1e6 for x in ns)
        if len(ms) < 2:
            return {"op_p50_ms": 0.0, "op_p90_ms": 0.0, "ops_per_s": 0.0}
        return {"op_p50_ms": statistics.median(ms),
                "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
                "ops_per_s": len(ms) / (sum(ms) / 1e3)}

    raw = {"setup_s": statistics.median(s for s, _ in probes) if probes else 0.0,
           **latency_metrics(lat), "batch_tuples_per_s": rates["raw"]}
    metrics = {
        "setup_s": statistics.median(s * calibrate.KERNEL_NOMINAL_MS / k for s, k in probes)
        if probes else 0.0,
        **latency_metrics(cal.scale(lat, marks)),
        "batch_tuples_per_s": rates["scaled"],
    }
    detail = {"raw": raw, "timed_ops": len(lat), "setup_probes_s_kernel_ms": probes,
              "latency_ms_min_max": [min(lat) / 1e6, max(lat) / 1e6] if lat else None,
              "loop_reference_ms": cal.reference_ms(), "loop_reference_nominal_ms": cal.nominal_ms,
              "loop_reference_samples": len(cal.samples), **batch_detail}
    return metrics, detail, tally


# -- traced run -------------------------------------------------------------------------------


def import_times(env: dict) -> dict:
    """Per-module self time and the total of importing the whole package
    (cohiggs.cli pulls in every module), from -X importtime in fresh
    interpreters; medians over IMPORT_RUNS after one run that warms caches."""
    def run(code: str) -> list[tuple[int, int, str]]:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stderr[-3000:]}")
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[0].strip().isdigit():
                rows.append((int(parts[0]), int(parts[1]), parts[2]))
        return rows

    startup = {name.strip() for _, _, name in run("pass")}
    run("import cohiggs.cli")
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_RUNS):
        rows = run("import cohiggs.cli")
        selfs = {name.strip(): us for us, _, name in rows}
        total = sum(cum for _, cum, name in rows
                    if name.startswith(" ") and not name.startswith("  ")
                    and name.strip() not in startup)
        samples.setdefault("import.total_ms", []).append(total / 1e3)
        for mod in IMPORT_MODULES:
            full = "cohiggs" if mod == "cohiggs" else f"cohiggs.{mod}"
            samples.setdefault(_import_metric(mod), []).append(selfs.get(full, 0) / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}


def span_metrics(tracer, n_ops: int) -> dict:
    by_name = tracer.self_ns_by_name()
    calls = tracer.calls_by_name()
    c = tracer.counters
    per_op = lambda ns: ns / 1e6 / n_ops  # noqa: E731
    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            out[name] = per_op(by_name.get(name.removesuffix(".self_ms"), 0))
        elif name.endswith(".calls"):
            out[name] = calls.get(name.removesuffix(".calls"), 0) / n_ops
    out["exactalg.mul.terms_out"] = c["mul.terms_out"] / c["mul.bipoly"] if c["mul.bipoly"] else 0.0
    out["exactalg.mul.max_coeff_bits"] = c["mul.max_coeff_bits"]
    div_calls = calls.get("exactalg.exact_div", 0)
    out["exactalg.exact_div.hit_ratio"] = c["exact_div.hits"] / div_calls if div_calls else 0.0
    rank_calls = calls.get("linalg.rank", 0)
    out["linalg.rank.cells"] = c["rank.cells"] / rank_calls if rank_calls else 0.0
    out["linalg.rank.rank_ratio"] = c["rank.rank"] / c["rank.rows"] if c["rank.rows"] else 0.0
    out["spectral.exact_sqrt.max_bits"] = c["exact_sqrt.max_bits"]
    return out


def emphasis(workload: str, tracer, metrics: dict) -> dict:
    """Which layer has the largest self time, and whether that is the layer
    this workload was chosen to stress."""

    if workload == "cli":
        main_ms = metrics["cli.main_inprocess_ms"]
        return {"claim": "start-up plus import exceeds in-process main() per CLI run",
                "startup_ms": metrics["cli.startup_ms"], "main_ms": main_ms,
                "confirmed": metrics["cli.startup_ms"] > main_ms}
    if workload == "spectral_height":
        durations = tracer.op_durations()
        ops = set(sorted(durations, key=durations.get, reverse=True)[:max(1, len(durations) // 10)])
        by = {k: v for k, v in tracer.self_ns_by_name(ops).items() if k != "bench.op"}
        top = max(by, key=by.get)
        return {"claim": "spectral.exact_sqrt has the largest self time in the slowest tenth of operations",
                "top": top, "self_ms": {k: v / 1e6 for k, v in sorted(by.items(), key=lambda kv: -kv[1])[:5]},
                "confirmed": top == "spectral.exact_sqrt"}
    want = {"extension": "linalg", "split_higgs": "exactalg"}[workload]
    layers = {k: v for k, v in spans.self_ns_by_layer(tracer.self_ns_by_name()).items() if k != "bench"}
    top = max(layers, key=layers.get)
    return {"claim": f"{want} has the largest self time", "top": top,
            "self_ms": {k: v / 1e6 for k, v in sorted(layers.items(), key=lambda kv: -kv[1])},
            "confirmed": top == want}


def traced_library(args, tally: Tally):
    import lib_ops

    op, prepare, check = library_op(args.workload)
    specs = specs_for(args.workload, args.seed)
    warm = next(specs)
    tally.record(lambda: op(warm))  # untimed warm-up
    done, base, _ = closed_loop(specs, op, args.seconds * TRACE_SHARE, tally,
                                TRACE_MIN_OPS, TRACE_MAX_OPS)
    tracer = spans.Tracer()
    tracer.install([lib_ops])
    traced = []
    try:
        for k, spec in enumerate(done):
            def call(k=k, spec=spec):
                run = prepare(spec)
                t0 = time.perf_counter_ns()
                result = tracer.run_op(k, run)
                latency = time.perf_counter_ns() - t0
                return latency, check(spec, result)
            latency = tally.record(call)
            if latency is not None:
                traced.append(latency)
    finally:
        tracer.uninstall()
    metrics = span_metrics(tracer, len(done))
    metrics.update({"cli.startup_ms": 0.0, "jsonio.bytes_out": 0.0,
                    "trace.overhead_ratio": sum(traced) / sum(base) if base else 0.0})
    return metrics, tracer, len(done)


def traced_cli(args, workdir: str, env: dict, tally: Tally):
    import cli_ops

    op = cli_op(workdir, env)
    specs = specs_for("cli", args.seed)
    warm = next(specs)
    tally.record(lambda: op(warm))  # untimed warm-up
    done, sub, _ = closed_loop(specs, op, args.seconds * TRACE_SHARE, tally, TRACE_MIN_OPS,
                               TRACE_MAX_OPS)
    argvs = [cli_ops.materialize(spec, workdir, f"t{k}") for k, spec in enumerate(done)]
    import cohiggs.cli

    def run_main(argv):
        return cli_ops.run_inprocess(cohiggs.cli.main, argv)

    for argv in argvs:  # untimed: first in-process calls pay one-off costs
        run_main(argv)
    base = []
    for spec, argv in zip(done, argvs):
        def call(spec=spec, argv=argv):
            code, stdout, wall = run_main(argv)
            return wall, cli_ops.check_output(spec, code, stdout)
        latency = tally.record(call)
        if latency is not None:
            base.append(latency)
    tracer = spans.Tracer()
    tracer.install([cli_ops])
    traced, out_bytes = [], 0
    try:
        for k, (spec, argv) in enumerate(zip(done, argvs)):
            def call(k=k, spec=spec, argv=argv):
                nonlocal out_bytes
                code, stdout, wall = tracer.run_op(k, lambda: run_main(argv))
                out_bytes += len(stdout.encode())
                return wall, cli_ops.check_output(spec, code, stdout)
            latency = tally.record(call)
            if latency is not None:
                traced.append(latency)
    finally:
        tracer.uninstall()
    n = len(done)
    metrics = span_metrics(tracer, n)
    metrics.update({
        "cli.startup_ms": (sum(sub) - sum(base)) / 1e6 / n,
        "cli.main_inprocess_ms": sum(base) / 1e6 / n,
        "jsonio.bytes_out": out_bytes / n,
        "trace.overhead_ratio": sum(traced) / sum(base) if base else 0.0,
    })
    return metrics, tracer, n


def measure_traced(args, workdir: str) -> tuple[dict, dict, Tally]:
    env = child_env()
    tally = Tally()
    imports = import_times(env)
    if args.workload == "cli":
        metrics, tracer, n = traced_cli(args, workdir, env, tally)
    else:
        metrics, tracer, n = traced_library(args, tally)
    metrics.update(imports)
    detail = {"traced_ops": n, "spans": len(tracer.spans) // spans.FIELDS,
              "emphasis": emphasis(args.workload, tracer, metrics)}
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}"))
    return {name: metrics[name] for name, _ in PER_LAYER}, detail, tally


# -- entry point ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cohiggs", "__init__.py")):
        print(f"cohiggs sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            metrics, detail, tally = measure_traced(args, workdir)
            units = dict(PER_LAYER)
        else:
            metrics, detail, tally = measure(args, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fp = fingerprint(args)
    correct = tally.failed == 0
    print(" ".join(f"{k}={v}" for k, v in fp.items()))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    print(f"  {'fail_ratio':<36} {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6f} (failed/attempted operations)")
    for key, value in detail.items():
        print(f"  {key}: {json.dumps(value)}")
    print(f"  outputs {tally.digest()}")
    for failure in tally.failures:
        print("  FAILED: " + failure.replace("\n", "\n    "))
    record = {"fingerprint": fp, "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "failures": tally.failures, "digest": tally.digest(),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "detail": detail}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
