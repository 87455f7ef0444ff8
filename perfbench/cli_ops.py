"""Operations of the ``cli`` workload and the checks on their outputs.

One round covers all 18 subcommand paths with seeded JSON inputs, then one
domain error (exit 1) and one malformed input (exit 2).  Each operation is
one ``python -m cohiggs.cli`` process; the traced run calls
``cohiggs.cli.main`` in-process on the same argument vectors instead.  Only
the JSON the CLI prints is checked, so this module never imports ``cohiggs``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import gen
import oracle as orc
from oracle import CheckFailed, need

# -- JSON payloads in the CLI's documented schema ---------------------------------


def rat_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def rat_arg(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def poly_json(p: dict) -> dict:
    return {"monomials": [{"i": i, "j": j, "num": c.numerator, "den": c.denominator}
                          for (i, j), c in sorted(p.items())]}


def mat_json(a: dict, b: dict, c: dict) -> dict:
    return {"m": [[poly_json(a), poly_json(b)], [poly_json(c), poly_json(orc.neg(a))]]}


def field_json(spec: dict) -> dict:
    l1, l2 = spec["bundle"]
    e = spec["entries"]
    return {"bundle": {"L1": list(l1), "L2": list(l2)},
            "phi1": mat_json(*e[:3]), "phi2": mat_json(*e[3:])}


def poly_of(obj: dict) -> dict:
    return orc.clean({(m["i"], m["j"]): Fraction(m["num"], m["den"]) for m in obj["monomials"]})


def rat_of(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def entries_of(field: dict) -> tuple[dict, ...]:
    out = []
    for comp in ("phi1", "phi2"):
        m = field[comp]["m"]
        out += [poly_of(m[0][0]), poly_of(m[0][1]), poly_of(m[1][0])]
        need(poly_of(m[1][1]) == orc.neg(out[-3]), "output matrix is not trace-free")
    return tuple(out)


def _sqrt(q: Fraction) -> Fraction:
    """Square root of a rational square."""
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    assert n * n == q.numerator and d * d == q.denominator
    return Fraction(n, d)


# -- one round of operations ----------------------------------------------------------

INTEGRABLE = ("oo_semistable", "oo_stable", "f0", "pm1", "ext_split")


def op(path: str, argv: list, files=None, code: int = 0, **expect) -> dict:
    return {"path": path, "argv": argv, "files": files or {}, "exit": code, **expect}


def cli_round(rng) -> list[dict]:
    small = gen.small_rat
    ints = lambda lo, hi, n: [rng.randint(lo, hi) for _ in range(n)]  # noqa: E731
    ops = []

    a, b = ints(-6, 6, 2)
    ops.append(op("cohomology", ["cohomology", f"--a={a}", f"--b={b}"], h=orc.h_dims(a, b)))

    al, be, ga = ints(-9, 9, 3)
    ops.append(op("moduli nonempty", ["moduli", "nonempty", f"--alpha={al}", f"--beta={be}",
                                       f"--gamma={ga}"], chern=(al, be, ga)))
    al, be, ga, d, r = ints(-5, 5, 5)
    ops.append(op("moduli bundle-nonempty", ["moduli", "bundle-nonempty", f"--alpha={al}",
                                              f"--beta={be}", f"--gamma={ga}", f"--d={d}",
                                              f"--r={r}"],
                  bundle=orc.bundle_nonempty(al, be, ga, d, r)))
    d, r, c2 = rng.randint(0, 4), rng.randint(-6, 1), rng.randint(-5, 30)
    ops.append(op("moduli no-higgs-region", ["moduli", "no-higgs-region", f"--d={d}", f"--r={r}",
                                              f"--c2={c2}"], nohiggs=orc.no_higgs_region(d, r, c2)))
    al, be, ga = ints(-9, 9, 3)
    ops.append(op("reduce", ["reduce", f"--alpha={al}", f"--beta={be}", f"--gamma={ga}"],
                  chern=(al, be, ga)))

    f = gen.higgs_op(rng, rng.choice(INTEGRABLE + ("random_any",)), big=False)
    ops.append(op("higgs check", ["higgs", "check", "--field", "@field"], {"field": field_json(f)},
                  field=f))
    f = gen.higgs_op(rng, rng.choice(("f0", "pm1", "ext_split")), big=False)
    ops.append(op("higgs normal-form", ["higgs", "normal-form", "--field", "@field"],
                  {"field": field_json(f)}, field=f))
    f = gen.higgs_op(rng, "oo_semistable", big=False)
    ops.append(op("higgs graded", ["higgs", "graded", "--field", "@field"],
                  {"field": field_json(f)}, field=f))
    s = gen.higgs_op(rng, "section_q", big=False)
    ops.append(op("higgs section-q", ["higgs", "section-q", "--rho", "@rho", f"--axis={s['axis']}"],
                  {"rho": poly_json(s["rho"])}, section=s))
    s = gen.higgs_op(rng, "pullback", big=False)
    ops.append(op("higgs pullback", ["higgs", "pullback", "--a", "@a", "--b", "@b", "--c", "@c",
                                      f"--axis={s['axis']}"],
                  {k: poly_json(s[k]) for k in ("a", "b", "c")}, pullback=s))

    u, v = gen.ext_class(rng)
    ops.append(op("ext dims", ["ext", "dims", f"--u={rat_arg(u)}", f"--v={rat_arg(v)}"]))
    u, v = gen.ext_class(rng)
    p1, p2 = gen.nonzero_params(rng, gen.PHI1_KEYS), gen.nonzero_params(rng, gen.PHI2_KEYS)
    ops.append(op("ext build", ["ext", "build", f"--u={rat_arg(u)}", f"--v={rat_arg(v)}",
                                "--phi1", "@phi1", "--phi2", "@phi2"],
                  {"phi1": {k: rat_json(q) for k, q in p1.items()},
                   "phi2": {k: rat_json(q) for k, q in p2.items()}}))
    u, v = gen.ext_class(rng)
    stratum, keys = rng.choice((("S1", gen.PHI1_KEYS), ("S2", gen.PHI2_KEYS)))
    params = gen.nonzero_params(rng, keys)
    point = {"ext": {"u": rat_json(u), "v": rat_json(v)}, "stratum": stratum,
             "params": {k: rat_json(q) for k, q in params.items()}}
    scale = u if u else v
    ops.append(op("ext classify", ["ext", "classify", "--point", "@point"], {"point": point},
                  stratum=stratum, ext=(u / scale, v / scale)))
    u, v = gen.ext_class(rng)
    lam, delta = small(rng, nonzero=True), small(rng, nonzero=True)
    same = rng.random() < 0.5
    u2, v2 = (u * lam, v * lam) if same else ((u, v + delta) if u else (delta, v))
    ops.append(op("ext weak-iso", ["ext", "weak-iso", f"--u1={rat_arg(u)}", f"--v1={rat_arg(v)}",
                                   f"--u2={rat_arg(u2)}", f"--v2={rat_arg(v2)}"], iso=same))

    f = gen.higgs_op(rng, rng.choice(INTEGRABLE), big=False)
    ops.append(op("hitchin", ["hitchin", "--field", "@field"], {"field": field_json(f)}, field=f))

    f = gen.higgs_op(rng, "oo_semistable", big=False)
    rho = orc.hitchin(*f["entries"])
    z1, z2 = f["point"]
    r1, r12, r2 = (orc.evaluate(p, z1, z2) for p in rho)
    eta1 = _sqrt(-r1)
    eta2 = -r12 / (2 * eta1) if eta1 else _sqrt(-r2)
    ops.append(op("spectral residual", ["spectral", "residual", "--rho", "@rho",
                                         "--point=" + ",".join(rat_arg(q) for q in (z1, z2, eta1, eta2))],
                  {"rho": {"rho1": poly_json(rho[0]), "rho12": poly_json(rho[1]),
                           "rho2": poly_json(rho[2])}},
                  residual=(r1 + eta1 * eta1, r2 + eta2 * eta2, r12 + 2 * eta1 * eta2)))
    s = gen.higgs_op(rng, "section_q", big=False)
    datum = (s["rho"], {}, {}) if s["axis"] == 1 else ({}, {}, s["rho"])
    ops.append(op("spectral classify", ["spectral", "classify", "--rho", "@rho"],
                  {"rho": {"rho1": poly_json(datum[0]), "rho12": poly_json(datum[1]),
                           "rho2": poly_json(datum[2])}},
                  cls=f"ProductCaseAxis{s['axis']}" if s["generic"] else "NonGenericOther"))
    f = gen.higgs_op(rng, rng.choice(INTEGRABLE), big=False)
    z1, z2 = f["point"]
    ops.append(op("spectral fibre", ["spectral", "fibre", "--field", "@field",
                                      f"--z1={rat_arg(z1)}", f"--z2={rat_arg(z2)}"],
                  {"field": field_json(f)}, field=f))

    pick = rng.randrange(3)
    if pick == 0:
        ops.append(op("domain error", ["ext", "dims", "--u=0", "--v=0"], code=1,
                      kind="TrivialExtension"))
    elif pick == 1:
        f = gen.higgs_op(rng, "oo_stable", big=False)
        ops.append(op("domain error", ["higgs", "normal-form", "--field", "@field"],
                      {"field": field_json(f)}, code=1, kind="CoHiggsError"))
    else:
        f = gen.higgs_op(rng, "random_any", big=False)
        ops.append(op("domain error", ["hitchin", "--field", "@field"], {"field": field_json(f)},
                      code=1, kind="NotIntegrable"))

    pick = rng.randrange(3)
    if pick == 0:
        ops.append(op("input error", ["spectral", "residual", "--rho", "@rho", "--point=1,2,3"],
                      {"rho": {"rho1": poly_json({}), "rho12": poly_json({}), "rho2": poly_json({})}},
                      code=2, kind="InputError"))
    elif pick == 1:
        f = field_json(gen.higgs_op(rng, "f0", big=False))
        del f["phi1"]
        ops.append(op("input error", ["higgs", "check", "--field", "@field"], {"field": f},
                      code=2, kind="InputError"))
    else:
        ops.append(op("input error", ["ext", "weak-iso", "--u1=one", "--v1=2", "--u2=3", "--v2=4"],
                      code=2, kind="InputError"))
    return ops


def cli_ops(seed: int):
    """Endless stream of CLI operations, one full round after another."""
    rng = gen.rng_for("cli", seed)
    while True:
        yield from cli_round(rng)


# -- running -----------------------------------------------------------------------------


def materialize(spec: dict, workdir: str, tag: str) -> list[str]:
    """Write the operation's input files and return its argument vector."""
    paths = {}
    for name, obj in spec["files"].items():
        path = os.path.join(workdir, f"{tag}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        paths["@" + name] = path
    return [paths.get(a, a) for a in spec["argv"]]


def run_subprocess(argv: list[str], root: str, env: dict) -> tuple[int, str, int]:
    """(exit code, stdout, wall ns) of one ``python -m cohiggs.cli`` process."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "cohiggs.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter_ns() - t0
    need(not proc.stderr, f"CLI wrote to stderr: {proc.stderr[-300:]}")
    return proc.returncode, proc.stdout, wall


def run_inprocess(main, argv: list[str]) -> tuple[int, str, int]:
    buf = io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), time.perf_counter_ns() - t0


# -- checks ---------------------------------------------------------------------------------


def _reduced_expect(chern) -> dict:
    tag, twist, gp = orc.reduced(*chern)
    return {"tag": tag, "twist": list(twist), "gamma_prime": gp}


def check_output(spec: dict, code: int, stdout: str) -> str:
    """Raise CheckFailed unless exit code and JSON are right; return the
    canonical text of the output (exit code and stdout bytes)."""
    need(code == spec["exit"], f"{spec['path']}: exit {code}, expected {spec['exit']}")
    lines = stdout.splitlines()
    need(len(lines) == 1, f"{spec['path']}: expected one JSON line")
    out = json.loads(lines[0])
    path = spec["path"]
    if spec["exit"]:
        need(out["error"]["kind"] == spec["kind"], f"{path}: error kind {out['error']['kind']}")
    elif path == "cohomology":
        need((out["h0"], out["h1"], out["h2"]) == spec["h"], "cohomology dimensions")
    elif path == "moduli nonempty":
        nonempty, disc = orc.moduli_nonempty(*spec["chern"])
        need(out == {"nonempty": nonempty, "reduced": _reduced_expect(spec["chern"]),
                     "theorem48_case2_discrepancy": disc}, "moduli nonempty verdict")
    elif path == "moduli bundle-nonempty":
        need((out["nonempty"], out["length"]) == spec["bundle"], "bundle moduli verdict")
    elif path == "moduli no-higgs-region":
        need(out == {"no_nontrivial_higgs": spec["nohiggs"]}, "no-higgs region verdict")
    elif path == "reduce":
        need(out == _reduced_expect(spec["chern"]), "reduced class")
    elif path == "higgs check":
        f = spec["field"]
        want = f.get("stability") if f["integrable"] else None
        need(out == {"valid": True, "integrable": f["integrable"], "stability": want},
             "higgs check verdict")
    elif path == "higgs normal-form":
        f = spec["field"]
        orc.check_normal_form(f["kind"], f["entries"], entries_of(out["field"]))
    elif path == "higgs graded":
        a1, a2 = spec["field"]["graded"]
        need((poly_of(out["s_equiv_rep"]["A1"]), poly_of(out["s_equiv_rep"]["A2"])) == (a1, a2),
             "s_equiv_rep differs from the construction")
        g = entries_of(out["field"])
        need(not any(g[k] for k in (1, 2, 4, 5)), "graded object is not diagonal")
    elif path == "higgs section-q":
        s = spec["section"]
        got = entries_of(out["field"])[(0 if s["axis"] == 1 else 3):][:3]
        need(got == ({}, orc.neg(s["rho"]), orc.const(1)), "section_Q is not (0 -rho; 1 0)")
    elif path == "higgs pullback":
        need(poly_of(out["rho"]) == spec["pullback"]["rho"], "pullback rho != -(a^2 + b c)")
    elif path == "ext dims":
        need(out == {"dim20": 6, "dim02": 5, "total": 11}, "end0T dimensions")
    elif path == "ext build":
        need(out["glue_check"] == {"phi1": True, "phi2": True}, "closed forms fail glue_check")
        need(out["dichotomy"] == "NotIntegrable", "dichotomy with both parts nonzero")
    elif path == "ext classify":
        need(out["stratum"] == spec["stratum"], "stratum tag changed")
        ext = out["point"]["ext"]
        need((rat_of(ext["u"]), rat_of(ext["v"])) == spec["ext"], "extension class not normalized")
    elif path == "ext weak-iso":
        need(out == {"weak_iso": spec["iso"]}, "weak isomorphism verdict")
    elif path == "hitchin":
        rho = orc.hitchin(*spec["field"]["entries"])
        need(tuple(poly_of(out[k]) for k in ("rho1", "rho12", "rho2")) == rho, "Hitchin image")
        need(out["consistent"] is True, "Hitchin image not consistent")
    elif path == "spectral residual":
        got = tuple(rat_of(out[k]) for k in ("r1", "r2", "r3"))
        need(got == spec["residual"] and out["on_surface"] == (not any(got)), "surface residuals")
        need(out["on_surface"], "constructed point is off the surface")
    elif path == "spectral classify":
        need(out == {"classification": spec["cls"]}, "fibre decomposability class")
    elif path == "spectral fibre":
        f = spec["field"]
        need((rat_of(out["z1"]), rat_of(out["z2"])) == f["point"], "fibre base point")
        points = [tuple((rat_of(p[k]), p[k]["radicand"]) for k in ("eta1", "eta2"))
                  for p in out["points"]]
        orc.check_fibre(orc.hitchin(*f["entries"]), f["point"],
                        tuple(rat_of(out[k]) for k in ("disc1", "disc2", "pairing_rhs")),
                        out["ramified"], points)
    else:
        raise CheckFailed(f"no check for {path}")
    return f"{code}:{stdout}"


def check_batch(grid: list, stdout: str) -> None:
    """Every batch verdict equals the reduction-route formula."""
    lines = stdout.splitlines()
    need(len(lines) == len(grid), f"batch printed {len(lines)} lines for {len(grid)} tuples")
    for (al, be, ga), line in zip(grid, lines):
        out = json.loads(line)
        nonempty, disc = orc.moduli_nonempty(al, be, ga)
        need((out["alpha"], out["beta"], out["gamma"]) == (al, be, ga), "batch tuple order")
        need(out["nonempty"] == nonempty and out["theorem48_case2_discrepancy"] == disc,
             f"batch verdict for {(al, be, ga)}")
        need(out["reduced"] == _reduced_expect((al, be, ga)), f"batch reduced class for {(al, be, ga)}")
