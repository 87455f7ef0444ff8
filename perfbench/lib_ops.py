"""Library operations of the ``extension``, ``split_higgs`` and
``spectral_height`` workloads, and the checks on their outputs.

Each operation has three steps.  ``prepare`` turns the generated plain data
into library objects and is not timed.  The returned ``run`` callable makes
the timed calls into the public API.  ``check`` compares the result with the
construction or with :mod:`oracle` and returns the canonical text of the
result, which feeds the workload's output digest.
"""

from __future__ import annotations

import dataclasses
import enum
from fractions import Fraction

import oracle as orc
from oracle import need
from cohiggs import errors, exactalg
from cohiggs import extension as ext
from cohiggs import higgs
from cohiggs import spectral
from cohiggs.cohomology import LineBundle
from cohiggs.exactalg import BiPoly, PolyMat2


# -- conversions and canonical text -----------------------------------------------


def poly(p: dict) -> BiPoly:
    return BiPoly(p)


def plain(p) -> dict:
    """A library polynomial (or integer/Fraction) as an oracle dict."""
    if isinstance(p, (int, Fraction)):
        return orc.const(p)
    return {(i, j): c for i, j, c in p.terms()}


def field_of(spec: dict) -> higgs.HiggsField:
    (a, b), (c, d) = spec["bundle"]
    bundle = higgs.DecomposableBundle(LineBundle(a, b), LineBundle(c, d))
    a1, b1, c1, a2, b2, c2 = (poly(p) for p in spec["entries"])
    return higgs.field(bundle, a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2)


def field_entries(f) -> tuple[dict, ...]:
    return tuple(plain(f.phi1.entry(i, j)) for i, j in ((0, 0), (0, 1), (1, 0))) + tuple(
        plain(f.phi2.entry(i, j)) for i, j in ((0, 0), (0, 1), (1, 0)))


def canon(x) -> str:
    """Deterministic text of a result, independent of object identity."""
    if isinstance(x, enum.Enum):
        return str(x.value)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (bool, int, str)) or x is None:
        return repr(x)
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + "(" + ",".join(
            canon(getattr(x, f.name)) for f in dataclasses.fields(x)) + ")"
    if hasattr(x, "terms"):
        return "[" + ";".join(f"{i},{j}:{canon(c)}" for i, j, c in x.terms()) + "]"
    if hasattr(x, "num") and hasattr(x, "den"):
        return canon(x.num) + "/" + canon(x.den)
    if hasattr(x, "entry"):
        return "M(" + ",".join(canon(x.entry(i, j)) for i in range(2) for j in range(2)) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}={canon(v)}" for k, v in sorted(x.items())) + "}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    raise TypeError(f"no canonical text for {type(x).__name__}")


# -- the extension family ------------------------------------------------------------


UNIT_P1 = [ext.Phi1Params(**{k: Fraction(1)}) for k in ("c00", "c01", "c02", "c10", "c11", "c12")]
UNIT_P2 = [ext.Phi2Params(**{k: Fraction(1)}) for k in ("a00", "a01", "a02", "b00", "b10")]


def prepare_extension(spec: dict):
    u, v = spec["u"], spec["v"]
    e = ext.ExtParams(u, v)
    p1, p2 = ext.Phi1Params(**spec["p1"]), ext.Phi2Params(**spec["p2"])
    lam, delta = spec["scale"], spec["delta"]
    scaled = ext.ExtParams(u * lam, v * lam)
    other = ext.ExtParams(u, v + delta) if u else ext.ExtParams(delta, v)
    s1 = ext.ModuliPoint(e, ext.Stratum.S1, p1)
    s2 = ext.ModuliPoint(e, ext.Stratum.S2, p2)

    def run():
        dims = ext.end0T_dimension(e)
        built = []
        for p in UNIT_P1:
            m = ext.build_phi1(e, p)
            built.append((m, ext.glue_check(e, m, ext.TWIST_20)))
        for p in UNIT_P2:
            m = ext.build_phi2(e, p)
            built.append((m, ext.glue_check(e, m, ext.TWIST_02)))
        dichotomy = (
            ext.dichotomy_check(e, p1, p2),
            ext.dichotomy_check(e, p1, ext.Phi2Params()),
            ext.dichotomy_check(e, ext.Phi1Params(), p2),
        )
        strata = (ext.stratum_classify(s1), ext.stratum_classify(s2))
        iso = (ext.weak_iso(e, scaled), ext.weak_iso(e, other))
        return dims, built, dichotomy, strata, iso

    return run


def check_extension(spec: dict, result) -> str:
    dims, built, dichotomy, strata, iso = result
    need(tuple(dims) == (6, 5, 11), f"end0T_dimension gave {dims}")
    need(all(ok for _, ok in built), "a closed-form section failed glue_check")
    need([d.value for d in dichotomy] == ["NotIntegrable", "Phi1Only", "Phi2Only"],
         f"dichotomy gave {[d.value for d in dichotomy]}")
    u, v = spec["u"], spec["v"]
    s = u if u else v
    for point, stratum, params in zip(strata, ("S1", "S2"), (spec["p1"], spec["p2"])):
        need(point.stratum.value == stratum, "stratum tag changed")
        need((point.ext.u, point.ext.v) == (u / s, v / s), "extension class not normalized")
        need(all(getattr(point.params, k) == q for k, q in params.items()), "point parameters changed")
    need(iso == (True, False), f"weak_iso gave {iso}")
    return canon(result)


# -- Higgs fields on split bundles -------------------------------------------------------

# Module attributes are looked up at call time, so the traced run's wrappers apply.
NORMAL_FORMS = {
    "f0": lambda f: higgs.normal_form_F0(f)[0],
    "pm1": lambda f: higgs.normal_form_pm1(f),
    "ext_split": lambda f: ext.trivial_extension_normal_form(f),
}


def prepare_higgs(spec: dict):
    kind = spec["kind"]
    if kind == "section_q":
        rho, axis = poly(spec["rho"]), spec["axis"]

        def run():
            f = higgs.section_Q(rho, axis)
            s = spectral.hitchin_map(f)
            return (f, higgs.stability_classify(f), s, spectral.is_generic_quartic(rho),
                    spectral.fibre_decomposability(s))
        return run
    if kind == "pullback":
        a, b, c, axis = poly(spec["a"]), poly(spec["b"]), poly(spec["c"]), spec["axis"]

        def run():
            pb = higgs.pullback_from_line(a, b, c, axis)
            s = spectral.hitchin_map(pb.field)
            return (pb, higgs.stability_classify(pb.field), spectral.is_generic_quartic(pb.rho),
                    spectral.fibre_decomposability(s))
        return run
    if kind == "conjugate":
        phi = PolyMat2([[poly(x) for x in row] for row in spec["phi"]])
        psi = PolyMat2([[poly(x) for x in row] for row in spec["psi"]])
        return lambda: exactalg.conjugate2(phi, psi)

    f = field_of(spec)
    point = spec["point"]
    normal_form = NORMAL_FORMS.get(kind)

    def run():
        out = {"valid": higgs.validate_field(f), "integrable": higgs.is_integrable(f)}
        if not out["integrable"]:
            for name, call in (("stability", higgs.stability_classify), ("hitchin", spectral.hitchin_map)):
                try:
                    call(f)
                    out[name] = "returned"
                except errors.NotIntegrable:
                    out[name] = "NotIntegrable"
            return out
        out["stability"] = higgs.stability_classify(f)
        out["hitchin"] = s = spectral.hitchin_map(f)
        out["consistent"] = spectral.rho_consistent(s)
        if kind == "oo_semistable":
            out["graded"] = higgs.graded_object(f)
            out["s_equiv"] = higgs.s_equiv_rep(f)
        if normal_form is not None:
            rep = normal_form(f)
            out["normal_form"] = (rep, normal_form(rep))
        out["fibre"] = spectral.fibre_over_point(f, *point)
        return out

    return run


def check_rho(s, entries) -> tuple[dict, dict, dict]:
    rho = orc.hitchin(*entries)
    got = (plain(s.rho1), plain(s.rho12), plain(s.rho2))
    need(got == rho, "hitchin_map differs from (det Phi1, -2(A1 A2 + B1 C2), det Phi2)")
    need(orc.mul(rho[1], rho[1]) == orc.scale(orc.mul(rho[0], rho[2]), 4), "rho12^2 != 4 rho1 rho2")
    return rho


def check_higgs(spec: dict, result) -> str:
    kind = spec["kind"]
    if kind == "section_q":
        f, stability, s, generic, cls = result
        axis = spec["axis"]
        comp = (f.phi1, f.phi2)[axis - 1]
        need([plain(comp.entry(i, j)) for i in range(2) for j in range(2)]
             == [{}, orc.neg(spec["rho"]), orc.const(1), {}], "section_Q is not (0 -rho; 1 0)")
        need(stability.value == "Stable", "section_Q field is not stable")
        expect = (spec["rho"], {}, {}) if axis == 1 else ({}, {}, spec["rho"])
        need((plain(s.rho1), plain(s.rho12), plain(s.rho2)) == expect, "Hitchin image of section_Q")
        need(generic == spec["generic"], "is_generic_quartic verdict")
        want = f"ProductCaseAxis{axis}" if spec["generic"] else "NonGenericOther"
        need(cls.value == want, f"fibre_decomposability gave {cls.value}")
    elif kind == "pullback":
        pb, stability, generic, cls = result
        need(plain(pb.rho) == spec["rho"], "pullback rho != -(a^2 + b c)")
        need(stability.value == "Stable", "pulled-back field is not stable")
        need(generic == spec["generic"], "is_generic_quartic verdict")
        want = f"ProductCaseAxis{spec['axis']}" if spec["generic"] else "NonGenericOther"
        need(cls.value == want, f"fibre_decomposability gave {cls.value}")
    elif kind == "conjugate":
        phi, psi = spec["phi"], spec["psi"]
        parts = [[(plain(getattr(x, "num", x)), plain(getattr(x, "den", 1)))
                  for x in (result.entry(i, 0), result.entry(i, 1))] for i in range(2)]
        rhs = orc.matmul(psi, phi)
        for i in range(2):
            (n0, d0), (n1, d1) = parts[i]
            for j in range(2):
                lhs = orc.add(orc.mul(orc.mul(n0, psi[0][j]), d1), orc.mul(orc.mul(n1, psi[1][j]), d0))
                need(lhs == orc.mul(rhs[i][j], orc.mul(d0, d1)), "conjugate2: R psi != psi phi")
        (n00, d00), (n11, d11) = parts[0][0], parts[1][1]
        need(not orc.add(orc.mul(n00, d11), orc.mul(n11, d00)), "conjugate2 changed the trace")
    else:
        entries = spec["entries"]
        need(result["valid"], "validate_field rejected a field built inside its slots")
        need(result["integrable"] == spec["integrable"], "is_integrable verdict")
        if not spec["integrable"]:
            need(result["stability"] == result["hitchin"] == "NotIntegrable",
                 "non-integrable field not refused")
            return canon(result)
        need(result["stability"].value == spec["stability"], "stability verdict")
        need(result["consistent"], "rho_consistent is false on a Hitchin image")
        rho = check_rho(result["hitchin"], entries)
        if kind == "oo_semistable":
            a1, a2 = spec["graded"]
            got = tuple(plain(x) for x in result["s_equiv"])
            need(got == (a1, a2), "s_equiv_rep differs from the construction")
            g = field_entries(result["graded"])
            need(not g[1] and not g[2] and not g[4] and not g[5], "graded object is not diagonal")
            need((g[0], g[3]) in ((a1, a2), (orc.neg(a1), orc.neg(a2))), "graded diagonal")
        if "normal_form" in result:
            rep, again = (field_entries(f) for f in result["normal_form"])
            need(again == rep, "normal form is not idempotent")
            orc.check_normal_form(kind, entries, rep)
        fib = result["fibre"]
        orc.check_fibre(rho, spec["point"], (fib.disc1, fib.disc2, fib.pairing_rhs), fib.ramified,
                        [((e1.coef, e1.radicand), (e2.coef, e2.radicand)) for e1, e2 in fib.points])
    return canon(result)


WORKLOADS = {
    "extension": (prepare_extension, check_extension),
    "split_higgs": (prepare_higgs, check_higgs),
    "spectral_height": (prepare_higgs, check_higgs),
}
