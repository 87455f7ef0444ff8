"""JSON encoding/decoding for every CLI-facing value.

All rational numbers travel as {"num": int, "den": int} pairs; no floats
anywhere.  Polynomials serialize their monomials in descending graded-lex
order, which makes output byte-deterministic.  Decoders accept only JSON
integers where an integer is expected (no floats, strings or booleans), a
nonzero denominator, each exponent pair of a polynomial at most once (a
repeat is refused, not summed), objects with no key they do not read and
arrays of the expected length; they raise ValueError on anything else, which
the CLI maps to exit code 2.  The extension types are imported by the codecs
that build them, and spectral data is a ``higgs`` type, so decoding a Higgs
field or spectral data loads neither ``extension`` nor ``spectral``.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import TYPE_CHECKING

from .cohomology import LineBundle
from .errors import int_from_json
from .exactalg import BiPoly, PolyMat2
from .higgs import DecomposableBundle, HiggsField, SpectralData

if TYPE_CHECKING:
    from .extension import ModuliPoint, Phi1Params, Phi2Params
    from .spectral import EtaValue, Fibre


def rat_to_json(q: Fraction) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def _fraction(num, den) -> Fraction:
    num, den = int_from_json(num, "numerator"), int_from_json(den, "denominator")
    if not den:
        raise ValueError("zero denominator")
    return Fraction(num, den)


def _fields_of(obj, keys, what: str) -> dict:
    """obj, checked to be an object whose keys all lie in keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} payload must be an object, got {type(obj).__name__}")
    unknown = set(obj).difference(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return obj


def _array_of(obj, n: int, what: str) -> list:
    """obj, checked to be an array of n items."""
    if not isinstance(obj, list) or len(obj) != n:
        raise ValueError(f"{what} must be an array of {n}")
    return obj


def rat_from_json(obj) -> Fraction:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, dict) and obj.keys() == {"num", "den"}:
        return _fraction(obj["num"], obj["den"])
    raise ValueError(f"not a rational: {obj!r}")


def bipoly_to_json(p: BiPoly) -> dict:
    return {
        "monomials": [
            {"i": i, "j": j, "num": c.numerator, "den": c.denominator}
            for i, j, c in p.terms()
        ]
    }


def bipoly_from_json(obj) -> BiPoly:
    monomials = _fields_of(obj, ("monomials",), "polynomial").get("monomials")
    if not isinstance(monomials, list):
        raise ValueError("polynomial payload needs a 'monomials' list")
    terms = {}
    for m in monomials:
        m = _fields_of(m, ("i", "j", "num", "den"), "monomial")
        i, j = int_from_json(m["i"], "exponent"), int_from_json(m["j"], "exponent")
        if (i, j) in terms:
            raise ValueError(f"repeated monomial exponent (i, j) = ({i}, {j})")
        terms[(i, j)] = _fraction(m["num"], m.get("den", 1))
    return BiPoly(terms)


def mat_to_json(m: PolyMat2) -> dict:
    return {"m": [[bipoly_to_json(m.entry(i, j)) for j in range(2)] for i in range(2)]}


def mat_from_json(obj) -> PolyMat2:
    if "m" not in _fields_of(obj, ("m",), "matrix"):
        raise ValueError("matrix payload needs an 'm' 2x2 array")
    rows = [_array_of(r, 2, "matrix row") for r in _array_of(obj["m"], 2, "matrix 'm'")]
    return PolyMat2([[bipoly_from_json(x) for x in row] for row in rows])


def field_to_json(f: HiggsField) -> dict:
    return {
        "bundle": {
            "L1": [f.bundle.L1.a, f.bundle.L1.b],
            "L2": [f.bundle.L2.a, f.bundle.L2.b],
        },
        "phi1": mat_to_json(f.phi1),
        "phi2": mat_to_json(f.phi2),
    }


def field_from_json(obj) -> HiggsField:
    obj = _fields_of(obj, ("bundle", "phi1", "phi2"), "field")
    try:
        b = _fields_of(obj["bundle"], ("L1", "L2"), "bundle")
        degrees = [_array_of(b[k], 2, f"bundle {k}") for k in ("L1", "L2")]
        l1, l2 = (LineBundle(*(int_from_json(d, "degree") for d in ds)) for ds in degrees)
    except KeyError as exc:
        raise ValueError(f"bad bundle payload: {exc}") from exc
    return HiggsField(
        DecomposableBundle(l1, l2),
        mat_from_json(obj["phi1"]),
        mat_from_json(obj["phi2"]),
    )


def spectral_to_json(s: SpectralData) -> dict:
    return {
        "rho1": bipoly_to_json(s.rho1),
        "rho12": bipoly_to_json(s.rho12),
        "rho2": bipoly_to_json(s.rho2),
    }


def spectral_from_json(obj) -> SpectralData:
    obj = _fields_of(obj, ("rho1", "rho12", "rho2"), "spectral")
    try:
        return SpectralData(
            bipoly_from_json(obj["rho1"]),
            bipoly_from_json(obj["rho12"]),
            bipoly_from_json(obj["rho2"]),
        )
    except KeyError as exc:
        raise ValueError(f"bad spectral payload: {exc}") from exc


def eta_to_json(e: EtaValue) -> dict:
    return {
        "num": e.coef.numerator,
        "den": e.coef.denominator,
        "radicand": e.radicand,
    }


def fibre_to_json(fib: Fibre) -> dict:
    return {
        "z1": rat_to_json(fib.z1),
        "z2": rat_to_json(fib.z2),
        "disc1": rat_to_json(fib.disc1),
        "disc2": rat_to_json(fib.disc2),
        "pairing_rhs": rat_to_json(fib.pairing_rhs),
        "ramified": fib.ramified,
        "points": [
            {"eta1": eta_to_json(p[0]), "eta2": eta_to_json(p[1])}
            for p in fib.points
        ],
    }


def _params_from_json(cls, obj):
    # an absent coefficient keeps its dataclass default, zero
    keys = [f.name for f in dataclasses.fields(cls)]
    return cls(**{k: rat_from_json(v) for k, v in _fields_of(obj, keys, cls.__name__).items()})


def _params_to_json(p) -> dict:
    return {f.name: rat_to_json(getattr(p, f.name)) for f in dataclasses.fields(p)}


def phi1_params_from_json(obj) -> Phi1Params:
    from .extension import Phi1Params
    return _params_from_json(Phi1Params, obj)


def phi2_params_from_json(obj) -> Phi2Params:
    from .extension import Phi2Params
    return _params_from_json(Phi2Params, obj)


def point_to_json(m: ModuliPoint) -> dict:
    from .extension import Phi1Params, Phi2Params
    out = {
        "ext": {"u": rat_to_json(m.ext.u), "v": rat_to_json(m.ext.v)},
        "stratum": m.stratum.value,
    }
    if isinstance(m.params, (Phi1Params, Phi2Params)):
        out["params"] = _params_to_json(m.params)
    else:
        out["params"] = {
            "p": rat_to_json(m.params.p),
            "w": [rat_to_json(w) for w in m.params.w],
        }
    return out


def point_from_json(obj) -> ModuliPoint:
    from .extension import ExtParams, ModuliPoint, Stratum, TrivialFieldData
    obj = _fields_of(obj, ("ext", "stratum", "params"), "moduli point")
    try:
        e = _fields_of(obj["ext"], ("u", "v"), "ext")
        ext = ExtParams(rat_from_json(e["u"]), rat_from_json(e["v"]))
        stratum = Stratum(obj["stratum"])
        raw = obj["params"]
    except KeyError as exc:
        raise ValueError(f"bad moduli point payload: {exc}") from exc
    params: object
    if stratum is Stratum.S1:
        params = phi1_params_from_json(raw)
    elif stratum is Stratum.S2:
        params = phi2_params_from_json(raw)
    else:
        raw = _fields_of(raw, ("p", "w"), "TrivialFieldData")
        w = _array_of(raw.get("w", []), 3, "TrivialFieldData w")
        params = TrivialFieldData(
            rat_from_json(raw["p"]), tuple(rat_from_json(x) for x in w)
        )
    return ModuliPoint(ext, stratum, params)
