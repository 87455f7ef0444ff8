"""Command-line front end.

Every decision procedure and constructor is exposed as a subcommand with
JSON on stdout.  Exit codes: 0 on success, 1 on domain errors (reported as
{"error": {"kind", "detail"}}), 2 on malformed input.  Set COHIGGS_LOG
(e.g. to DEBUG) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction

from . import __version__, jsonio
from .chern import (
    ChernData,
    NumericalInvariants,
    bundle_moduli_nonempty,
    cohiggs_moduli_nonempty,
    ext_length,
    no_nontrivial_higgs_region,
    reduce_class,
    theorem48_case2_discrepancy,
)
from .cohomology import h_dims
from .errors import CoHiggsError
from .exactalg import BiPoly
from .extension import (
    TWIST_02,
    TWIST_20,
    ExtParams,
    Phi1Params,
    Phi2Params,
    build_phi1,
    build_phi2,
    dichotomy_check,
    end0T_dimension,
    glue_check,
    stratum_classify,
    trivial_extension_normal_form,
    weak_iso,
)
from .higgs import (
    HiggsField,
    graded_object,
    is_integrable,
    normal_form_F0,
    normal_form_pm1,
    pullback_from_line,
    s_equiv_rep,
    section_Q,
    stability_classify,
    validate_field,
)
from .spectral import (
    SpectralPoint,
    fibre_decomposability,
    fibre_over_point,
    hitchin_map,
    rho_consistent,
    spectral_residual,
)

logger = logging.getLogger("cohiggs")


def _parse_rat(text: str) -> Fraction:
    """An integer, p/q or plain decimal.  Exponent notation is refused:
    "1e400" would ask for a 400-digit number from five characters, while
    the accepted forms cost no more than the length of the text."""
    if "e" not in text.lower():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational number: {text!r}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload) -> None:
    print(json.dumps(payload))


def _reduced_json(red) -> dict:
    return {
        "tag": red.tag.value,
        "twist": [red.twist.a, red.twist.b],
        "gamma_prime": red.gamma_prime,
    }


# -- subcommand handlers -----------------------------------------------------


def _cmd_cohomology(args) -> int:
    h0, h1, h2 = h_dims(args.a, args.b)
    _emit({"h0": h0, "h1": h1, "h2": h2})
    return 0


def _nonempty_payload(alpha: int, beta: int, gamma: int) -> dict:
    c = ChernData(alpha, beta, gamma)
    red = reduce_class(c)
    return {
        "nonempty": cohiggs_moduli_nonempty(c),
        "reduced": _reduced_json(red),
        "theorem48_case2_discrepancy": theorem48_case2_discrepancy(c),
    }


def _cmd_moduli_nonempty(args) -> int:
    if args.batch:
        grid = _load_json(args.batch)
        if isinstance(grid, dict):
            grid = grid.get("tuples")
        if not isinstance(grid, list):
            raise ValueError("batch grid must be a list of [alpha, beta, gamma] tuples")
        # check every tuple before the first line is printed
        tuples = [[jsonio.int_from_json(x, "batch entry") for x in entry] for entry in grid]
        if any(len(t) != 3 for t in tuples):
            raise ValueError("batch tuples must have three entries")
        logger.debug("batch of %d tuples", len(tuples))
        for alpha, beta, gamma in tuples:
            payload = _nonempty_payload(alpha, beta, gamma)
            payload["alpha"], payload["beta"], payload["gamma"] = alpha, beta, gamma
            _emit(payload)
        return 0
    if args.alpha is None or args.beta is None or args.gamma is None:
        raise ValueError("--alpha/--beta/--gamma are required without --batch")
    _emit(_nonempty_payload(args.alpha, args.beta, args.gamma))
    return 0


def _cmd_moduli_bundle(args) -> int:
    c = ChernData(args.alpha, args.beta, args.gamma)
    inv = NumericalInvariants(args.d, args.r)
    _emit({"nonempty": bundle_moduli_nonempty(c, inv), "length": ext_length(c, inv)})
    return 0


def _cmd_moduli_nohiggs(args) -> int:
    inv = NumericalInvariants(args.d, args.r)
    _emit({"no_nontrivial_higgs": no_nontrivial_higgs_region(inv, args.c2)})
    return 0


def _cmd_reduce(args) -> int:
    red = reduce_class(ChernData(args.alpha, args.beta, args.gamma))
    _emit(_reduced_json(red))
    return 0


def _load_field(path: str) -> HiggsField:
    return jsonio.field_from_json(_load_json(path))


def _cmd_higgs_check(args) -> int:
    f = _load_field(args.field)
    valid = validate_field(f)
    integrable = is_integrable(f) if valid else None
    stability = None
    if valid and integrable:
        stability = stability_classify(f).value
    _emit({"valid": valid, "integrable": integrable, "stability": stability})
    return 0


def _cmd_higgs_normal_form(args) -> int:
    f = _load_field(args.field)
    bundle = f.bundle
    if (bundle.L1.a, bundle.L1.b, bundle.L2.a, bundle.L2.b) == (0, 0, -1, 0):
        rep, psi = normal_form_F0(f)
        _emit({"field": jsonio.field_to_json(rep), "psi": jsonio.mat_to_json(psi)})
    elif (bundle.L1.a, bundle.L1.b, bundle.L2.a, bundle.L2.b) == (1, 0, -1, 0):
        rep = normal_form_pm1(f)
        _emit({"field": jsonio.field_to_json(rep)})
    elif (bundle.L1.a, bundle.L1.b, bundle.L2.a, bundle.L2.b) == (0, -1, -1, 1):
        rep = trivial_extension_normal_form(f)
        _emit({"field": jsonio.field_to_json(rep)})
    else:
        raise CoHiggsError(f"no normal form implemented for bundle {bundle}")
    return 0


def _cmd_higgs_graded(args) -> int:
    f = _load_field(args.field)
    g = graded_object(f)
    a1, a2 = s_equiv_rep(f)
    _emit(
        {
            "field": jsonio.field_to_json(g),
            "s_equiv_rep": {
                "A1": jsonio.bipoly_to_json(a1),
                "A2": jsonio.bipoly_to_json(a2),
            },
        }
    )
    return 0


def _cmd_higgs_section_q(args) -> int:
    rho = jsonio.bipoly_from_json(_load_json(args.rho))
    f = section_Q(rho, args.axis)
    _emit({"field": jsonio.field_to_json(f)})
    return 0


def _cmd_higgs_pullback(args) -> int:
    a = jsonio.bipoly_from_json(_load_json(args.a))
    b = jsonio.bipoly_from_json(_load_json(args.b))
    c = jsonio.bipoly_from_json(_load_json(args.c))
    pb = pullback_from_line(a, b, c, args.axis)
    _emit(
        {
            "field": jsonio.field_to_json(pb.field),
            "rho": jsonio.bipoly_to_json(pb.rho),
        }
    )
    return 0


def _cmd_ext_dims(args) -> int:
    dims = end0T_dimension(ExtParams(_parse_rat(args.u), _parse_rat(args.v)))
    _emit({"dim20": dims[0], "dim02": dims[1], "total": dims[2]})
    return 0


def _cmd_ext_build(args) -> int:
    e = ExtParams(_parse_rat(args.u), _parse_rat(args.v))
    p1 = jsonio.phi1_params_from_json(_load_json(args.phi1)) if args.phi1 else Phi1Params()
    p2 = jsonio.phi2_params_from_json(_load_json(args.phi2)) if args.phi2 else Phi2Params()
    if args.phi1 is None and args.phi2 is None:
        raise ValueError("provide --phi1 and/or --phi2 parameter files")
    m1 = build_phi1(e, p1)
    m2 = build_phi2(e, p2)
    payload = {
        "phi1": jsonio.mat_to_json(m1),
        "phi2": jsonio.mat_to_json(m2),
        "glue_check": {
            "phi1": glue_check(e, m1, TWIST_20),
            "phi2": glue_check(e, m2, TWIST_02),
        },
        "dichotomy": dichotomy_check(e, p1, p2).value,
    }
    _emit(payload)
    return 0


def _cmd_ext_classify(args) -> int:
    point = jsonio.point_from_json(_load_json(args.point))
    normalized = stratum_classify(point)
    _emit({"stratum": normalized.stratum.value, "point": jsonio.point_to_json(normalized)})
    return 0


def _cmd_ext_weak_iso(args) -> int:
    e1 = ExtParams(_parse_rat(args.u1), _parse_rat(args.v1))
    e2 = ExtParams(_parse_rat(args.u2), _parse_rat(args.v2))
    _emit({"weak_iso": weak_iso(e1, e2)})
    return 0


def _cmd_hitchin(args) -> int:
    f = _load_field(args.field)
    s = hitchin_map(f)
    payload = jsonio.spectral_to_json(s)
    payload["consistent"] = rho_consistent(s)
    _emit(payload)
    return 0


def _cmd_spectral_residual(args) -> int:
    s = jsonio.spectral_from_json(_load_json(args.rho))
    parts = args.point.split(",")
    if len(parts) != 4:
        raise ValueError("--point needs z1,z2,eta1,eta2")
    z1, z2, e1, e2 = (_parse_rat(p) for p in parts)
    r1, r2, r3 = spectral_residual(s, SpectralPoint(z1, z2, e1, e2))
    _emit(
        {
            "r1": jsonio.rat_to_json(r1),
            "r2": jsonio.rat_to_json(r2),
            "r3": jsonio.rat_to_json(r3),
            "on_surface": not (r1 or r2 or r3),
        }
    )
    return 0


def _cmd_spectral_classify(args) -> int:
    s = jsonio.spectral_from_json(_load_json(args.rho))
    _emit({"classification": fibre_decomposability(s).value})
    return 0


def _cmd_spectral_fibre(args) -> int:
    f = _load_field(args.field)
    fib = fibre_over_point(f, _parse_rat(args.z1), _parse_rat(args.z2))
    _emit(jsonio.fibre_to_json(fib))
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohiggs",
        description="Exact computations for rank-2 co-Higgs bundles on P1 x P1.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="cohomology dimensions of O(a,b)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(handler=_cmd_cohomology)

    moduli = sub.add_parser("moduli", help="moduli decision procedures")
    msub = moduli.add_subparsers(dest="moduli_command", required=True)

    p = msub.add_parser("nonempty", help="co-Higgs moduli non-emptiness")
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--batch", help="JSON file with [alpha,beta,gamma] tuples")
    p.set_defaults(handler=_cmd_moduli_nonempty)

    p = msub.add_parser("bundle-nonempty", help="bundle moduli non-emptiness")
    for flag in ("--alpha", "--beta", "--gamma", "--d", "--r"):
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(handler=_cmd_moduli_bundle)

    p = msub.add_parser("no-higgs-region", help="only-zero-Higgs region test (c1 = -F)")
    for flag in ("--d", "--r", "--c2"):
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(handler=_cmd_moduli_nohiggs)

    p = sub.add_parser("reduce", help="reduce a first Chern class by twisting")
    for flag in ("--alpha", "--beta", "--gamma"):
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(handler=_cmd_reduce)

    higgs = sub.add_parser("higgs", help="Higgs-field operations")
    hsub = higgs.add_subparsers(dest="higgs_command", required=True)

    p = hsub.add_parser("check", help="validate / integrability / stability")
    p.add_argument("--field", required=True)
    p.set_defaults(handler=_cmd_higgs_check)

    p = hsub.add_parser("normal-form", help="conjugacy normal form by bundle type")
    p.add_argument("--field", required=True)
    p.set_defaults(handler=_cmd_higgs_normal_form)

    p = hsub.add_parser("graded", help="associated graded object (O+O)")
    p.add_argument("--field", required=True)
    p.set_defaults(handler=_cmd_higgs_graded)

    p = hsub.add_parser("section-q", help="stable field (0 -rho; 1 0) from a quartic")
    p.add_argument("--rho", required=True)
    p.add_argument("--axis", type=int, choices=(1, 2), default=1)
    p.set_defaults(handler=_cmd_higgs_section_q)

    p = hsub.add_parser("pullback", help="pull back a field from one line factor")
    p.add_argument("--a", required=True, help="BiPoly JSON file, degree <= 2")
    p.add_argument("--b", required=True, help="BiPoly JSON file, degree <= 3")
    p.add_argument("--c", required=True, help="BiPoly JSON file, degree <= 1, nonzero")
    p.add_argument("--axis", type=int, choices=(1, 2), default=1)
    p.set_defaults(handler=_cmd_higgs_pullback)

    ext = sub.add_parser("ext", help="the c1 = -F, c2 = 1 extension family")
    esub = ext.add_subparsers(dest="ext_command", required=True)

    p = esub.add_parser("dims", help="twisted endomorphism dimension counts")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(handler=_cmd_ext_dims)

    p = esub.add_parser("build", help="assemble field components from parameters")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--phi1", help="Phi1Params JSON file")
    p.add_argument("--phi2", help="Phi2Params JSON file")
    p.set_defaults(handler=_cmd_ext_build)

    p = esub.add_parser("classify", help="stratum of a moduli point")
    p.add_argument("--point", required=True)
    p.set_defaults(handler=_cmd_ext_classify)

    p = esub.add_parser("weak-iso", help="weak isomorphism of extension classes")
    for flag in ("--u1", "--v1", "--u2", "--v2"):
        p.add_argument(flag, required=True)
    p.set_defaults(handler=_cmd_ext_weak_iso)

    p = sub.add_parser("hitchin", help="Hitchin image of a field")
    p.add_argument("--field", required=True)
    p.set_defaults(handler=_cmd_hitchin)

    spectral = sub.add_parser("spectral", help="spectral-surface diagnostics")
    ssub = spectral.add_subparsers(dest="spectral_command", required=True)

    p = ssub.add_parser("residual", help="surface residuals at a point of Tot(T)")
    p.add_argument("--rho", required=True)
    p.add_argument("--point", required=True, help="z1,z2,eta1,eta2 (rationals)")
    p.set_defaults(handler=_cmd_spectral_residual)

    p = ssub.add_parser("classify", help="fibre decomposability class")
    p.add_argument("--rho", required=True)
    p.set_defaults(handler=_cmd_spectral_classify)

    p = ssub.add_parser("fibre", help="fibre of the spectral surface over a point")
    p.add_argument("--field", required=True)
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", required=True)
    p.set_defaults(handler=_cmd_spectral_fibre)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("COHIGGS_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.DEBUG),
            stream=sys.stderr,
            format="%(name)s %(levelname)s %(message)s",
        )
    parser = _build_parser()
    args = parser.parse_args(argv)
    logger.debug("dispatch %s", args.command)
    try:
        return args.handler(args)
    except CoHiggsError as exc:
        _emit({"error": {"kind": exc.kind, "detail": str(exc)}})
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": {"kind": "InputError", "detail": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
