"""Command-line front end.

Every subcommand is one row of ``COMMANDS``: its words (``"ext dims"``), its
help, its argparse options and a handler that returns its JSON payload (for
``moduli nonempty``, an iterator of its lines, one per tuple, written in
chunks); a row without a handler is a group such as ``ext``.  ``main`` alone
parses, dispatches, prints and maps exceptions to exit codes: 0 on success,
1 on domain errors, 2 on malformed input (a malformed command line
included), errors as one {"error": {"kind", "detail"}} line.  Any non-empty
COHIGGS_LOG turns on "cohiggs DEBUG ..." diagnostic lines on stderr.  A call
loads only what its command uses: each handler imports its own modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .errors import CoHiggsError, int_from_json


def _parse_rat(text: str) -> Fraction:
    """An integer, p/q or plain decimal.  Exponent notation is refused:
    "1e400" would ask for a 400-digit number from five characters, while
    the accepted forms cost no more than the length of the text.  So is "_",
    which ``Fraction`` reads as a digit separator from Python 3.11 on only."""
    if "e" not in text.lower() and "_" not in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational number: {text!r}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# CPython before 3.10.7 has no int <-> str cap; these are then no-ops
_get_int_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_cap = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _debug(fmt: str, *args) -> None:
    if os.environ.get("COHIGGS_LOG"):
        print("cohiggs DEBUG " + fmt % args, file=sys.stderr)


def _ext(u: str, v: str):
    from . import extension
    return extension.ExtParams(_parse_rat(u), _parse_rat(v))


# -- handlers: each returns what main prints ---------------------------------


def _cohomology(args) -> dict:
    from . import cohomology
    return dict(zip(("h0", "h1", "h2"), cohomology.h_dims(args.a, args.b)))


_JSON_BOOL = ("false", "true")
_LINES_PER_WRITE = 4096  # main writes the lines of moduli nonempty in chunks


def _verdict_lines(chern, grid, batch: bool):
    """This command's one writer: each line is json.dumps of the answer (plus "alpha",
    "beta", "gamma" in a batch), from one template that a test pins to json.dumps.  A run
    of tuples with equal c1 is reduced and formatted once; a tuple adds gamma' and flags."""
    for (alpha, beta), run in groupby(grid, key=itemgetter(0, 1)):
        tag, twist, shift, threshold = chern._reduce_c1(alpha, beta)
        head = f', "reduced": {{"tag": "{tag.value}", "twist": [{twist.a}, {twist.b}]'
        tail = f', "alpha": {alpha}, "beta": {beta}, "gamma": ' if batch else ""
        for _, _, gamma in run:
            nonempty, disagrees = chern._verdict(gamma + shift, threshold)
            yield (f'{{"nonempty": {_JSON_BOOL[nonempty]}{head}, "gamma_prime": {gamma + shift}}}, '
                   f'"theorem48_case2_discrepancy": {_JSON_BOOL[disagrees]}'
                   f'{tail}{gamma if batch else ""}}}')


def _moduli_nonempty(args):
    from . import chern
    grid = [(args.alpha, args.beta, args.gamma)]
    if args.batch is not None:
        if grid != [(None, None, None)]:
            raise ValueError("--batch takes no --alpha/--beta/--gamma")
        grid = _load_json(args.batch)
        if isinstance(grid, dict):
            unknown = set(grid) - {"tuples"}
            if unknown:
                raise ValueError(f"unknown batch grid keys: {sorted(unknown)}")
            grid = grid.get("tuples")
        if not isinstance(grid, list):
            raise ValueError("batch grid must be a list of [alpha, beta, gamma] tuples")
        # every tuple is checked before the first line is printed, in C if the grid
        # is well formed (type(x) is int refuses bool), else entry by entry
        if not (set(map(type, grid)) <= {list} and set(map(len, grid)) <= {3}
                and set(map(type, chain.from_iterable(grid))) <= {int}):
            for i, entry in enumerate(grid):
                if not isinstance(entry, list) or len(entry) != 3:
                    raise ValueError(f"batch entry {i} is not an [alpha, beta, gamma] array")
            for x in chain.from_iterable(grid):
                int_from_json(x, "batch entry")
        _debug("batch of %d tuples", len(grid))
    elif None in grid[0]:
        raise ValueError("--alpha/--beta/--gamma are required without --batch")
    # lazy: main lifts the int <-> str cap before the first line is written
    return _verdict_lines(chern, grid, args.batch is not None)


def _moduli_bundle(args) -> dict:
    from . import chern
    c = chern.ChernData(args.alpha, args.beta, args.gamma)
    inv = chern.NumericalInvariants(args.d, args.r)
    return {"nonempty": chern.bundle_moduli_nonempty(c, inv), "length": chern.ext_length(c, inv)}


def _no_higgs_region(args) -> dict:
    from . import chern
    inv = chern.NumericalInvariants(args.d, args.r)
    return {"no_nontrivial_higgs": chern.no_nontrivial_higgs_region(inv, args.c2)}


def _reduce(args) -> dict:
    from . import chern
    red = chern.reduce_class(chern.ChernData(args.alpha, args.beta, args.gamma))
    return {"tag": red.tag.value, "twist": [red.twist.a, red.twist.b],
            "gamma_prime": red.gamma_prime}


def _higgs_check(args) -> dict:
    from . import higgs, jsonio
    f = jsonio.field_from_json(_load_json(args.field))
    valid = higgs.validate_field(f)
    integrable = higgs.is_integrable(f) if valid else None
    stability = higgs.stability_classify(f).value if valid and integrable else None
    return {"valid": valid, "integrable": integrable, "stability": stability}


def _higgs_normal_form(args) -> dict:
    from . import higgs, jsonio
    rep, psi = higgs.normal_form(jsonio.field_from_json(_load_json(args.field)))
    psi = {} if psi is None else {"psi": jsonio.mat_to_json(psi)}
    return {"field": jsonio.field_to_json(rep), **psi}


def _higgs_graded(args) -> dict:
    from . import higgs, jsonio
    f = jsonio.field_from_json(_load_json(args.field))
    g = higgs.graded_object(f)
    a1, a2 = higgs.s_equiv_rep(f)  # reads the graded object just built
    return {
        "field": jsonio.field_to_json(g),
        "s_equiv_rep": {"A1": jsonio.bipoly_to_json(a1), "A2": jsonio.bipoly_to_json(a2)},
    }


def _section_q(args) -> dict:
    from . import higgs, jsonio
    rho = jsonio.bipoly_from_json(_load_json(args.rho))
    return {"field": jsonio.field_to_json(higgs.section_Q(rho, args.axis))}


def _higgs_pullback(args) -> dict:
    from . import higgs, jsonio
    a, b, c = (jsonio.bipoly_from_json(_load_json(p)) for p in (args.a, args.b, args.c))
    pb = higgs.pullback_from_line(a, b, c, args.axis)
    return {"field": jsonio.field_to_json(pb.field), "rho": jsonio.bipoly_to_json(pb.rho)}


def _ext_dims(args) -> dict:
    from . import extension
    return dict(zip(("dim20", "dim02", "total"), extension.end0T_dimension(_ext(args.u, args.v))))


def _ext_build(args) -> dict:
    from . import extension, jsonio
    e = _ext(args.u, args.v)
    p1 = jsonio.phi1_params_from_json(_load_json(args.phi1) if args.phi1 else {})
    p2 = jsonio.phi2_params_from_json(_load_json(args.phi2) if args.phi2 else {})
    if args.phi1 is None and args.phi2 is None:
        raise ValueError("provide --phi1 and/or --phi2 parameter files")
    m1, m2 = extension.build_phi1(e, p1), extension.build_phi2(e, p2)
    return {
        "phi1": jsonio.mat_to_json(m1),
        "phi2": jsonio.mat_to_json(m2),
        "glue_check": {
            "phi1": extension.glue_check(e, m1, extension.TWIST_20),
            "phi2": extension.glue_check(e, m2, extension.TWIST_02),
        },
        "dichotomy": extension.dichotomy_check(e, p1, p2).value,
    }


def _ext_classify(args) -> dict:
    from . import extension, jsonio
    point = extension.stratum_classify(jsonio.point_from_json(_load_json(args.point)))
    return {"stratum": point.stratum.value, "point": jsonio.point_to_json(point)}


def _weak_iso(args) -> dict:
    from . import extension
    return {"weak_iso": extension.weak_iso(_ext(args.u1, args.v1), _ext(args.u2, args.v2))}


def _hitchin(args) -> dict:
    from . import jsonio, spectral
    s = spectral.hitchin_map(jsonio.field_from_json(_load_json(args.field)))
    return {**jsonio.spectral_to_json(s), "consistent": spectral.rho_consistent(s)}


def _spectral_residual(args) -> dict:
    from . import jsonio, spectral
    s = jsonio.spectral_from_json(_load_json(args.rho))
    parts = args.point.split(",")
    if len(parts) != 4:
        raise ValueError("--point needs z1,z2,eta1,eta2")
    point = spectral.SpectralPoint(*(_parse_rat(p) for p in parts))
    r1, r2, r3 = spectral.spectral_residual(s, point)
    return {
        "r1": jsonio.rat_to_json(r1),
        "r2": jsonio.rat_to_json(r2),
        "r3": jsonio.rat_to_json(r3),
        "on_surface": not (r1 or r2 or r3),
    }


def _spectral_classify(args) -> dict:
    from . import jsonio, spectral
    rho = jsonio.spectral_from_json(_load_json(args.rho))
    return {"classification": spectral.fibre_decomposability(rho).value}


def _spectral_fibre(args) -> dict:
    from . import jsonio, spectral
    f = jsonio.field_from_json(_load_json(args.field))
    fibre = spectral.fibre_over_point(f, _parse_rat(args.z1), _parse_rat(args.z2))
    return jsonio.fibre_to_json(fibre)


# -- the command table -------------------------------------------------------


def _opts(*flags: str, **kwargs) -> list:
    """The same argparse keywords for each of several flags."""
    return [(flag, kwargs) for flag in flags]


_AXIS = _opts("--axis", type=int, choices=(1, 2), default=1)


class Command(NamedTuple):
    """One subcommand, or a group of subcommands when handler is None."""

    words: str
    help: str
    options: Sequence = ()
    handler: Callable | None = None


COMMANDS = [
    Command("cohomology", "cohomology dimensions of O(a,b)",
            _opts("--a", "--b", type=int, required=True), _cohomology),
    Command("moduli", "moduli decision procedures"),
    Command("moduli nonempty", "co-Higgs moduli non-emptiness",
            _opts("--alpha", "--beta", "--gamma", type=int)
            + _opts("--batch", help="JSON file with [alpha,beta,gamma] tuples"),
            _moduli_nonempty),
    Command("moduli bundle-nonempty", "bundle moduli non-emptiness",
            _opts("--alpha", "--beta", "--gamma", "--d", "--r", type=int, required=True),
            _moduli_bundle),
    Command("moduli no-higgs-region", "only-zero-Higgs region test (c1 = -F)",
            _opts("--d", "--r", "--c2", type=int, required=True), _no_higgs_region),
    Command("reduce", "reduce a first Chern class by twisting",
            _opts("--alpha", "--beta", "--gamma", type=int, required=True), _reduce),
    Command("higgs", "Higgs-field operations"),
    Command("higgs check", "validate / integrability / stability",
            _opts("--field", required=True), _higgs_check),
    Command("higgs normal-form", "conjugacy normal form by bundle type",
            _opts("--field", required=True), _higgs_normal_form),
    Command("higgs graded", "associated graded object (L+L)",
            _opts("--field", required=True), _higgs_graded),
    Command("higgs section-q", "stable field (0 -rho; 1 0) from a quartic",
            _opts("--rho", required=True) + _AXIS, _section_q),
    Command("higgs pullback", "pull back a field from one line factor",
            _opts("--a", required=True, help="BiPoly JSON file, degree <= 2")
            + _opts("--b", required=True, help="BiPoly JSON file, degree <= 3")
            + _opts("--c", required=True, help="BiPoly JSON file, degree <= 1, nonzero")
            + _AXIS,
            _higgs_pullback),
    Command("ext", "the c1 = -F, c2 = 1 extension family"),
    Command("ext dims", "twisted endomorphism dimension counts",
            _opts("--u", "--v", required=True), _ext_dims),
    Command("ext build", "assemble field components from parameters",
            _opts("--u", "--v", required=True)
            + _opts("--phi1", help="Phi1Params JSON file")
            + _opts("--phi2", help="Phi2Params JSON file"),
            _ext_build),
    Command("ext classify", "stratum of a moduli point",
            _opts("--point", required=True), _ext_classify),
    Command("ext weak-iso", "weak isomorphism of extension classes",
            _opts("--u1", "--v1", "--u2", "--v2", required=True), _weak_iso),
    Command("hitchin", "Hitchin image of a field", _opts("--field", required=True), _hitchin),
    Command("spectral", "spectral-surface diagnostics"),
    Command("spectral residual", "surface residuals at a point of Tot(T)",
            _opts("--rho", required=True)
            + _opts("--point", required=True, help="z1,z2,eta1,eta2 (rationals)"),
            _spectral_residual),
    Command("spectral classify", "fibre decomposability class",
            _opts("--rho", required=True), _spectral_classify),
    Command("spectral fibre", "fibre of the spectral surface over a point",
            _opts("--field", "--z1", "--z2", required=True), _spectral_fibre),
]


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print usage and exit 2."""

    def error(self, message):
        raise ValueError(message)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """Every command name is registered, but only the rows on the path of
    argv's first two words that are not options get their options and
    subcommands: argparse descends through no other rows."""
    description = "Exact computations for rank-2 co-Higgs bundles on P1 x P1."
    parser = _Parser(prog="cohiggs", description=description)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    path = " ".join([a for a in argv if not a.startswith("-")][:2]) + " "
    for words, help_, options, handler in COMMANDS:
        group, _, name = words.rpartition(" ")
        if group not in groups:  # a group off the path gets no subcommands
            continue
        p = groups[group].add_parser(name, help=help_)
        if not path.startswith(words + " "):
            continue
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        if handler is None:
            groups[words] = p.add_subparsers(dest="command", required=True)
        else:
            p.set_defaults(handler=handler, words=words)
    return parser


def main(argv=None) -> int:
    limit = _get_int_cap()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser(argv).parse_args(argv)
        _debug("dispatch %s", args.words)
        result = args.handler(args)
        # CPython (3.10.7 on) refuses to convert an int of more than 4,300
        # digits to or from str.  That caps every input as the handler reads
        # it, but an answer can hold a small multiple of its input's digits
        # (rho1 = -n^2 has twice as many as n), so the cap is lifted, once,
        # while the answers are written.
        _set_int_cap(0)
        if isinstance(result, dict):
            _emit(result)
        else:  # a write per chunk: a print per line is a syscall each when unbuffered
            while chunk := list(islice(result, _LINES_PER_WRITE)):
                sys.stdout.write("\n".join(chunk) + "\n")
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return 0
    except CoHiggsError as exc:
        _emit({"error": {"kind": exc.kind, "detail": str(exc)}})
        return 1
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        _emit({"error": {"kind": "InputError", "detail": str(exc)}})
        return 2
    finally:
        _set_int_cap(limit)


if __name__ == "__main__":
    sys.exit(main())
