"""Fuzz of the command line.

Argument lists are drawn from the words and flags of ``cli.COMMANDS``, with
integers, quotients, exponent notation and junk as values and small JSON
documents as input files.  Every one must end in exit 0, 1 or 2 with only
JSON lines on stdout, an error line last on a nonzero exit, nothing on
stderr and no exception out of ``main``.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cohiggs.cli import COMMANDS, main  # noqa: E402

FLAGS = sorted({flag for c in COMMANDS for flag, _ in c.options})
# keys of the documented payloads, so that drawn documents get past the
# first lookup now and then
KEYS = [
    "tuples", "bundle", "L1", "L2", "phi1", "phi2", "m", "monomials", "i", "j", "num", "den",
    "rho1", "rho12", "rho2", "ext", "u", "v", "stratum", "params", "p", "w", "c00", "a00", "b10",
]
PAYLOAD = "@payload"

# |num|, |den| < 10**40: far beyond what a square root could factor by trial
# division; the exact square root behind `spectral fibre` answers them all,
# with one trial division and one isqrt and no factoring
ints = st.integers(-(10**40) + 1, 10**40 - 1).map(str)
rationals = ints | st.builds("{}/{}".format, ints, st.integers(1, 10**40 - 1))
quads = st.lists(rationals, min_size=4, max_size=4).map(",".join)
# no "h": "--h" would abbreviate --help, which exits through SystemExit on purpose
junk = st.text(alphabet="0123456789aeuvxz/.,-=_ ", max_size=6)
values = st.one_of(rationals, quads, st.just("1e5"), junk, st.just(PAYLOAD))
# string options that name a JSON file; "--point" is a file for `ext classify`
# and z1,z2,eta1,eta2 for `spectral residual`
FILES = {"--field", "--rho", "--batch", "--phi1", "--phi2", "--a", "--b", "--c"}

documents = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.sampled_from(["S0", "S1", "S2", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=4),
    max_leaves=12,
)


def _kind(flag: str, kwargs: dict):
    if "choices" in kwargs:
        return st.sampled_from([str(c) for c in kwargs["choices"]])
    if kwargs.get("type") is int:
        return ints
    if flag == "--point":
        return st.just(PAYLOAD) | quads
    return st.just(PAYLOAD) if flag in FILES else rationals


@st.composite
def argvs(draw):
    """A well-formed command line, or one with a single fault: a junk word,
    a missing or foreign flag, a flag without its value, or a value of the
    wrong kind.  A negative quotient given apart from its flag is a fault
    of its own."""
    command = draw(st.sampled_from(COMMANDS))
    argv = command.words.split()
    kinds = {flag: _kind(flag, kwargs) for flag, kwargs in command.options}
    flags = list(kinds)
    fault = draw(st.sampled_from(("none", "none", "none", "word", "drop", "add", "bare", "value")))
    if fault == "word":
        argv[-1] = draw(junk)
    elif fault == "drop" and flags:
        flags.remove(draw(st.sampled_from(flags)))
    elif fault == "add":
        flags.append(draw(st.sampled_from(FLAGS)))
    flags = draw(st.permutations(flags))
    odd = draw(st.sampled_from(flags)) if flags and fault in ("bare", "value") else None
    for flag in flags:
        if flag == odd and fault == "bare":
            argv.append(flag)
            continue
        value = draw(values if flag == odd or flag not in kinds else kinds[flag])
        argv += draw(st.sampled_from(([flag, value], [f"{flag}={value}"])))
    return argv


@pytest.fixture(scope="module")
def payload_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "payload.json")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(argv=argvs(), document=documents)
def test_cli_ends_in_json_and_an_exit_code(payload_path, argv, document):
    with open(payload_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    argv = [a.replace(PAYLOAD, payload_path) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    errors = [line["error"] for line in lines if "error" in line]
    assert all("kind" in e and "detail" in e for e in errors)
    if code:
        assert errors and lines[-1]["error"] is errors[-1]
        assert (errors[-1]["kind"] == "InputError") == (code == 2)
    else:
        assert not errors
    assert err.getvalue() == ""
