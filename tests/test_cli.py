from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import cohiggs
from cohiggs import jsonio
from cohiggs.cli import main
from cohiggs.cohomology import LineBundle as O
from cohiggs.exactalg import BiPoly, Z1, Z2
from cohiggs.higgs import DecomposableBundle, field
from oracles import reduced_class


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()] if out.strip() else []
    return code, lines


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def diag_field(tmp_path):
    f = field(DecomposableBundle(O(0, 0), O(0, 0)), a1=Z1, a2=Z2)
    return write_json(tmp_path, "diag.json", jsonio.field_to_json(f))


@pytest.fixture
def nonintegrable_field(tmp_path):
    f = field(DecomposableBundle(O(0, 0), O(0, 0)), b1=BiPoly.const(1), c2=Z2)
    return write_json(tmp_path, "nonint.json", jsonio.field_to_json(f))


def test_cohomology_command(capsys):
    code, (out,) = run(capsys, "cohomology", "--a", "1", "--b", "-2")
    assert code == 0
    assert out == {"h0": 0, "h1": 2, "h2": 0}


def test_moduli_nonempty_examples(capsys):
    code, (out,) = run(capsys, "moduli", "nonempty", "--alpha", "0", "--beta", "-1", "--gamma", "0")
    assert code == 0
    assert out["nonempty"] is True
    assert out["theorem48_case2_discrepancy"] is False
    assert out["reduced"]["tag"] == "MinusF"

    code, (out,) = run(capsys, "moduli", "nonempty", "--alpha", "1", "--beta", "1", "--gamma", "0")
    assert code == 0
    assert out["nonempty"] is False
    assert out["theorem48_case2_discrepancy"] is True


def test_moduli_batch_mode(capsys, tmp_path):
    grid = [[0, -1, 0], [1, 1, 0], [0, 0, 3]]
    path = write_json(tmp_path, "grid.json", {"tuples": grid})
    code, lines = run(capsys, "moduli", "nonempty", "--batch", path)
    assert code == 0
    assert len(lines) == 3
    # emitted in input order, tagged with the inputs
    assert [(l["alpha"], l["beta"], l["gamma"]) for l in lines] == [tuple(g) for g in grid]
    assert [l["nonempty"] for l in lines] == [True, False, True]
    # determinism
    code2, lines2 = run(capsys, "moduli", "nonempty", "--batch", path)
    assert lines2 == lines
    # verdicts are permutation-independent: shuffling the grid permutes the
    # output lines identically
    shuffled = write_json(tmp_path, "grid2.json", {"tuples": grid[::-1]})
    _, lines3 = run(capsys, "moduli", "nonempty", "--batch", shuffled)
    assert lines3 == lines[::-1]


@contextlib.contextmanager
def _int_cap(limit):
    """CPython's int <-> str cap set to limit (0: none) for the block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_batch_lines_equal_single_tuple_answers(capsys, tmp_path):
    """Every batch line is the single-tuple answer plus alpha/beta/gamma, byte
    for byte, and agrees with the library: over every parity class, the
    odd-odd boundary gamma' = 0 where the discrepancy flag fires, and a
    tuple whose gamma' has about 8,000 digits, written past the 4,300-digit
    cap that inputs keep."""
    from cohiggs import chern

    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str cap")
    small = [[a, b, g] for a in range(-2, 3) for b in range(-2, 3) for g in range(-2, 3)]
    boundary = [[a, b, (a * b - 1) // 2] for a in range(-5, 6, 2) for b in range(-5, 6, 2)]
    big = [7 * 10**3999 + 1, -(5 * 10**3999 + 3), 11]
    assert abs(chern.reduce_class(chern.ChernData(*big)).gamma_prime) > 10**7990
    grid = small + boundary + [big]
    path = write_json(tmp_path, "grid.json", {"tuples": grid})
    with _int_cap(4300):
        assert main(["moduli", "nonempty", "--batch", path]) == 0
        assert sys.get_int_max_str_digits() == 4300  # lifted for output only
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(grid)
        for (a, b, g), line in zip(grid, lines):
            assert main(["moduli", "nonempty", f"--alpha={a}", f"--beta={b}", f"--gamma={g}"]) == 0
            single = capsys.readouterr().out
            assert line == f'{single[:-2]}, "alpha": {a}, "beta": {b}, "gamma": {g}}}'
            with _int_cap(0):
                out = json.loads(line)
            c = chern.ChernData(a, b, g)
            red = chern.reduce_class(c)
            assert out["reduced"] == {
                "tag": red.tag.value, "twist": [red.twist.a, red.twist.b],
                "gamma_prime": red.gamma_prime}
            assert out["nonempty"] is chern.cohiggs_moduli_nonempty(c)
            assert out["theorem48_case2_discrepancy"] is chern.theorem48_case2_discrepancy(c)
            assert out["theorem48_case2_discrepancy"] is ([a, b, g] in boundary)
        # an entry over the cap is refused before any line is written
        over = tmp_path / "over.json"
        over.write_text('{"tuples": [[0, 0, 0], [' + "9" * 4301 + ", 0, 0]]}", encoding="utf-8")
        code, lines = run(capsys, "moduli", "nonempty", "--batch", str(over))
    assert code == 2 and [line["error"]["kind"] for line in lines] == ["InputError"]


# every reduced tag, both values of each flag, zero and negative entries,
# and 4,000-digit alpha and beta whose gamma' has about 8,000 digits
_PIN_GRID = [
    [0, 0, 0], [0, 0, -1], [-2, 4, -3], [0, -1, 0], [2, 3, -5], [-1, 0, 0], [-3, -2, 1],
    [1, 1, 0], [1, 1, -1], [-3, -5, 7], [-1, 3, -2], [1, 1, 1],
    [7 * 10**3999 + 1, -(5 * 10**3999 + 3), 11], [-(4 * 10**3999), 2 * 10**3999, 0],
]


def _dumps_verdict(alpha, beta, gamma, batch):
    """json.dumps of the dict this command answers with, built from reduce_class."""
    from cohiggs import chern

    red = chern.reduce_class(chern.ChernData(alpha, beta, gamma))
    payload = {
        "nonempty": red.nonempty(),
        "reduced": {"tag": red.tag.value, "twist": [red.twist.a, red.twist.b],
                    "gamma_prime": red.gamma_prime},
        "theorem48_case2_discrepancy": red.printed_bound_disagrees(),
    }
    if batch:
        payload.update(alpha=alpha, beta=beta, gamma=gamma)
    with _int_cap(0):
        return json.dumps(payload)


def _assert_lines(out: str, want: list[str]) -> None:
    """out is the lines of want, each ended by a newline.  A wrong line fails
    at once, naming its index and both lines, where pytest's diff of two
    long strings can run for minutes."""
    got = out.split("\n")
    if got.pop():
        raise AssertionError("the output does not end with a newline")
    assert len(got) == len(want), f"{len(got)} lines, want {len(want)}"
    for k, (line, expected) in enumerate(zip(got, want)):
        if line != expected:
            raise AssertionError(f"line {k}: got {line!r}, want {expected!r}")


def _nonempty_stdout(capsys, path):
    """stdout of the batch over _PIN_GRID (written to path), then of each
    single-tuple answer."""
    with _int_cap(4300):
        assert main(["moduli", "nonempty", "--batch", path]) == 0
        outs = [capsys.readouterr().out]
        for a, b, g in _PIN_GRID:
            assert main(["moduli", "nonempty", f"--alpha={a}", f"--beta={b}", f"--gamma={g}"]) == 0
            outs.append(capsys.readouterr().out)
    return outs


def test_nonempty_template_equals_json_dumps(capsys, tmp_path):
    """The one line template of `moduli nonempty` prints, byte for byte, what
    json.dumps prints for the same dict, on the single answer and on each batch
    line; the batch test above compares the two templates with each other only."""
    from cohiggs import chern

    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str cap")
    reds = [chern.reduce_class(chern.ChernData(*t)) for t in _PIN_GRID]
    assert {r.tag for r in reds} == set(chern.ReducedTag)
    assert {r.nonempty() for r in reds} == {True, False}
    flags = {r.printed_bound_disagrees() for r in reds}
    assert flags == {True, False}
    assert abs(reds[-2].gamma_prime) > 10**7990
    path = write_json(tmp_path, "grid.json", {"tuples": _PIN_GRID})
    batch, *singles = _nonempty_stdout(capsys, path)
    _assert_lines(batch, [_dumps_verdict(*t, batch=True) for t in _PIN_GRID])
    assert singles == [_dumps_verdict(*t, batch=False) + "\n" for t in _PIN_GRID]


def test_nonempty_lines_need_no_json_encoder(capsys, tmp_path, monkeypatch):
    """No `moduli nonempty` line goes through json.dumps: with it raising, the
    command still exits 0 and prints the same lines."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str cap")
    path = write_json(tmp_path, "grid.json", {"tuples": _PIN_GRID})
    expected = _nonempty_stdout(capsys, path)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps on the moduli nonempty path")

    monkeypatch.setattr(json, "dumps", refuse)
    assert _nonempty_stdout(capsys, path) == expected


def test_batch_decides_each_verdict_once(capsys, tmp_path, monkeypatch):
    """The batch builds no ReducedClass: each tuple asks chern._verdict once
    for both flags, and every line is still the json.dumps line built from
    reduce_class."""
    from cohiggs import chern

    built, decided = [], []
    real_init, real_verdict = chern.ReducedClass.__init__, chern._verdict
    monkeypatch.setattr(chern.ReducedClass, "__init__",
                        lambda red, *args: built.append(args) or real_init(red, *args))
    monkeypatch.setattr(chern, "_verdict", lambda *args: decided.append(args) or real_verdict(*args))
    grid = [[a, b, g] for a in range(-3, 4) for b in range(-3, 4) for g in range(-3, 4)]
    path = write_json(tmp_path, "grid.json", {"tuples": grid})
    assert main(["moduli", "nonempty", "--batch", path]) == 0
    out = capsys.readouterr().out
    assert built == [] and len(decided) == len(grid)
    _assert_lines(out, [_dumps_verdict(*t, batch=True) for t in grid])


def test_batch_reduces_each_first_chern_class_once(capsys, tmp_path, monkeypatch):
    """c1 = (alpha, beta) is reduced once per run of tuples with equal c1: with
    gamma innermost, once per distinct value, each a memo miss.  A c1 that
    comes back in a later run is a memo hit.  No ChernData is built on the
    batch path, and the memo has a fixed size."""
    from cohiggs import chern

    built, reduced = [], []
    real_init, real_reduce = chern.ChernData.__init__, chern._reduce_c1
    monkeypatch.setattr(chern.ChernData, "__init__",
                        lambda c, *args: built.append(args) or real_init(c, *args))
    monkeypatch.setattr(chern, "_reduce_c1", lambda *c1: reduced.append(c1) or real_reduce(*c1))
    grid = [[a, b, g] for a in range(-3, 4) for b in range(-3, 4) for g in range(-2, 3)]
    runs = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for tuples, hits in ((grid, 0), (grid + grid, 49)):
        path = write_json(tmp_path, "grid.json", {"tuples": tuples})
        built.clear()
        reduced.clear()
        real_reduce.cache_clear()
        assert main(["moduli", "nonempty", "--batch", path]) == 0
        info = real_reduce.cache_info()
        assert built == []
        assert reduced == runs * (len(tuples) // len(grid))
        assert (info.misses, info.hits) == (49, hits)
        assert isinstance(info.maxsize, int) and info.maxsize >= info.currsize
        _assert_lines(capsys.readouterr().out, [_dumps_verdict(*t, batch=True) for t in tuples])
    # an emptied memo reduces every class again, as the closed forms say
    monkeypatch.undo()
    chern._reduce_c1.cache_clear()
    big = int("7" * 4000)
    for a, b, g in grid + [[big, -big - 1, 5], [-big, big + 2, -big * big]]:
        red = chern.reduce_class(chern.ChernData(a, b, g))
        got = (red.tag.value, (red.twist.a, red.twist.b), red.gamma_prime)
        assert got == reduced_class(a, b, g)


def test_batch_lines_do_not_depend_on_the_order(capsys, tmp_path):
    """Gamma outermost, every run of equal c1 has one tuple, and with more
    distinct c1 than the memo holds it evicts; a seeded shuffle the same.
    Either way each line is the json.dumps line of its tuple, and the lines
    are the gamma-innermost grid's lines, permuted as the tuples are."""
    import random

    from cohiggs import chern

    c1s = [(a, b) for a in range(-33, 33) for b in range(-33, 33)]
    assert len(c1s) > chern._reduce_c1.cache_info().maxsize
    inner = [[a, b, g] for a, b in c1s for g in range(-1, 1)]
    outer = [[a, b, g] for g in range(-1, 1) for a, b in c1s]
    shuffled = list(inner)
    random.Random(5).shuffle(shuffled)

    def lines(grid):
        path = write_json(tmp_path, "grid.json", {"tuples": grid})
        chern._reduce_c1.cache_clear()
        assert main(["moduli", "nonempty", "--batch", path]) == 0
        return capsys.readouterr().out.splitlines()

    by_tuple = dict(zip(map(tuple, inner), lines(inner)))
    assert list(by_tuple.values()) == [_dumps_verdict(*t, batch=True) for t in inner]
    for grid in (outer, shuffled):
        assert lines(grid) == [by_tuple[tuple(t)] for t in grid]
    info = chern._reduce_c1.cache_info()
    assert info.currsize == info.maxsize < info.misses


def test_the_memo_holds_the_benchmark_grid(capsys, tmp_path):
    """The benchmark grid's 1,681 distinct c1 fit in the memo, so with gamma
    outermost (no two neighbours share c1) each c1 misses once."""
    from cohiggs import chern

    grid = [[a, b, g] for g in range(-10, 11) for a in range(-20, 21) for b in range(-20, 21)]
    path = write_json(tmp_path, "grid.json", {"tuples": grid})
    chern._reduce_c1.cache_clear()
    assert main(["moduli", "nonempty", "--batch", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(grid) == 35301
    info = chern._reduce_c1.cache_info()
    assert (info.misses, info.hits) == (1681, len(grid) - 1681)


class _CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_batch_lines_are_written_in_chunks(tmp_path, monkeypatch):
    """A batch of more than one chunk prints exactly its json.dumps lines,
    in at most one write per chunk of lines."""
    from cohiggs import cli

    grid = [[a, b, g] for a in range(-12, 13) for b in range(-12, 13) for g in range(-8, 8)]
    assert len(grid) == 10_000 > cli._LINES_PER_WRITE
    path = write_json(tmp_path, "grid.json", {"tuples": grid})
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["moduli", "nonempty", "--batch", path]) == 0
    assert 0 < out.writes <= math.ceil(len(grid) / cli._LINES_PER_WRITE)
    _assert_lines(out.getvalue(), [_dumps_verdict(*t, batch=True) for t in grid])


def test_closed_pipe_ends_quietly_as_exit_2(tmp_path):
    """A reader that stops after the first line (`... | head -1`) gives exit
    2 and nothing on stderr, not a traceback."""
    grid = [[a, b, g] for a in range(-10, 10) for b in range(-10, 10) for g in range(-6, 6)]
    path = write_json(tmp_path, "grid.json", {"tuples": grid})
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cohiggs.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cohiggs.cli", "moduli", "nonempty", "--batch", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert json.loads(proc.stdout.readline())["alpha"] == -10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == b""


def test_cohiggs_log_writes_diagnostics_to_stderr_only():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cohiggs.__file__)),
           "COHIGGS_LOG": "DEBUG"}
    proc = subprocess.run(
        [sys.executable, "-m", "cohiggs.cli", "cohomology", "--a", "1", "--b", "-2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"h0": 0, "h1": 2, "h2": 0}\n'
    assert "cohiggs DEBUG dispatch cohomology" in proc.stderr.splitlines()


@pytest.mark.parametrize("level", ["DEBUG", "1", "WARNING", "", None])
def test_cohiggs_log_is_on_or_off(level):
    env = {k: v for k, v in os.environ.items() if k != "COHIGGS_LOG"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cohiggs.__file__))
    if level is not None:
        env["COHIGGS_LOG"] = level
    proc = subprocess.run(
        [sys.executable, "-m", "cohiggs.cli", "cohomology", "--a", "1", "--b", "-2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"h0": 0, "h1": 2, "h2": 0}\n'
    assert proc.stderr == ("cohiggs DEBUG dispatch cohomology\n" if level else "")


def test_cohiggs_log_leaves_the_root_logger_alone(capsys, monkeypatch, tmp_path):
    import logging

    monkeypatch.setenv("COHIGGS_LOG", "WARNING")
    handlers = list(logging.getLogger().handlers)
    grid = write_json(tmp_path, "grid.json", [[1, 1, 0], [0, -1, 0]])
    assert main(["moduli", "nonempty", "--batch", grid]) == 0
    assert logging.getLogger().handlers == handlers
    err = capsys.readouterr().err
    assert err == "cohiggs DEBUG dispatch moduli nonempty\ncohiggs DEBUG batch of 2 tuples\n"


def test_cohiggs_log_names_the_whole_command(capsys, monkeypatch, tmp_path):
    # `spectral classify` and `ext classify` end in the same word
    monkeypatch.setenv("COHIGGS_LOG", "1")
    rho = write_json(tmp_path, "rho.json", {"rho1": {"monomials": []}, "rho12": {"monomials": []},
                                            "rho2": {"monomials": []}})
    assert main(["spectral", "classify", "--rho", rho]) == 0
    assert capsys.readouterr().err == "cohiggs DEBUG dispatch spectral classify\n"
    point = write_json(tmp_path, "pt.json", {"ext": {"u": {"num": 2, "den": 1}, "v": {"num": 4, "den": 1}},
                                             "stratum": "S1", "params": {"c00": {"num": 1, "den": 1}}})
    assert main(["ext", "classify", "--point", point]) == 0
    assert capsys.readouterr().err == "cohiggs DEBUG dispatch ext classify\n"


def test_moduli_bundle_nonempty(capsys):
    code, (out,) = run(
        capsys, "moduli", "bundle-nonempty",
        "--alpha", "0", "--beta", "-1", "--gamma", "1", "--d", "0", "--r", "-1",
    )
    assert code == 0
    assert out == {"nonempty": True, "length": 1}


def test_moduli_no_higgs_region(capsys):
    code, (out,) = run(capsys, "moduli", "no-higgs-region", "--d", "1", "--r", "-2", "--c2", "7")
    assert code == 0 and out == {"no_nontrivial_higgs": True}


def test_reduce_command(capsys):
    code, (out,) = run(capsys, "reduce", "--alpha", "2", "--beta", "4", "--gamma", "5")
    assert code == 0
    assert out == {"tag": "Zero", "twist": [-2, -1], "gamma_prime": 1}


def test_higgs_check(capsys, tmp_path, diag_field, nonintegrable_field):
    code, (out,) = run(capsys, "higgs", "check", "--field", diag_field)
    assert code == 0
    assert out == {"valid": True, "integrable": True, "stability": "StrictlySemistable"}

    code, (out,) = run(capsys, "higgs", "check", "--field", nonintegrable_field)
    assert code == 0
    assert out == {"valid": True, "integrable": False, "stability": None}

    # a twist of O+O keeps the class: L+L is decided as O+O is
    f = field(DecomposableBundle(O(1, 1), O(1, 1)), a1=Z1, a2=Z2)
    code, (out,) = run(capsys, "higgs", "check",
                       "--field", write_json(tmp_path, "twisted.json", jsonio.field_to_json(f)))
    assert code == 0
    assert out == {"valid": True, "integrable": True, "stability": "StrictlySemistable"}


def test_higgs_check_missing_file_is_input_error(capsys):
    code, (out,) = run(capsys, "higgs", "check", "--field", "/does/not/exist.json")
    assert code == 2
    assert out["error"]["kind"] == "InputError"


def test_hitchin_domain_error_exit_code(capsys, nonintegrable_field):
    code, (out,) = run(capsys, "hitchin", "--field", nonintegrable_field)
    assert code == 1
    assert out["error"]["kind"] == "NotIntegrable"


def test_hitchin_diag(capsys, diag_field):
    code, (out,) = run(capsys, "hitchin", "--field", diag_field)
    assert code == 0
    assert out["consistent"] is True
    assert out["rho1"]["monomials"] == [{"i": 2, "j": 0, "num": -1, "den": 1}]


def test_hitchin_answer_beyond_the_int_str_cap(capsys, tmp_path):
    # A1 = n with 3,001 digits reads under CPython's 4,300-digit cap on
    # int <-> str conversion; rho1 = -n^2 has 6,002 digits and is written
    n = 7 * 10**3000 + 1
    f = field(DecomposableBundle(O(0, 0), O(0, 0)), a1=BiPoly.const(n))
    path = write_json(tmp_path, "big.json", jsonio.field_to_json(f))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 6002:
        pytest.skip("this interpreter's int <-> str cap would not refuse the answer")
    code = main(["hitchin", "--field", path])
    assert sys.get_int_max_str_digits() == limit  # lifted for output only
    out = capsys.readouterr().out
    assert code == 0
    sys.set_int_max_str_digits(0)
    try:
        answer = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert answer["rho1"]["monomials"] == [{"i": 0, "j": 0, "num": -n * n, "den": 1}]
    assert answer["consistent"] is True
    code, (out,) = run(capsys, "higgs", "check", "--field", path)
    assert code == 0 and out["valid"] and out["integrable"]


def test_higgs_normal_form_f0(capsys, tmp_path):
    f = field(DecomposableBundle(O(0, 0), O(-1, 0)), a1=Z1 * Z1, c1=Z1)
    path = write_json(tmp_path, "f0.json", jsonio.field_to_json(f))
    code, (out,) = run(capsys, "higgs", "normal-form", "--field", path)
    assert code == 0
    rep = jsonio.field_from_json(out["field"])
    assert rep.phi1.entry(1, 0) == Z1
    assert "psi" in out


def test_higgs_normal_form_pm1_and_split_extension(capsys, tmp_path):
    f = field(DecomposableBundle(O(1, 0), O(-1, 0)), a1=Z1 * Z1, c1=BiPoly.const(1))
    path = write_json(tmp_path, "pm1.json", jsonio.field_to_json(f))
    code, (out,) = run(capsys, "higgs", "normal-form", "--field", path)
    assert code == 0
    rep = jsonio.field_from_json(out["field"])
    assert rep.phi1.entry(0, 1) == Z1**4

    g = field(DecomposableBundle(O(0, -1), O(-1, 1)), a2=Z2, b2=2 * Z1 - 2)
    path = write_json(tmp_path, "split.json", jsonio.field_to_json(g))
    code, (out,) = run(capsys, "higgs", "normal-form", "--field", path)
    assert code == 0
    rep = jsonio.field_from_json(out["field"])
    assert rep.phi2.entry(0, 1) == Z1 - 1


def test_higgs_normal_form_unknown_bundle(capsys, tmp_path):
    f = field(DecomposableBundle(O(2, 2), O(0, 0)))
    path = write_json(tmp_path, "odd.json", jsonio.field_to_json(f))
    code, (out,) = run(capsys, "higgs", "normal-form", "--field", path)
    assert code == 1
    assert "error" in out


def test_higgs_graded(capsys, tmp_path):
    # O(1,1)+O(1,1) is a twist of O+O, decided by the same criterion
    for line in (O(0, 0), O(1, 1)):
        f = field(DecomposableBundle(line, line), a1=-Z1)
        path = write_json(tmp_path, "ss.json", jsonio.field_to_json(f))
        code, (out,) = run(capsys, "higgs", "graded", "--field", path)
        assert code == 0
        assert out["s_equiv_rep"]["A1"]["monomials"] == [{"i": 1, "j": 0, "num": 1, "den": 1}]
        assert jsonio.field_from_json(out["field"]).bundle == f.bundle


# stdout of the three closed-form commands, byte for byte: the F0 normal
# form with its psi, the split-extension normal form, and the graded object
# of an O+O field whose common eigenvector is (2, 1)
_PINNED = {
    "f0": (
        "normal-form",
        lambda: field(DecomposableBundle(O(0, 0), O(-1, 0)),
                      a1=2 * Z1 * Z1 - Z1 + F(1, 3), b1=Z1**3 - 5, c1=3 * Z1 - 2),
        '{"field": {"bundle": {"L1": [0, 0], "L2": [-1, 0]}, "phi1": {"m": [[{"monomials": '
        '[{"i": 0, "j": 0, "num": 5, "den": 9}]}, {"monomials": [{"i": 3, "j": 0, "num": 7, '
        '"den": 1}, {"i": 2, "j": 0, "num": -4, "den": 3}, {"i": 1, "j": 0, "num": 13, "den": '
        '9}, {"i": 0, "j": 0, "num": -397, "den": 27}]}], [{"monomials": [{"i": 1, "j": 0, '
        '"num": 1, "den": 1}, {"i": 0, "j": 0, "num": -2, "den": 3}]}, {"monomials": [{"i": 0, '
        '"j": 0, "num": -5, "den": 9}]}]]}, "phi2": {"m": [[{"monomials": []}, {"monomials": '
        '[]}], [{"monomials": []}, {"monomials": []}]]}}, "psi": {"m": [[{"monomials": [{"i": 0, '
        '"j": 0, "num": 1, "den": 1}]}, {"monomials": [{"i": 1, "j": 0, "num": -2, "den": 3}, '
        '{"i": 0, "j": 0, "num": -1, "den": 9}]}], [{"monomials": []}, {"monomials": [{"i": 0, '
        '"j": 0, "num": 1, "den": 3}]}]]}}\n',
    ),
    "split-extension": (
        "normal-form",
        lambda: field(DecomposableBundle(O(0, -1), O(-1, 1)),
                      a2=Z2 * Z2 - 3 * Z2 + F(1, 2), b2=F(-3, 2) * Z1 + 5),
        '{"field": {"bundle": {"L1": [0, -1], "L2": [-1, 1]}, "phi1": {"m": [[{"monomials": []}, '
        '{"monomials": []}], [{"monomials": []}, {"monomials": []}]]}, "phi2": {"m": '
        '[[{"monomials": [{"i": 0, "j": 2, "num": 1, "den": 1}, {"i": 0, "j": 1, "num": -3, '
        '"den": 1}, {"i": 0, "j": 0, "num": 1, "den": 2}]}, {"monomials": [{"i": 1, "j": 0, '
        '"num": 1, "den": 1}, {"i": 0, "j": 0, "num": -10, "den": 3}]}], [{"monomials": []}, '
        '{"monomials": [{"i": 0, "j": 2, "num": -1, "den": 1}, {"i": 0, "j": 1, "num": 3, "den": '
        '1}, {"i": 0, "j": 0, "num": -1, "den": 2}]}]]}}}\n',
    ),
    "graded": (
        "graded",
        lambda: field(DecomposableBundle(O(0, 0), O(0, 0)), a1=-2 * Z1 * Z1 + 3 * Z1 + F(15, 2),
                      b1=4 * Z1 * Z1 - 4 * Z1 - 14, c1=-(Z1 * Z1) + 2 * Z1 + 4),
        '{"field": {"bundle": {"L1": [0, 0], "L2": [0, 0]}, "phi1": {"m": [[{"monomials": [{"i": '
        '1, "j": 0, "num": 1, "den": 1}, {"i": 0, "j": 0, "num": 1, "den": 2}]}, {"monomials": '
        '[]}], [{"monomials": []}, {"monomials": [{"i": 1, "j": 0, "num": -1, "den": 1}, {"i": '
        '0, "j": 0, "num": -1, "den": 2}]}]]}, "phi2": {"m": [[{"monomials": []}, {"monomials": '
        '[]}], [{"monomials": []}, {"monomials": []}]]}}, "s_equiv_rep": {"A1": {"monomials": '
        '[{"i": 1, "j": 0, "num": 1, "den": 1}, {"i": 0, "j": 0, "num": 1, "den": 2}]}, "A2": '
        '{"monomials": []}}}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_closed_form_commands_print_pinned_stdout(capsys, tmp_path, name):
    command, build, expected = _PINNED[name]
    path = write_json(tmp_path, f"{name}.json", jsonio.field_to_json(build()))
    assert main(["higgs", command, "--field", path]) == 0
    assert capsys.readouterr().out == expected


def test_higgs_graded_classifies_the_input_once(capsys, tmp_path, monkeypatch):
    # the representative is read from the input field's graded object, so the
    # input field is checked for integrability and classified once (one root
    # test of its eigenvector quadratics), and the graded object is not
    # classified at all
    from cohiggs import higgs

    calls = {"commute": 0, "_share_a_root": 0}
    for name in calls:
        def counting(*args, _real=getattr(higgs, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(higgs, name, counting)
    _, build, expected = _PINNED["graded"]
    path = write_json(tmp_path, "graded.json", jsonio.field_to_json(build()))
    assert main(["higgs", "graded", "--field", path]) == 0
    assert capsys.readouterr().out == expected
    assert calls == {"commute": 1, "_share_a_root": 1}


def test_higgs_section_q_and_pullback(capsys, tmp_path):
    rho = write_json(tmp_path, "rho.json", jsonio.bipoly_to_json(Z1**4 - 1))
    code, (out,) = run(capsys, "higgs", "section-q", "--rho", rho, "--axis", "1")
    assert code == 0
    f = jsonio.field_from_json(out["field"])
    assert f.phi1.entry(1, 0) == BiPoly.const(1)

    a = write_json(tmp_path, "a.json", jsonio.bipoly_to_json(Z1 * Z1))
    b = write_json(tmp_path, "b.json", jsonio.bipoly_to_json(BiPoly.zero()))
    c = write_json(tmp_path, "c.json", jsonio.bipoly_to_json(BiPoly.const(1)))
    code, (out,) = run(capsys, "higgs", "pullback", "--a", a, "--b", b, "--c", c, "--axis", "1")
    assert code == 0
    assert jsonio.bipoly_from_json(out["rho"]) == -(Z1**4)


def test_higgs_section_q_slot_violation_is_domain_error(capsys, tmp_path):
    rho = write_json(tmp_path, "rho5.json", jsonio.bipoly_to_json(Z1**5))
    code, (out,) = run(capsys, "higgs", "section-q", "--rho", rho, "--axis", "1")
    assert code == 1
    assert out["error"]["kind"] == "SlotViolation"


def test_ext_dims(capsys):
    code, (out,) = run(capsys, "ext", "dims", "--u", "1/2", "--v", "-3")
    assert code == 0
    assert out == {"dim20": 6, "dim02": 5, "total": 11}


def test_ext_dims_trivial_extension(capsys):
    code, (out,) = run(capsys, "ext", "dims", "--u", "0", "--v", "0")
    assert code == 1
    assert out["error"]["kind"] == "TrivialExtension"


def test_ext_build(capsys, tmp_path):
    p1 = write_json(tmp_path, "p1.json", {"c01": {"num": 1, "den": 1}})
    code, (out,) = run(capsys, "ext", "build", "--u", "0", "--v", "1", "--phi1", p1)
    assert code == 0
    assert out["glue_check"] == {"phi1": True, "phi2": True}
    assert out["dichotomy"] == "Phi1Only"
    phi1 = jsonio.mat_from_json(out["phi1"])
    assert phi1.entry(0, 0) == BiPoly.const(F(1, 2))

    code, (out,) = run(capsys, "ext", "build", "--u", "0", "--v", "1")
    assert code == 2  # neither parameter file given


def test_ext_classify(capsys, tmp_path):
    point = {
        "ext": {"u": {"num": 2, "den": 1}, "v": {"num": 4, "den": 1}},
        "stratum": "S1",
        "params": {"c00": {"num": 1, "den": 1}},
    }
    path = write_json(tmp_path, "pt.json", point)
    code, (out,) = run(capsys, "ext", "classify", "--point", path)
    assert code == 0
    assert out["stratum"] == "S1"
    assert out["point"]["ext"] == {"u": {"num": 1, "den": 1}, "v": {"num": 2, "den": 1}}


def test_ext_weak_iso(capsys):
    code, (out,) = run(capsys, "ext", "weak-iso", "--u1", "1", "--v1", "2", "--u2", "2", "--v2", "4")
    assert code == 0 and out == {"weak_iso": True}
    code, (out,) = run(capsys, "ext", "weak-iso", "--u1", "1", "--v1", "0", "--u2", "0", "--v2", "1")
    assert code == 0 and out == {"weak_iso": False}


def test_spectral_residual_and_classify(capsys, tmp_path, diag_field):
    code, (hit,) = run(capsys, "hitchin", "--field", diag_field)
    rho = write_json(
        tmp_path, "rho.json", {"rho1": hit["rho1"], "rho12": hit["rho12"], "rho2": hit["rho2"]}
    )
    code, (out,) = run(capsys, "spectral", "residual", "--rho", rho, "--point", "1,1,1,1")
    assert code == 0
    assert out["on_surface"] is True
    code, (out,) = run(capsys, "spectral", "residual", "--rho", rho, "--point", "1,1,1,-1")
    assert out["on_surface"] is False
    assert out["r3"] == {"num": -4, "den": 1}

    code, (out,) = run(capsys, "spectral", "classify", "--rho", rho)
    assert code == 0
    assert out == {"classification": "NonGenericOther"}


def test_spectral_fibre(capsys, diag_field):
    code, (out,) = run(capsys, "spectral", "fibre", "--field", diag_field, "--z1", "1", "--z2", "1")
    assert code == 0
    assert out["ramified"] is False
    etas = {(p["eta1"]["num"], p["eta2"]["num"]) for p in out["points"]}
    assert etas == {(1, 1), (-1, -1)}


def test_rational_flag_parsing(capsys):
    code, (out,) = run(capsys, "ext", "weak-iso", "--u1", "1/3", "--v1", "2/3", "--u2", "1", "--v2", "2")
    assert code == 0 and out == {"weak_iso": True}
    code, (out,) = run(capsys, "ext", "dims", "--u", "x", "--v", "0")
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "cohiggs" in capsys.readouterr().out


def _diag_json(**monomial):
    """The diagonal O+O field (A1 = z1, A2 = z2) with keys of its first
    monomial replaced."""
    obj = jsonio.field_to_json(field(DecomposableBundle(O(0, 0), O(0, 0)), a1=Z1, a2=Z2))
    obj["phi1"]["m"][0][0]["monomials"][0].update(monomial)
    return obj


def _diag_json_bundle(**bundle):
    """The same field with keys of its bundle object replaced or added."""
    obj = _diag_json()
    obj["bundle"].update(bundle)
    return obj


_S1_POINT = {"ext": {"u": 1, "v": 1}, "stratum": "S1", "params": {}}
_ZERO_POLY = {"monomials": []}


BATCH_FLAGS = "--batch takes no --alpha/--beta/--gamma"


def run_input_error(capsys, tmp_path, argv, payload):
    """Run argv with the payload's file appended; expect exit 2 and one
    InputError line, with nothing on stderr, and return its detail."""
    code = main([*argv, write_json(tmp_path, "input.json", payload)])
    captured = capsys.readouterr()
    assert code == 2
    errors = [json.loads(line)["error"] for line in captured.out.splitlines()]
    assert [e["kind"] for e in errors] == ["InputError"]
    assert captured.err == ""
    return errors[0]["detail"]


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["hitchin", "--field"], _diag_json(den=0)),
        (
            ["ext", "classify", "--point"],
            {"ext": {"u": {"num": 1, "den": 0}, "v": 1}, "stratum": "S1", "params": {}},
        ),
    ],
    ids=["bipoly", "rational"],
)
def test_zero_denominator_is_input_error(capsys, tmp_path, argv, payload):
    run_input_error(capsys, tmp_path, argv, payload)


@pytest.mark.parametrize(
    "argv, payload, detail",
    [
        (["hitchin", "--field"], _diag_json(i=1.5), None),
        (["hitchin", "--field"], _diag_json(j=True), None),
        (["hitchin", "--field"], _diag_json(num="3"), None),
        (["hitchin", "--field"], _diag_json(den=2.0), None),
        (["hitchin", "--field"], _diag_json_bundle(L1=["0", 0]), None),
        (["hitchin", "--field"], _diag_json_bundle(L1=[0.0, 0]), None),
        (["moduli", "nonempty", "--batch"], {"tuples": [[1.7, 0, 0]]}, None),
        (["moduli", "nonempty", "--batch"], {"tuples": [[0, True, 0]]}, None),
        (["moduli", "nonempty", "--batch"], {"tuples": [[0, 0, "3"]]}, None),
        (["moduli", "nonempty", "--batch"], {"tuples": [[0, -1, 0], [1.7, 0, 0]]}, None),
        (
            ["moduli", "nonempty", "--batch"],
            {"tuples": [[0, -1, 0], [0, 0]]},
            "batch entry 1 is not an [alpha,",
        ),
        (["moduli", "nonempty", "--batch"], {"tuples": [[0, 0, 0]], "tupels": [[1, 1, 1]]}, None),
        (
            ["ext", "classify", "--point"],
            {"ext": {"u": 0, "v": 0}, "stratum": "S0", "params": [1, 2]},
            None,
        ),
        (["ext", "classify", "--point"], {"ext": {"u": 1, "v": 1}, "stratum": "S2", "params": [1]}, None),
        (["ext", "build", "--u", "1", "--v", "1", "--phi1"], [1, 2], None),
        (["ext", "build", "--u", "1", "--v", "1", "--phi1"], {"c0O": 5, "c11": 1}, None),
        (
            ["ext", "classify", "--point"],
            {"ext": {"u": 1, "v": 1}, "stratum": "S1", "params": {"c0O": 5, "c11": 1}},
            None,
        ),
        (
            ["ext", "classify", "--point"],
            {"ext": {"u": 0, "v": 0}, "stratum": "S0", "params": {"p": 1, "w": [1, 2, 3], "q": 0}},
            None,
        ),
        (
            ["higgs", "section-q", "--axis", "1", "--rho"],
            {"monomials": [{"i": -1, "j": 0, "num": 1, "den": 1}]},
            None,
        ),
        (["moduli", "nonempty", "--alpha", "5", "--batch"], {"tuples": [[0, -1, 0]]}, BATCH_FLAGS),
        (["moduli", "nonempty", "--beta", "0", "--batch"], {"tuples": [[0, -1, 0]]}, BATCH_FLAGS),
        (["moduli", "nonempty", "--gamma", "0", "--batch"], [[0, -1, 0]], BATCH_FLAGS),
        (["moduli", "nonempty", "--batch"], [[1, 2, 3], 7], "batch entry 1 is not an [alpha,"),
        (["moduli", "nonempty", "--batch"], {"tuples": ["012"]}, "batch entry 0 is not an [alpha,"),
        (
            ["moduli", "nonempty", "--batch"],
            {"tuples": [[0, -1, 0], {"alpha": 1}]},
            "batch entry 1 is not an [alpha,",
        ),
        (["hitchin", "--field"], _diag_json_bundle(L1=[0, 0, 7]), "bundle L1 must be an array of 2"),
        (["hitchin", "--field"], _diag_json_bundle(L3=[0, 0]), "unknown bundle keys: ['L3']"),
        (["hitchin", "--field"], {**_diag_json(), "phi3": {"m": []}}, "unknown field keys: ['phi3']"),
        (["hitchin", "--field"], {**_diag_json(), "phi1": {"m": 5}}, "matrix 'm' must be an array of 2"),
        (
            ["hitchin", "--field"],
            {**_diag_json(), "phi1": {"m": [[_ZERO_POLY] * 3, [_ZERO_POLY] * 2]}},
            "matrix row must be an array of 2",
        ),
        (
            ["ext", "classify", "--point"],
            {**_S1_POINT, "ext": {"u": {"num": 1, "den": 2, "junk": 9}, "v": 1}},
            "not a rational: {'num': 1, 'den': 2, 'junk': 9}",
        ),
        (
            ["ext", "classify", "--point"],
            {**_S1_POINT, "ext": {"u": 1, "v": 1, "w": 1}},
            "unknown ext keys: ['w']",
        ),
        (["ext", "classify", "--point"], {**_S1_POINT, "note": 1}, "unknown moduli point keys: ['note']"),
        (
            ["ext", "classify", "--point"],
            {"ext": {"u": 0, "v": 0}, "stratum": "S0", "params": {"p": 1, "w": 5}},
            "TrivialFieldData w must be an array of 3",
        ),
        (
            ["higgs", "section-q", "--rho"],
            {"monomials": [{"i": 0, "j": 0, "num": 1, "den": 1, "x": 0}]},
            "unknown monomial keys: ['x']",
        ),
        (["higgs", "section-q", "--rho"], {**_ZERO_POLY, "x": 0}, "unknown polynomial keys: ['x']"),
        (["higgs", "section-q", "--rho"], {"monomials": 5}, "polynomial payload needs a 'monomials' list"),
        (
            ["spectral", "classify", "--rho"],
            {"rho1": _ZERO_POLY, "rho12": _ZERO_POLY, "rho2": _ZERO_POLY, "rho3": _ZERO_POLY},
            "unknown spectral keys: ['rho3']",
        ),
        (["moduli", "nonempty", "--batch"], 5, "batch grid must be a list of [alpha,"),
        (["moduli", "nonempty", "--batch"], {"tuples": 5}, "batch grid must be a list of [alpha,"),
        (
            ["spectral", "residual", "--point=1,2,3", "--rho"],
            {"rho1": _ZERO_POLY, "rho12": _ZERO_POLY, "rho2": _ZERO_POLY},
            "--point needs z1,z2,eta1,eta2",
        ),
        (["hitchin", "--field"], {**_diag_json(), "phi1": {}}, "matrix payload needs an 'm' 2x2"),
        # every entry's shape is checked before any integer, and the integers in order
        (
            ["moduli", "nonempty", "--batch"],
            {"tuples": [[1.5, 0, 0], [0, 0, 0], [1, 1, 1], [2, 3]]},
            "batch entry 3 is not an [alpha, beta, gamma] array",
        ),
        (
            ["moduli", "nonempty", "--batch"],
            {"tuples": [[0, -1, 0], [1, 1, 0], [2, True, 5]]},
            "batch entry must be an integer, got True",
        ),
        (
            ["moduli", "nonempty", "--batch"],
            {"tuples": [[0, -1, 0], [1, 2.0, 0], [2, True, 5]]},
            "batch entry must be an integer, got 2.0",
        ),
    ],
    ids=[
        "float-exponent", "bool-exponent", "string-numerator", "float-denominator",
        "string-degree", "float-degree", "float-batch", "bool-batch", "string-batch",
        "batch-second-tuple", "batch-short-tuple", "unknown-batch-key", "s0-params-list",
        "s2-params-list",
        "phi1-params-list", "unknown-phi1-key", "unknown-s1-key", "unknown-s0-key",
        "negative-exponent", "batch-with-alpha", "batch-with-beta", "batch-with-gamma",
        "batch-entry-int", "batch-entry-string", "batch-entry-object",
        "degrees-of-three", "unknown-bundle-key", "unknown-field-key", "matrix-int",
        "matrix-row-of-three", "unknown-rational-key",
        "unknown-ext-key", "unknown-point-key", "s0-w-int", "unknown-monomial-key",
        "unknown-polynomial-key", "monomials-int", "unknown-spectral-key",
        "batch-grid-int", "batch-tuples-int", "point-of-three", "matrix-empty",
        "batch-shape-before-integers", "batch-lone-bool", "batch-first-non-integer",
    ],
)
def test_non_integer_json_is_input_error(capsys, tmp_path, argv, payload, detail):
    got = run_input_error(capsys, tmp_path, argv, payload)
    assert detail is None or detail in got, got


@pytest.mark.parametrize(
    "argv",
    [["moduli", "nonempty"], ["moduli", "nonempty", "--alpha", "1", "--beta", "2"]],
    ids=["no-class", "no-gamma"],
)
def test_moduli_nonempty_needs_batch_or_class(capsys, argv):
    """Without --batch, all three of --alpha/--beta/--gamma are required.  The
    rows of test_non_integer_json_is_input_error end in a JSON file, which
    argparse would take as this command's --batch."""
    assert main(argv) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["error"] == {
        "kind": "InputError", "detail": "--alpha/--beta/--gamma are required without --batch"
    }


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["moduli", "nonempty", "--batch", "", "--alpha", "1", "--beta", "1", "--gamma", "1"],
         BATCH_FLAGS),
        (["moduli", "nonempty", "--batch", ""], "No such file or directory: ''"),
    ],
    ids=["with-class", "alone"],
)
def test_empty_batch_path_is_still_batch(capsys, argv, detail):
    """--batch "" is a --batch: with --alpha/--beta/--gamma it is refused, and
    alone it names a file that cannot be read."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "InputError" and detail in error["detail"], error
    assert captured.err == ""


def _ints_with(n, i, bad):
    """A batch grid of n integers, [alpha, beta, gamma] by three, whose i-th is bad."""
    flat = list(range(n))
    flat[i] = bad
    return [flat[k:k + 3] for k in range(0, n, 3)]


@pytest.mark.parametrize(
    "tuples, detail",
    [
        ([[1.5, 0, 0], [0, 0, 0], [1, 1, 1], [2, 3]], "batch entry 3 is not an [alpha, beta, gamma] array"),
        ([[0, -1, 0], [1, 1, 0], [2, True, 5]], "batch entry must be an integer, got True"),
        (_ints_with(9_999, 7_777, True), "batch entry must be an integer, got True"),
        (_ints_with(9_999, 9_998, False), "batch entry must be an integer, got False"),
        (_ints_with(9_999, 5_000, 2.0), "batch entry must be an integer, got 2.0"),
        (_ints_with(9_999, 3, [1, 2]), "batch entry must be an integer, got [1, 2]"),
        (_ints_with(9_999, 4, None), "batch entry must be an integer, got None"),
        (_ints_with(9_999, 6, "012") + [[1, 2]], "batch entry 3333 is not an [alpha, beta, gamma]"),
        ([[0, 0, 0]] * 5_000 + ["012"], "batch entry 5000 is not an [alpha, beta, gamma] array"),
        ([[0, 0, 0]] * 5_000 + [[0, 0, 0, 0], [True, 0, 0]], "batch entry 5000 is not an [alpha,"),
    ],
    ids=["float-then-pair", "lone-bool", "bool-among-ints", "last-false", "float-among-ints",
         "list-among-ints", "null-among-ints", "shape-after-string", "string-entry", "four-entry"],
)
def test_batch_checks_report_the_first_error(capsys, tmp_path, tuples, detail):
    """The check of a well-formed grid runs in C, and a grid that fails it goes
    through the entry-by-entry checks: the error is the first one in their
    order (every entry's shape, then every integer), with the same detail."""
    got = run_input_error(capsys, tmp_path, ["moduli", "nonempty", "--batch"], {"tuples": tuples})
    assert detail in got, got


@pytest.mark.parametrize(
    "argv",
    [
        ["ext", "dims", "--u", "-1/2", "--v", "1"],
        ["cohomology", "--a", "x", "--b", "1"],
        ["cohomology", "--a", "1"],
        ["nosuch"],
        ["ext"],
    ],
    ids=["negative-quotient", "non-integer", "missing-option", "unknown-command", "bare-group"],
)
def test_malformed_command_line_is_input_error(capsys, argv):
    """argparse's own errors end as one InputError line with exit 2, not as
    usage text on stderr."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert [json.loads(line)["error"]["kind"] for line in captured.out.splitlines()] == [
        "InputError"
    ]
    assert captured.err == ""


@pytest.mark.parametrize(
    "value, code",
    [("1e5", 2), ("2E-3", 2), ("1e400", 2), ("1/2e3", 2), ("3", 0), ("-3", 0), ("1/2", 0), ("0.5", 0)],
)
def test_cli_rational_forms(capsys, value, code):
    """Integers, p/q and plain decimals are accepted; exponent notation is
    an InputError, since its cost is not bounded by the text's length."""
    assert main(["ext", "dims", "--u", value, "--v", "1"]) == code
    captured = capsys.readouterr()
    (out,) = (json.loads(line) for line in captured.out.splitlines())
    if code == 0:
        assert out == {"dim20": 6, "dim02": 5, "total": 11}
    else:
        assert out["error"]["kind"] == "InputError"
    assert captured.err == ""
