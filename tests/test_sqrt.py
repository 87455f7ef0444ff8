"""The exact square root: the decomposition behind ``exact_sqrt`` against
its contract, sympy and the trial-division oracle, and its polynomial cost."""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from cohiggs import exactalg, jsonio
from cohiggs.cli import main
from cohiggs.exactalg import BiPoly, EtaValue, _squarefree_decompose, exact_sqrt
from oracles import squarefree_by_trial_division

# the least strong pseudoprime to the 13 bases 2, ..., 41 (= 1287836182261 *
# 2575672364521): a composite with no prime factor below 1000
PSI13 = 3_317_044_064_679_887_385_961_981
P12, Q12 = 999_999_999_989, 100_000_000_003
# a 13-digit prime, whose odd powers are no squares
P13 = 1_000_000_000_039
# two 22-digit primes, far beyond trial division
P22, Q22 = 2_000_000_000_000_000_000_069, 3_000_000_000_000_000_000_053

SPECIAL = [
    1, 2, 4, 12,
    # around the trial-division bound 1000 and its square
    997, 1009, 997 * 1009, 997**2, 1009**2, 1_000_003, 2 * 1009**2,
    # around its cube: below it a cofactor is p, p*q or p^2
    997**3, 1009**3, 1009**2 * 1013, 997 * 1009 * 1013, 999_999_937, 1_000_000_007,
    1009 * 1_000_003, 1009**2 * 1_000_003,
    # squares of the base-2 Wieferich primes, and strong pseudoprimes to base 2
    # with such a square factor
    1093**2, 3511**2, 1093**2 * 3511, 2 * 1093**2 * 3511**2,
    1093**2 * 4733, 3511**2 * 1969111,
    # a strong pseudoprime to the bases 2, 3, 5, 7 (151 * 751 * 28351) and
    # Carmichael numbers, the second with no prime factor below 1000
    3_215_031_751, 561, 1171 * 2341 * 3511,
    # squares of 12-digit primes
    P12**2, 7 * Q12**2, P12**2 * 1_000_003, 1009 * P12**2 * Q12**2, P12 * Q12,
    # just below and just above psi_13, and psi_13 itself
    PSI13 - 2, PSI13 - 1, PSI13, PSI13 + 1, PSI13 + 2,
    # odd powers of primes above 1000, which are no squares
    P13**3, 7 * P13**3, P13**5, (1009 * P13) ** 3, (1013**2 * P13) ** 3, 1009**7 * P13**7,
]


def _seeded(rng: random.Random, count: int, digits: int) -> list[int]:
    """Random integers of up to `digits` digits, half of them with a square factor."""
    out = []
    for k in range(count):
        n = rng.randrange(1, 10 ** rng.randint(1, digits))
        if k % 2:
            n *= rng.randrange(2, 10 ** rng.randint(1, digits // 2)) ** 2
        out.append(n * rng.choice((1, -1)))
    return out


def _cofactor(n: int) -> int:
    """|n| with every prime below 1000 divided out."""
    n = abs(n)
    for p in range(2, 1000):
        while n % p == 0:
            n //= p
    return n


def _check_contract(n: int, s: int, m: int) -> None:
    """s^2 * m = n with s > 0, no p^2 with p < 1000 divides m, and |m| is 1 or no square."""
    assert s > 0 and s * s * m == n, (n, s, m)
    assert all(m % (d * d) for d in range(2, 1000)), (n, m)
    r = math.isqrt(abs(m))
    assert abs(m) == 1 or r * r != abs(m), (n, m)


def _contract_answer(n: int, reference) -> tuple[int, int]:
    """What the contract fixes, from a reference decomposition: the part of n
    with primes below 1000 decomposed, times the cofactor's root when it is a
    square, or else times the whole cofactor in m."""
    c = _cofactor(n)
    s, m = reference(n // c)
    sc, mc = reference(c)
    return (s * sc, m) if mc == 1 else (s, m * c)


def _check_against(values: list[int], reference) -> int:
    """Each value's decomposition keeps the contract, is the answer it fixes,
    and is the reference's own where the cofactor is below 10^9; the count of
    values whose answer is not the reference's."""
    moved = 0
    for n in values:
        got = _squarefree_decompose(n)
        _check_contract(n, *got)
        assert got == _contract_answer(n, reference), n
        if _cofactor(n) < 10**9:
            assert got == reference(n), n
        moved += got != reference(n)
    return moved


def test_trial_division_primes_and_psi13():
    assert exactalg._PRIMES[-1] == 997 and len(exactalg._PRIMES) == 168
    # psi_13 has no prime factor below 1000 and is no square: it is its own radicand
    assert _squarefree_decompose(PSI13) == (1, PSI13)


def test_squarefree_decompose_matches_factorint():
    sympy = pytest.importorskip("sympy")

    def reference(n: int) -> tuple[int, int]:
        s, m = 1, 1
        for p, e in sympy.factorint(abs(n)).items():
            s *= p ** (e // 2)
            m *= p ** (e % 2)
        return s, m if n > 0 else -m

    values = SPECIAL + _seeded(random.Random(20170), 400, 18)
    moved = _check_against(values + [-n for n in values], reference)
    # the seeded values plant square factors up to 10^9: some of them land in
    # a cofactor above 10^9, where they stay in the radicand
    assert 0 < moved < len(values)


def test_squarefree_decompose_matches_trial_division():
    rng = random.Random(1980)
    values = [n for n in SPECIAL if n < 10**12] + _seeded(rng, 400, 9) + _seeded(rng, 40, 12)
    _check_against(values + [-n for n in values[:40]], squarefree_by_trial_division)


def test_large_cofactor_keeps_its_square_factor():
    # 1009^2 * 1013 > 10^9 is left after trial division and is no square
    assert _squarefree_decompose(-(1009**2) * 1013 * 7) == (1, -7219212371)
    assert exact_sqrt(F(-(1009**2) * 1013 * 7)) == EtaValue(F(1), -7219212371)


def test_seventeen_digit_radicand_is_fast():
    start = time.perf_counter()
    value = exact_sqrt(F(-30000005200000217))
    assert time.perf_counter() - start < 0.3
    assert value == EtaValue(F(1), -30000005200000217)


@pytest.mark.parametrize(
    "n, expected",
    [(P13**3, (1, P13**3)), (7 * P13**3, (1, 7 * P13**3)), (P13**5, (1, P13**5)),
     (-(P13**5), (1, -(P13**5)))],
    ids=["p^3", "7p^3", "p^5", "-p^5"],
)
def test_odd_prime_powers_are_fast(n, expected):
    start = time.perf_counter()
    assert _squarefree_decompose(n) == expected
    assert time.perf_counter() - start < 0.05


def _fibre_of_constant_rho(capsys, tmp_path, rho: int):
    """`spectral fibre` at z = (1, 1) of the section-q field of the constant rho."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(jsonio.bipoly_to_json(BiPoly.const(rho))), encoding="utf-8")
    assert main(["higgs", "section-q", "--rho", str(path)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    path.write_text(json.dumps(json.loads(line)["field"]), encoding="utf-8")
    start = time.perf_counter()
    code = main(["spectral", "fibre", "--field", str(path), "--z1", "1", "--z2", "1"])
    elapsed = time.perf_counter() - start
    (line,) = capsys.readouterr().out.splitlines()
    return code, json.loads(line), elapsed


@pytest.mark.parametrize(
    "rho, digits",
    [(P22 * Q22, 43), (P22**20 * Q22, 448), (P22**187 * Q22, 4005)],
    ids=["43-digit", "448-digit", "4005-digit"],
)
def test_fibre_cli_answers_large_constants(capsys, tmp_path, rho, digits):
    """No prime below 1000 divides rho and rho is no square, so -rho is the
    radicand, found in one trial division and one isqrt (CPython reads at
    most 4,300 digits)."""
    assert len(str(rho)) == digits
    code, out, elapsed = _fibre_of_constant_rho(capsys, tmp_path, rho)
    assert code == 0 and elapsed < 0.5
    eta1, disc1 = out["points"][0]["eta1"], out["disc1"]
    assert eta1["radicand"] == -rho and disc1 == {"num": -rho, "den": 1}
    assert F(eta1["num"], eta1["den"]) ** 2 * eta1["radicand"] == F(disc1["num"], disc1["den"])


def test_fibre_cli_zero_eta_has_radicand_one(capsys, tmp_path):
    """At rho = 2, eta1^2 = -2 and eta2 = 0: a zero coefficient prints with
    radicand 1, not with the radicand of eta1."""
    code, out, _ = _fibre_of_constant_rho(capsys, tmp_path, 2)
    one, zero = {"num": 1, "den": 1}, {"num": 0, "den": 1}
    eta2 = {**zero, "radicand": 1}
    assert code == 0
    assert out == {
        "z1": one, "z2": one, "disc1": {"num": -2, "den": 1}, "disc2": zero, "pairing_rhs": zero,
        "ramified": True,
        "points": [
            {"eta1": {**one, "radicand": -2}, "eta2": eta2},
            {"eta1": {"num": -1, "den": 1, "radicand": -2}, "eta2": eta2},
        ],
    }


def test_eta_value_accessors():
    assert str(EtaValue(F(3, 2), 2)) == "3/2*sqrt(2)" and str(EtaValue(F(-1, 3), 1)) == "-1/3"
    assert EtaValue(F(5), 1).as_fraction() == 5
    with pytest.raises(ValueError, match="irrational"):
        EtaValue(F(1), -2).as_fraction()
    assert EtaValue(F(0), -2) == EtaValue(F(0), 1)
