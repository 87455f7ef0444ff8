"""The exact square root: the squarefree decomposition behind ``exact_sqrt``
against sympy and the trial-division oracle, and its bounded cost."""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from cohiggs import exactalg, jsonio
from cohiggs.cli import main
from cohiggs.errors import SqrtCostCap
from cohiggs.exactalg import BiPoly, EtaValue, _squarefree_decompose, exact_sqrt
from oracles import squarefree_by_trial_division

# the least strong pseudoprime to the 13 bases 2, ..., 41 (= 1287836182261 *
# 2575672364521): Miller-Rabin is exact only below it
PSI13 = 3_317_044_064_679_887_385_961_981
P12, Q12 = 999_999_999_989, 100_000_000_003
# a 13-digit prime: Pollard-Brent cannot split its odd powers within the cap
P13 = 1_000_000_000_039
# two 22-digit primes: Pollard rho needs about 10^11 steps to split their product
P22, Q22 = 2_000_000_000_000_000_000_069, 3_000_000_000_000_000_000_053

SPECIAL = [
    1, 2, 4, 12,
    # around the trial-division bound 1000 and its square
    997, 1009, 997 * 1009, 997**2, 1009**2, 1_000_003, 2 * 1009**2,
    # around its cube: below it a cofactor is p, p*q or p^2
    997**3, 1009**3, 1009**2 * 1013, 997 * 1009 * 1013, 999_999_937, 1_000_000_007,
    1009 * 1_000_003, 1009**2 * 1_000_003,
    # squares of the base-2 Wieferich primes, and strong pseudoprimes to base 2
    # with such a square factor: one Miller-Rabin base would call them prime
    1093**2, 3511**2, 1093**2 * 3511, 2 * 1093**2 * 3511**2,
    1093**2 * 4733, 3511**2 * 1969111,
    # a strong pseudoprime to the bases 2, 3, 5, 7 (151 * 751 * 28351) and
    # Carmichael numbers, the second with no prime factor below 1000
    3_215_031_751, 561, 1171 * 2341 * 3511,
    # squares of 12-digit primes
    P12**2, 7 * Q12**2, P12**2 * 1_000_003, 1009 * P12**2 * Q12**2, P12 * Q12,
    # just below and just above psi_13, and psi_13 itself
    PSI13 - 2, PSI13 - 1, PSI13, PSI13 + 1, PSI13 + 2,
    # odd powers: found as powers before Pollard-Brent
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


def test_trial_division_primes_and_psi13():
    assert exactalg._PSI13 == PSI13
    assert exactalg._PRIMES[-1] == 997 and len(exactalg._PRIMES) == 168


def test_residue_primes_are_prime():
    # the power test needs a prime q = 1 (mod k); it finds one by a base-2
    # Fermat test, which no pseudoprime fools first for these k
    for k in exactalg._PRIMES[1:]:
        q = exactalg._residue_prime(k)
        assert q % k == 1 and all(q % p for p in range(2, math.isqrt(q) + 1)), k


def test_squarefree_decompose_matches_factorint():
    sympy = pytest.importorskip("sympy")

    def reference(n: int) -> tuple[int, int]:
        s, m = 1, 1
        for p, e in sympy.factorint(abs(n)).items():
            s *= p ** (e // 2)
            m *= p ** (e % 2)
        return s, m if n > 0 else -m

    values = SPECIAL + _seeded(random.Random(20170), 400, 18)
    for n in values + [-n for n in SPECIAL if n < 10**12]:
        assert _squarefree_decompose(n) == reference(n), n


def test_squarefree_decompose_matches_trial_division():
    rng = random.Random(1980)
    values = [n for n in SPECIAL if n < 10**12] + _seeded(rng, 400, 9) + _seeded(rng, 40, 12)
    for n in values + [-n for n in values[:40]]:
        assert _squarefree_decompose(n) == squarefree_by_trial_division(n), n


def test_seventeen_digit_radicand_is_fast():
    start = time.perf_counter()
    value = exact_sqrt(F(-30000005200000217))
    assert time.perf_counter() - start < 0.3
    assert value == EtaValue(F(1), -30000005200000217)


@pytest.mark.parametrize(
    "n, expected",
    [(P13**3, (P13, P13)), (7 * P13**3, (P13, 7 * P13)), (P13**5, (P13**2, P13)), (-(P13**5), (P13**2, -P13))],
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
    "rho, digits", [(P22 * Q22, 43), (P22**20 * Q22, 448)], ids=["43-digit", "448-digit"]
)
def test_fibre_cli_ends_at_the_cost_cap(capsys, tmp_path, rho, digits):
    code, out, elapsed = _fibre_of_constant_rho(capsys, tmp_path, rho)
    assert code == 1 and elapsed < 2
    assert out["error"]["kind"] == "SqrtCostCap"
    assert f"{digits}-digit" in out["error"]["detail"]
    assert str(exactalg.SQRT_RHO_STEPS) in out["error"]["detail"]


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


def test_newton_root_ends_at_the_cost_cap(monkeypatch):
    """1013^3 has no prime factor below 1000 and is a cube modulo 7, so the
    cube test sends it to Newton, which finds the root within the cap and
    runs out of steps without one."""
    assert exact_sqrt(F(1013**3)) == EtaValue(F(1013), 1013)
    monkeypatch.setattr(exactalg, "SQRT_RHO_STEPS", 0)
    with pytest.raises(SqrtCostCap):
        exact_sqrt(F(1013**3))


def test_last_rho_round_spends_what_is_left(monkeypatch):
    """Steps charged before the split shorten its last round, not drop it.

    n = pq is split in the round of r = 64, so the budget of the whole rounds
    r = 1, ..., 64 is just enough.  n is a cube modulo 7, so the cube test
    charges a couple of Newton steps first; the split must still succeed."""
    p, q = 40009, 40031
    n, budget = p * q, 2 * (2**7 - 1)
    assert exactalg._rho_split(n, budget)[0] in (p, q)
    assert exactalg._rho_split(n, budget - 2 * 64) == (0, budget - 2 * 64 - 2 * 63)
    assert exactalg._rho_split(n, budget - 3)[0] in (p, q)
    assert 0 < budget - exactalg._odd_power(n, budget)[2] <= 5
    monkeypatch.setattr(exactalg, "SQRT_RHO_STEPS", budget)
    assert _squarefree_decompose(n) == (1, n)
    monkeypatch.setattr(exactalg, "SQRT_RHO_STEPS", budget - 2 * 64)
    with pytest.raises(SqrtCostCap):
        _squarefree_decompose(n)
