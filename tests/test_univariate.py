"""sympy cross-check of the univariate gcd (skipped where sympy is absent)."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from cohiggs import _univariate as uni
from oracles import random_rat

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def _random_poly(rng: random.Random, lo: int, hi: int) -> list[F]:
    p = [random_rat(rng, 9) for _ in range(rng.randint(lo, hi) + 1)]
    p[-1] = p[-1] or F(1)
    return p


def _mul(f: list[F], g: list[F]) -> list[F]:
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _sympy_monic_gcd(f: list[F], g: list[F]) -> list[F]:
    as_poly = lambda p: sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                                   X, domain=sympy.QQ)
    h = sympy.gcd(as_poly(f), as_poly(g)).monic()
    return [F(int(c.p), int(c.q)) for c in reversed(h.all_coeffs())]


def test_gcd_matches_sympy_with_planted_factor():
    rng = random.Random(73)
    for _ in range(200):
        common = _random_poly(rng, 1, 3)
        f = _mul(common, _random_poly(rng, 0, 3))
        g = _mul(common, _random_poly(rng, 0, 3))
        got = uni.gcd(f, g)
        assert got == _sympy_monic_gcd(f, g)
        assert len(got) >= len(common) and got[-1] == 1
