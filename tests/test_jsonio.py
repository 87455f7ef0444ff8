from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest

from cohiggs import jsonio
from cohiggs.cohomology import LineBundle as O
from cohiggs.exactalg import BiPoly, Z1, Z2
from cohiggs.extension import ExtParams, ModuliPoint, Phi1Params, Stratum, TrivialFieldData
from cohiggs.higgs import DecomposableBundle, field
from cohiggs.spectral import SpectralData
from oracles import random_bipoly


def test_rat_roundtrip_and_ints():
    assert jsonio.rat_from_json({"num": -3, "den": 4}) == F(-3, 4)
    assert jsonio.rat_from_json(7) == 7
    assert jsonio.rat_to_json(F(6, -8)) == {"num": -3, "den": 4}
    with pytest.raises(ValueError):
        jsonio.rat_from_json({"num": 1.5, "den": 1})
    with pytest.raises(ValueError):
        jsonio.rat_from_json("nope")


def test_bipoly_roundtrip_random():
    rng = random.Random(41)
    for _ in range(30):
        p = random_bipoly(rng, 3, 3, 9)
        assert jsonio.bipoly_from_json(jsonio.bipoly_to_json(p)) == p


def test_bipoly_serialization_deterministic():
    p = Z1 * Z1 + 2 * Z2 - BiPoly.const(F(1, 3))
    s1 = json.dumps(jsonio.bipoly_to_json(p))
    s2 = json.dumps(jsonio.bipoly_to_json(Z2 + Z1 * Z1 - BiPoly.const(F(1, 3)) + Z2))
    assert s1 == s2
    # leading term first (graded lex, z1 > z2)
    assert jsonio.bipoly_to_json(p)["monomials"][0] == {"i": 2, "j": 0, "num": 1, "den": 1}


def test_field_roundtrip():
    f = field(
        DecomposableBundle(O(0, 0), O(-1, 0)),
        a1=Z1 * Z1 - 1,
        b1=Z1**3,
        c1=2 * Z1,
    )
    assert jsonio.field_from_json(jsonio.field_to_json(f)) == f


def test_spectral_roundtrip():
    s = SpectralData(-(Z1 * Z1), -2 * Z1 * Z2, -(Z2 * Z2))
    back = jsonio.spectral_from_json(jsonio.spectral_to_json(s))
    assert back == s


def test_point_roundtrip():
    p = ModuliPoint(ExtParams(F(1), F(2)), Stratum.S1, Phi1Params(c01=F(1, 2)))
    assert jsonio.point_from_json(jsonio.point_to_json(p)) == p
    t = ModuliPoint(
        ExtParams(F(0), F(0)), Stratum.S0, TrivialFieldData(F(3), (F(1), F(2), F(3)))
    )
    assert jsonio.point_from_json(jsonio.point_to_json(t)) == t


def test_malformed_payloads_raise_value_error():
    with pytest.raises(ValueError):
        jsonio.bipoly_from_json({"wrong": []})
    with pytest.raises(ValueError):
        jsonio.mat_from_json({"m": [[{"monomials": []}]]})
    with pytest.raises(ValueError):
        jsonio.field_from_json({"bundle": {"L1": [0]}, "phi1": {}, "phi2": {}})
    with pytest.raises(ValueError):
        jsonio.spectral_from_json({"rho1": {"monomials": []}})
    with pytest.raises(ValueError):
        jsonio.point_from_json({"ext": {}, "stratum": "S9", "params": {}})


def test_repeated_monomial_is_refused():
    # a polynomial lists each (i, j) once; a repeat is not summed, even one
    # that would cancel, and the detail names the exponent
    twice = {"monomials": [{"i": 0, "j": 0, "num": 1, "den": 1}, {"i": 0, "j": 0, "num": -1, "den": 1},
                           {"i": 4, "j": 0, "num": 1}]}
    with pytest.raises(ValueError, match=r"repeated monomial exponent \(i, j\) = \(0, 0\)"):
        jsonio.bipoly_from_json(twice)
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        jsonio.bipoly_from_json({"monomials": [{"i": 2, "j": 1, "num": 3}, {"i": 2, "j": 1, "num": 3}]})
    assert jsonio.bipoly_from_json({"monomials": twice["monomials"][1:]}) == Z1**4 - 1
