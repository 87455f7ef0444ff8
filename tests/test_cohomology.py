from __future__ import annotations

from fractions import Fraction as F

from cohiggs.chern import ChernData
from cohiggs.cohomology import LineBundle, h_dims, monomial_basis, slope_rank2

GRID = range(-6, 7)


def test_h_dims_examples():
    assert h_dims(2, 0) == (3, 0, 0)  # sections 1, z1, z1^2
    assert h_dims(1, -2) == (0, 2, 0)
    # Kunneth: h2 = max(-a-1,0) * max(-b-1,0) = 1 * 1
    assert h_dims(-2, -2) == (0, 0, 1)


def test_euler_characteristic_on_grid():
    for a in GRID:
        for b in GRID:
            h0, h1, h2 = h_dims(a, b)
            assert h0 - h1 + h2 == (a + 1) * (b + 1)


def test_vanishing_statements_on_grid():
    # the three if-and-only-if vanishing statements for O(a,b)
    for a in GRID:
        for b in GRID:
            h0, h1, h2 = h_dims(a, b)
            assert (h0 == 0) == (a < 0 or b < 0)
            assert (h1 == 0) == ((a < 0 and b < 0) or (a >= -1 and b >= -1))
            assert (h2 == 0) == (a >= -1 or b >= -1)


def test_serre_duality_on_grid():
    for a in GRID:
        for b in GRID:
            assert h_dims(a, b)[2] == h_dims(-a - 2, -b - 2)[0]


def test_monomial_basis_examples():
    assert monomial_basis(1, 1) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert monomial_basis(-1, 3) == []
    assert len(monomial_basis(3, 0)) == 4  # (3+1)(0+1)


def test_monomial_basis_counts_match_h0():
    for a in GRID:
        for b in GRID:
            basis = monomial_basis(a, b)
            assert len(basis) == h_dims(a, b)[0]
            assert len(set(basis)) == len(basis)
            assert all(0 <= i <= a and 0 <= j <= b for i, j in basis)


def test_slope_examples():
    assert LineBundle(-1, 0).slope() == -1
    assert LineBundle(0, 0).slope() == 0
    assert LineBundle(2, -5).slope() == -3


def test_slope_rank2():
    assert slope_rank2(ChernData(-1, -1, 17)) == -1
    assert slope_rank2(ChernData(0, -1, 0)) == F(-1, 2)
    # independent of the second Chern class
    assert slope_rank2(ChernData(3, 2, 99)) == slope_rank2(ChernData(3, 2, 0))
