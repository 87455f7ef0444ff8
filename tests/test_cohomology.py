from __future__ import annotations

from cohiggs.cohomology import LineBundle, h_dims

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


def test_h0_counts_the_monomial_box():
    # the sections z1^i z2^j with 0 <= i <= a and 0 <= j <= b
    for a in GRID:
        for b in GRID:
            box = (a + 1) * (b + 1) if a >= 0 and b >= 0 else 0
            assert h_dims(a, b)[0] == box


def test_slope_examples():
    assert LineBundle(-1, 0).slope() == -1
    assert LineBundle(0, 0).slope() == 0
    assert LineBundle(2, -5).slope() == -3
