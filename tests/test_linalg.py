"""Differential tests of the shared elimination against elimination-free
oracles and against the dense elimination it replaced."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from cohiggs import _univariate as uni
from cohiggs import extension
from cohiggs.extension import ExtParams, end0T_dimension
from cohiggs.linalg import eliminate, rank
from oracles import (
    cofactor_det,
    dense_eliminate,
    minor_rank,
    poly_from_roots,
    random_matrix,
    random_rat,
    sylvester_matrix,
)

EDGE_CASES = [
    [],  # empty matrix
    [[], []],  # two rows, no columns
    [[F(0), F(0), F(0)]],  # one zero row
    [[F(0)], [F(0)]],  # zero column
    [[F(0), F(1)], [F(0), F(2)]],  # zero first column, rank 1
    [[F(0), F(1)], [F(1), F(0)]],  # needs a row swap: det -1
    [[F(1), F(2), F(3)], [F(2), F(4), F(6)]],  # wide, rank 1
    [[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]],  # tall, rank 2
]


def random_matrices(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        cap = rng.choice([None, None, rng.randint(0, min(nrows, ncols))])
        yield random_matrix(rng, nrows, ncols, cap)


def random_polys(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        f, g = ([random_rat(rng, 5) for _ in range(rng.randint(1, 4))] for _ in range(2))
        yield uni.trim(f), uni.trim(g)


def test_eliminate_matches_minor_and_cofactor_oracles():
    for rows in EDGE_CASES + list(random_matrices(3, 300)):
        before = [list(r) for r in rows]
        r, d = eliminate(rows)
        assert rows == before  # the input is left alone
        assert r == rank(rows) == minor_rank(rows)
        if len(rows) == (len(rows[0]) if rows else 0):
            assert cofactor_det(rows) == (d if r == len(rows) else 0)


def random_sparse_matrices(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
        cap = rng.choice([None, rng.randint(0, min(nrows, ncols))])
        yield random_matrix(rng, nrows, ncols, cap, density=rng.uniform(0.05, 0.3))


def test_eliminate_matches_dense_oracle_on_sparse_matrices():
    swaps = zero_columns = cancellations = 0
    for rows in EDGE_CASES + list(random_sparse_matrices(21, 60)):
        expected = dense_eliminate(rows)
        assert eliminate(rows) == expected
        # the inputs must exercise a row swap, a zero column and a nonzero
        # row cancelling to zero
        swaps += bool(rows and rows[0] and not rows[0][0] and any(r[0] for r in rows))
        zero_columns += any(not any(col) for col in zip(*rows))
        cancellations += sum(any(r) for r in rows) > expected[0]
    assert swaps and zero_columns and cancellations


def test_eliminate_takes_sparse_dict_rows():
    for rows in EDGE_CASES + list(random_sparse_matrices(29, 60)):
        sparse = [{j: a for j, a in enumerate(r) if a} for r in rows]
        before = [dict(r) for r in sparse]
        assert eliminate(sparse) == dense_eliminate(rows)
        assert sparse == before  # the input rows are left alone


def test_eliminate_matches_dense_oracle_on_ansatz_matrices(monkeypatch):
    matrices = []

    def capturing_rank(rows):
        # the ansatz hands in sparse {column: entry} rows; densify them
        width = 1 + max(j for r in rows for j in r)
        matrices.append([[r.get(j, F(0)) for j in range(width)] for r in rows])
        return rank(rows)

    monkeypatch.setattr(extension, "rank", capturing_rank)
    rng = random.Random(34)
    big = lambda: F(rng.getrandbits(100) * rng.choice([-1, 1]), rng.getrandbits(100) | 1)
    classes = [ExtParams(F(0), F(1)), ExtParams(F(1, 2), F(-3)), ExtParams(big(), big()), ExtParams(big(), F(0))]
    for e in classes:
        assert end0T_dimension(e) == (6, 5, 11)
    assert len(matrices) == 2 * len(classes)
    for rows in matrices:
        assert eliminate(rows) == dense_eliminate(rows)


def test_eliminate_edge_cases():
    assert eliminate([]) == (0, 1)
    assert eliminate([[], []]) == (0, 1)
    assert eliminate([[F(0), F(1)], [F(1), F(0)]]) == (2, -1)
    assert rank([[F(1), F(2), F(3)], [F(2), F(4), F(6)]]) == 1


def test_resultant_matches_sylvester_cofactor_oracle():
    for f, g in random_polys(5, 200):
        expected = cofactor_det(sylvester_matrix(f, g)) if f and g else 0
        assert uni.resultant(f, g) == expected


def test_resultant_root_product_formula():
    # Res(a prod (x - r_i), b prod (x - s_j)) = a^n b^m prod (r_i - s_j)
    rng = random.Random(8)
    for _ in range(100):
        rs = [random_rat(rng, 4) for _ in range(rng.randint(0, 3))]
        ss = [random_rat(rng, 4) for _ in range(rng.randint(0, 3))]
        a, b = (random_rat(rng, 4) or F(1) for _ in range(2))
        expected = a ** len(ss) * b ** len(rs)
        for r in rs:
            for s in ss:
                expected *= r - s
        assert uni.resultant(poly_from_roots(a, rs), poly_from_roots(b, ss)) == expected


def test_resultant_degenerate_inputs():
    assert uni.resultant([], [F(1), F(1)]) == 0
    assert uni.resultant([F(2)], [F(0), F(0), F(1)]) == 4  # constant f: f0^deg g
    assert uni.resultant([F(3)], [F(5)]) == 1


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    q = lambda c: sympy.Rational(c.numerator, c.denominator)
    for rows in random_matrices(13, 150):
        mat = sympy.Matrix([[q(c) for c in row] for row in rows])
        r, d = eliminate(rows)
        assert r == mat.rank()
        if mat.is_square:
            assert q(d if r == len(rows) else F(0)) == mat.det()
    x = sympy.Symbol("x")
    for f, g in random_polys(17, 150):
        if uni.deg(f) < 1 or uni.deg(g) < 1:
            continue
        pf, pg = (sum(q(c) * x**k for k, c in enumerate(p)) for p in (f, g))
        m, n = uni.deg(f), uni.deg(g)
        # sympy 1.14 returns Res(g, f) when deg f < deg g, so pass the
        # higher degree first and undo the swap with (-1)^(mn)
        expected = sympy.resultant(pf, pg, x) if m >= n else (-1) ** (m * n) * sympy.resultant(pg, pf, x)
        assert q(uni.resultant(f, g)) == expected
