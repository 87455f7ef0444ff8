"""sympy cross-checks of the two root questions that Sylvester-type ranks
answer (skipped where sympy is absent): distinct roots of a quartic, and a
common root of the eigenvector quadratics."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from cohiggs.exactalg import BiPoly
from cohiggs.higgs import common_eigenvector_exists
from cohiggs.spectral import is_generic_quartic
from oracles import poly_from_roots, random_rat

sympy = pytest.importorskip("sympy")
X, Y = sympy.symbols("x y")


def _q(c: F):
    return sympy.Rational(c.numerator, c.denominator)


def _random_quartics(rng: random.Random):
    """Coefficient lists of degree 0-4: random ones, and ones with a planted
    repeated root (rational, or a pair of conjugate irrational roots)."""
    for d in range(5):
        for _ in range(30):
            f = [random_rat(rng, 6) for _ in range(d + 1)]
            f[-1] = f[-1] or F(1)
            yield f
    for _ in range(60):
        r = F(rng.randint(-4, 4), rng.randint(1, 3))
        rest = [F(rng.randint(-4, 4)) for _ in range(rng.randint(0, 2))]
        yield poly_from_roots(random_rat(rng, 5) or F(1), [r, r] + rest)
    for _ in range(20):
        c = F(rng.choice([2, 3, 5, -1]))
        yield [c * c, F(0), -2 * c, F(0), F(1)]  # (x^2 - c)^2


def test_is_generic_quartic_matches_sympy_discriminant():
    rng = random.Random(4)
    generic = repeated = 0
    for f in _random_quartics(rng):
        d = len(f) - 1
        expected = d >= 3 and sympy.discriminant(sum(_q(c) * X**k for k, c in enumerate(f)), X) != 0
        for axis in (1, 2):
            assert is_generic_quartic(BiPoly.from_univariate(f, axis)) == expected, (f, axis)
        generic += expected
        repeated += d >= 3 and not expected
    assert generic > 50 and repeated > 40


def _matrix_of(q20: F, q11: F, q02: F) -> list[list[F]]:
    """The trace-free (a b; c -a) whose eigenvectors (x, y) are the roots of
    q = q20 x^2 + q11 xy + q02 y^2: (a b; c -a) v is parallel to v exactly
    when x (c x - a y) - y (a x + b y) = c x^2 - 2a xy - b y^2 vanishes."""
    a, b, c = -q11 / 2, -q02, q20
    return [[a, b], [c, -a]]


def _random_family(rng: random.Random) -> list[list[list[F]]]:
    """1-4 matrices; about half of the families share a linear factor (a
    rational one, possibly y, i.e. the root [1:0]) or an irreducible
    quadratic factor, and some members are zero."""
    plant = rng.choice(["none", "none", "linear", "linear", "infinity", "irreducible"])
    mats = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.15:
            mats.append([[F(0), F(0)], [F(0), F(0)]])
            continue
        if plant == "irreducible":
            k = F(rng.randint(1, 5))
            mats.append(_matrix_of(k, F(0), -2 * k))  # k (x^2 - 2 y^2)
            continue
        # q = (l0 x + l1 y)(m0 x + m1 y), with l fixed across a planted family
        l0, l1 = random_rat(rng, 4), random_rat(rng, 4)
        if plant == "linear":
            l0, l1 = F(1), F(-3, 2)
        elif plant == "infinity":
            l0, l1 = F(0), F(1)
        m0, m1 = random_rat(rng, 4), random_rat(rng, 4)
        mats.append(_matrix_of(l0 * m0, l0 * m1 + l1 * m0, l1 * m1))
    return mats


def test_common_eigenvector_matches_sympy_gcd():
    rng = random.Random(11)
    shared = 0
    for _ in range(150):
        mats = _random_family(rng)
        g = sympy.Integer(0)
        for (a, b), (c, _) in mats:
            g = sympy.gcd(g, _q(c) * X**2 - 2 * _q(a) * X * Y - _q(b) * Y**2)
        # a zero family has gcd 0: every vector is a common eigenvector
        expected = g == 0 or sympy.Poly(g, X, Y).total_degree() >= 1
        assert common_eigenvector_exists(mats) == expected, mats
        shared += expected
    assert 60 < shared < 140  # both answers occur
