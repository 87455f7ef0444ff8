"""Dense univariate polynomial helpers over the rationals.

Coefficient lists indexed by degree ([c0, c1, ...]); the zero polynomial is
the empty list.  Only what the library calls: gcds of the eigenvector
quadratics, evaluation, and the resultant behind the quartic discriminant,
which hands its Sylvester matrix to :func:`cohiggs.linalg.eliminate`.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import eliminate

Poly = list[Fraction]


def trim(p: Poly) -> Poly:
    while p and not p[-1]:
        p.pop()
    return p


def deg(p: Poly) -> int:
    return len(p) - 1


def scale(p: Poly, c: Fraction) -> Poly:
    if not c:
        return []
    return [x * c for x in p]


def divmod_poly(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(f)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    dg = deg(g)
    lg = g[-1]
    while deg(rem) >= dg and rem:
        shift = deg(rem) - dg
        c = rem[-1] / lg
        q[shift] = c
        for i, b in enumerate(g):
            rem[i + shift] -= c * b
        trim(rem)
    return trim(q), rem


def gcd(f: Poly, g: Poly) -> Poly:
    a, b = list(f), list(g)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    if a:
        a = scale(a, 1 / a[-1])
    return a


def derivative(p: Poly) -> Poly:
    return trim([c * k for k, c in enumerate(p)][1:])


def evaluate(p: Poly, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def resultant(f: Poly, g: Poly) -> Fraction:
    """Determinant of the Sylvester matrix of f and g.

    Zero iff f and g share a root (or one of them is zero).
    """
    if not f or not g:
        return Fraction(0)
    m, n = deg(f), deg(g)
    size = m + n
    rf = list(reversed(f))
    rg = list(reversed(g))
    rows = [[Fraction(0)] * k + rf + [Fraction(0)] * (n - 1 - k) for k in range(n)]
    rows += [[Fraction(0)] * k + rg + [Fraction(0)] * (m - 1 - k) for k in range(m)]
    r, det = eliminate(rows)
    return det if r == size else Fraction(0)
