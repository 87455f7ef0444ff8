"""Exact Gaussian elimination over the rationals.

One forward elimination serves every exact linear-algebra question in the
package: the rank behind the dimension counts and the determinant behind
the Sylvester resultant.  Pivoting is by first nonzero entry; exact
arithmetic makes numerical pivot selection irrelevant.
"""

from __future__ import annotations

from fractions import Fraction


def eliminate(rows: list[list[Fraction]]) -> tuple[int, Fraction]:
    """(rank, signed product of the pivots) of the matrix with these rows.

    Each pivot clears only the entries below it; a row swap flips the sign.
    For a square matrix of full rank the second value is the determinant.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    det = Fraction(1)
    for col in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        pv = m[r][col]
        det *= pv
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r, det


def rank(rows: list[list[Fraction]]) -> int:
    return eliminate(rows)[0]
