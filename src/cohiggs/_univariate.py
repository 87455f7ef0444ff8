"""Sylvester-type rows of univariate polynomials ([c0, c1, ...] by degree).

The package asks only root questions of them (a repeated root, a common
root), each answered by :func:`cohiggs.linalg.rank` of shifted rows.
"""

from __future__ import annotations

from fractions import Fraction


def shifted_rows(coeffs: list[Fraction], n: int) -> list[dict[int, Fraction]]:
    """The n rows x^k * f (k < n) of f = coeffs, as {degree: coefficient}
    dicts of their nonzero entries."""
    row = {i: c for i, c in enumerate(coeffs) if c}
    return [{i + k: c for i, c in row.items()} for k in range(n)]
