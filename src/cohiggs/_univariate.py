"""Sylvester-type rows of univariate polynomials ({degree: coefficient}).

The package asks only root questions of them (a repeated root, a common
root), each answered by :func:`cohiggs.linalg.rank` of shifted rows.
"""

from __future__ import annotations

from fractions import Fraction


def shifted_rows(row: dict[int, Fraction | int], n: int) -> list[dict[int, Fraction | int]]:
    """The n rows x^k * f (k < n) of f = row, in the same {degree:
    coefficient} format, with the zero coefficients dropped."""
    return [{i + k: c for i, c in row.items() if c} for k in range(n)]
