"""Sylvester-type rows of univariate polynomials ({degree: coefficient}).

The package's root questions are answered by invariants, with no rows: the
tests build their rank references from these.
"""

from __future__ import annotations

from fractions import Fraction


def shifted_rows(row: dict[int, Fraction | int], n: int) -> list[dict[int, Fraction | int]]:
    """The n rows x^k * f (k < n) of f = row, in the same {degree:
    coefficient} format, with the zero coefficients dropped."""
    return [{i + k: c for i, c in row.items() if c} for k in range(n)]
