"""Line bundles O(a,b) on P1 x P1: cohomology, section bases, slopes.

Conventions: O(a,b) = pr1*O(a) tensor pr2*O(b); its divisor class is
b*C0 + a*F where C0 is a section of the first projection and F a fibre.
The tangent bundle is O(2,0) + O(0,2).  The polarization is fixed once and
for all as H = C0 + F, under which deg O(a,b) = a + b.

Cohomology dimensions come from the closed-form Kunneth product of the
P1 factors, which is exact and O(1); the classical vanishing statements and
Serre duality are recovered from it (and pinned by tests on a grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class LineBundle:
    """O(a, b); all integer pairs are valid."""

    a: int
    b: int

    def slope(self) -> int:
        """H-slope for H = C0 + F."""
        return self.a + self.b

    def __str__(self) -> str:
        return f"O({self.a},{self.b})"


def _h0_line(n: int) -> int:
    return max(n + 1, 0)


def _h1_line(n: int) -> int:
    return max(-n - 1, 0)


def h_dims(a: int, b: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of O(a,b) on P1 x P1."""
    h0 = _h0_line(a) * _h0_line(b)
    h1 = _h0_line(a) * _h1_line(b) + _h1_line(a) * _h0_line(b)
    h2 = _h1_line(a) * _h1_line(b)
    return h0, h1, h2


def monomial_basis(a: int, b: int) -> list[tuple[int, int]]:
    """Chart-V1 monomial basis of the global sections of O(a,b).

    All (i, j) with 0 <= i <= a and 0 <= j <= b, enumerated by ascending
    total degree with the z1-heavier monomial first inside a degree;
    empty when a < 0 or b < 0.  Its length equals h0(a,b).
    """
    if a < 0 or b < 0:
        return []
    grid = [(i, j) for i in range(a + 1) for j in range(b + 1)]
    grid.sort(key=lambda ij: (ij[0] + ij[1], -ij[0]))
    return grid


def slope_rank2(c) -> Fraction:
    """H-slope of a rank-2 bundle with c1 = alpha*C0 + beta*F: (alpha+beta)/2.

    Accepts anything exposing .alpha and .beta; independent of c2.
    """
    return Fraction(c.alpha + c.beta, 2)
