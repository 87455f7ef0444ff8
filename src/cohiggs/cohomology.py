"""Line bundles O(a,b) on P1 x P1: cohomology and slopes.

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
