"""Chern-class bookkeeping and the numerical decision procedures.

Rank-2 first Chern classes are written c1 = alpha*C0 + beta*F, c2 = gamma.
The intersection form on P1 x P1 is hard-coded (C0^2 = F^2 = 0, C0.F = 1).
Twisting by a line bundle reaches exactly one of the four reduced classes
0, -F, -C0, -C0-F according to the parities of (alpha, beta), and the
moduli-existence question descends to a single threshold on the twisted
second Chern class.

For odd-odd parities the widely quoted closed form "2*gamma >= alpha*beta - 2"
disagrees with the bound obtained by composing the class reduction with the
necessity theorem for -C0-F (which forces c2 >= 1):  the composition yields
2*gamma >= alpha*beta + 1.  This module follows the reduction route and
exposes the disagreement as a diagnostic flag; the two verdicts differ
exactly on the boundary tuples with gamma' = 0.

One reduction of c1 answers all three questions about a class: ``_reduce_c1``
gives the tag, the twist, the c2 shift and the tag's threshold once per c1 (a
memo of fixed size), gamma' is the shift plus gamma, and ``_verdict`` reads
both answers off gamma'; ``ReducedClass`` and the CLI's batch both call it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .cohomology import LineBundle


@dataclass(frozen=True)
class ChernData:
    """c1 = alpha*C0 + beta*F and c2 = gamma."""

    alpha: int
    beta: int
    gamma: int


@dataclass(frozen=True)
class NumericalInvariants:
    """Extension invariants: d = splitting type on the general fibre, r = push-forward degree."""

    d: int
    r: int


class ReducedTag(enum.Enum):
    ZERO = "Zero"
    MINUS_F = "MinusF"
    MINUS_C0 = "MinusC0"
    MINUS_C0_MINUS_F = "MinusC0MinusF"

    @property
    def threshold(self) -> int:
        """The least gamma' of a nonempty co-Higgs moduli: 1 for MinusC0MinusF, else 0."""
        return 1 if self is ReducedTag.MINUS_C0_MINUS_F else 0


def _verdict(gamma_prime: int, threshold: int) -> tuple[bool, bool]:
    """(nonempty, printed_bound_disagrees) at gamma': the printed bound reads gamma' >= 0,
    so it disagrees with the threshold for MinusC0MinusF at gamma' = 0."""
    return gamma_prime >= threshold, 0 <= gamma_prime < threshold


@dataclass(frozen=True)
class ReducedClass:
    tag: ReducedTag
    twist: LineBundle
    gamma_prime: int

    def nonempty(self) -> bool:
        """The co-Higgs moduli threshold: gamma' >= the tag's threshold."""
        return _verdict(self.gamma_prime, self.tag.threshold)[0]

    def printed_bound_disagrees(self) -> bool:
        """True iff the printed bound 2*gamma >= alpha*beta - 2 and the threshold disagree."""
        return _verdict(self.gamma_prime, self.tag.threshold)[1]


def intersect(c0_coeff1: int, f_coeff1: int, c0_coeff2: int, f_coeff2: int) -> int:
    """Intersection number of a1*C0 + b1*F with a2*C0 + b2*F."""
    return c0_coeff1 * f_coeff2 + f_coeff1 * c0_coeff2


# the reduced class by the parities (alpha % 2, beta % 2)
_TAGS = (
    (ReducedTag.ZERO, ReducedTag.MINUS_F),
    (ReducedTag.MINUS_C0, ReducedTag.MINUS_C0_MINUS_F),
)


@functools.lru_cache(maxsize=4096)  # a fixed size bounds the memo's memory
def _reduce_c1(alpha: int, beta: int) -> tuple[ReducedTag, LineBundle, int, int]:
    """(tag, L = O(x, y) of class y*C0 + x*F, c2 shift (c1 + c1(L)).c1(L), threshold)
    for c1 = alpha*C0 + beta*F; L takes c1 to -(alpha % 2, beta % 2)."""
    a, b = alpha % 2, beta % 2
    x, y, tag = -(b + beta) // 2, -(a + alpha) // 2, _TAGS[a][b]
    return tag, LineBundle(x, y), intersect(alpha + y, beta + x, y, x), tag.threshold


def reduce_class(c: ChernData) -> ReducedClass:
    """Twist to the unique reduced class determined by the parities of (alpha, beta).

    Returns the tag, the twisting line bundle L = O(x, y), and the twisted
    second Chern class gamma', which is always an integer:
    gamma - alpha*beta/2 for the tags Zero/MinusF/MinusC0 and
    gamma + (1 - alpha*beta)/2 for MinusC0MinusF.
    """
    tag, twist, shift, _ = _reduce_c1(c.alpha, c.beta)
    return ReducedClass(tag, twist, c.gamma + shift)


def ext_length(c: ChernData, inv: NumericalInvariants) -> int:
    """Length of the point scheme in the canonical extension presentation.

    ell = gamma - alpha*r - beta*d + 2*d*r.
    """
    return c.gamma - c.alpha * inv.r - c.beta * inv.d + 2 * inv.d * inv.r


def bundle_moduli_nonempty(c: ChernData, inv: NumericalInvariants) -> bool:
    """Non-emptiness of the bundle moduli M(c1, c2, d, r).

    True iff ell >= 0 and (2d > alpha, or 2d = alpha and beta - 2r <= ell).
    """
    ell = ext_length(c, inv)
    if ell < 0:
        return False
    two_d = 2 * inv.d
    return two_d > c.alpha or (two_d == c.alpha and c.beta - 2 * inv.r <= ell)


def cohiggs_moduli_nonempty(c: ChernData) -> bool:
    """Non-emptiness of the rank-2 semistable co-Higgs moduli for (c1, c2): gamma' at
    least its tag's threshold.  When non-empty the moduli always contains a pair
    with nonzero Higgs field."""
    return reduce_class(c).nonempty()


def theorem48_case2_discrepancy(c: ChernData) -> bool:
    """True iff the printed odd-odd closed form 2*gamma >= alpha*beta - 2 and the
    reduction route disagree: one extra line of odd-odd tuples, gamma' = 0."""
    return reduce_class(c).printed_bound_disagrees()


def no_nontrivial_higgs_region(inv: NumericalInvariants, c2: int) -> bool:
    """Region (for c1 = -F) where every bundle in M(-F, c2, d, r) is stable
    with only the zero Higgs field.

    True iff d > 1, r <= -1-d and c2 >= 3 - d(1+2r), or
            d = 1, r <= -2 and c2 >= -4r - 1.
    """
    d, r = inv.d, inv.r
    if d > 1 and r <= -1 - d and c2 >= 3 - d * (1 + 2 * r):
        return True
    if d == 1 and r <= -2 and c2 >= -4 * r - 1:
        return True
    return False
