"""Hitchin map and spectral-surface diagnostics.

The Hitchin map sends an integrable trace-free field Phi = Phi_1 + Phi_2 to

    (rho1, rho12, rho2) = (det Phi_1, -2 A1 A2 - 2 B1 C2, det Phi_2)

inside H0(O(4,0) + O(2,2) + O(0,4)).  Integrability forces the image
constraint rho12^2 = 4 rho1 rho2, so the map is never onto.  The spectral
surface cut out by a consistent datum is

    eta1^2 + rho1 = 0,   eta2^2 + rho2 = 0,   2 eta1 eta2 + rho12 = 0

inside the total space of the tangent bundle; over a base point with
rho1 != 0 it consists of exactly two points, the third equation selecting
the eigenvalue pairing (eta1, eta2 = -rho12/(2 eta1)).

A quartic is "generic" when it has four distinct projective roots (its
invariants I and J decide it).  On consistent data rho12 != 0 rules out a
generic rho1 or rho2: rho12^2 = 4 rho1 rho2 makes rho1(z1) rho2(z2) a
square, which forces each factor to be a constant times a square.
Consistent data therefore lands in a product case or in the non-generic
class.  Irrational fibre coordinates are reported exactly as coef *
sqrt(radicand), never as floats; the radicand is squarefree when its part
with no prime below 1000 is under 10^9 (see ``exactalg.exact_sqrt``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentRho, NotIntegrable, NotUnivariate, SlotViolation
from .exactalg import BiPoly, EtaValue, _as_rat, _over_lcm, exact_sqrt
from .higgs import HiggsField, SpectralData, is_integrable, validate_field


@dataclass(frozen=True)
class SpectralPoint:
    """Base point (z1, z2) with tangent-fibre coordinates (eta1, eta2)."""

    z1: Fraction
    z2: Fraction
    eta1: Fraction
    eta2: Fraction


def hitchin_map(f: HiggsField) -> SpectralData:
    """(det Phi_1, -2 A1 A2 - 2 B1 C2, det Phi_2) on chart V1."""
    if not validate_field(f):
        raise SlotViolation("field violates its shape slots")
    if not is_integrable(f):
        raise NotIntegrable("Hitchin map needs an integrable field")
    return f._hitchin  # built and slot-checked once per field


def rho_consistent(s: SpectralData) -> bool:
    """Image constraint of the Hitchin map: rho12^2 = 4 rho1 rho2, exactly."""
    return s.rho12 * s.rho12 == s.rho1 * s.rho2 * 4


def spectral_residual(s: SpectralData, p: SpectralPoint) -> tuple[Fraction, Fraction, Fraction]:
    """(eta1^2 + rho1(z), eta2^2 + rho2(z), 2 eta1 eta2 + rho12(z)).

    The point lies on the spectral surface iff all three vanish.
    """
    z1, z2, eta1, eta2 = map(_as_rat, (p.z1, p.z2, p.eta1, p.eta2))
    r1 = eta1 * eta1 + s.rho1.evaluate(z1, z2)
    r2 = eta2 * eta2 + s.rho2.evaluate(z1, z2)
    r3 = 2 * eta1 * eta2 + s.rho12.evaluate(z1, z2)
    return r1, r2, r3


# ---------------------------------------------------------------------------
# fibres
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fibre:
    """Fibre of the spectral surface over a rational base point.

    disc1 and disc2 are the squares -rho1(z) and -rho2(z) of the fibre
    coordinates; pairing_rhs is -rho12(z), so admissible points satisfy
    2 eta1 eta2 = pairing_rhs.  points lists the actual fibre: one ramified
    point when both discriminants vanish, else the two paired points.
    """

    z1: Fraction
    z2: Fraction
    disc1: Fraction
    disc2: Fraction
    pairing_rhs: Fraction
    ramified: bool
    points: tuple[tuple[EtaValue, EtaValue], ...]


def fibre_over_point(f: HiggsField, z1: Fraction, z2: Fraction) -> Fibre:
    """Points of the spectral surface of f over (z1, z2).

    Over an unramified point the two eigenvalue pairs are
    (eta1, -rho12/(2 eta1)) and its negative; the cross pairings fail the
    third surface equation whenever rho12(z) != 0.  The fibre is flagged
    ramified when rho1 or rho2 vanishes at the point (repeated eigenvalue
    of the corresponding component).
    """
    s = hitchin_map(f)
    z1, z2 = _as_rat(z1), _as_rat(z2)
    r1 = s.rho1.evaluate(z1, z2)
    r2 = s.rho2.evaluate(z1, z2)
    r12 = s.rho12.evaluate(z1, z2)
    ramified = r1 == 0 or r2 == 0
    points: list[tuple[EtaValue, EtaValue]]
    if r1 == 0 and r2 == 0:
        zero = EtaValue(Fraction(0), 1)
        points = [(zero, zero)]
    elif r1 != 0:
        eta1 = exact_sqrt(-r1)
        # 2 eta1 eta2 = -rho12(z); with eta1 = c sqrt(m), eta2 = -rho12/(2cm) sqrt(m)
        partner = Fraction(-r12, 2) / (eta1.coef * eta1.radicand)
        eta2 = EtaValue(partner, eta1.radicand)
        points = [(eta1, eta2), (-eta1, -eta2)]
    else:
        # rho1(z) = 0 < ramified; consistency forces rho12(z) = 0, and the
        # fibre is {0} x {eta2 : eta2^2 = -rho2(z)}
        eta2 = exact_sqrt(-r2)
        zero = EtaValue(Fraction(0), 1)
        points = [(zero, eta2), (zero, -eta2)]
    return Fibre(z1, z2, -r1, -r2, -r12, ramified, tuple(points))


# ---------------------------------------------------------------------------
# quartic genericity and decomposability
# ---------------------------------------------------------------------------


def is_generic_quartic(rho: BiPoly) -> bool:
    """Four distinct projective roots of the binary quartic homogenizing rho.

    rho is univariate (either variable); its integer numerators of degree
    4..0 (0 where missing) are a..e in a x^4 + b x^3 y + c x^2 y^2 + d x y^3
    + e y^4, whose discriminant is (4 I^3 - J^2)/27 with I = 12ae - 3bd + c^2
    and J = 72ace + 9bcd - 27ad^2 - 27b^2 e - 2c^3 (Olver, Classical
    Invariant Theory, 1999, ch. 2).  A multiple root, at infinity too, and
    zero give 4 I^3 = J^2; a scale l takes I to l^2 I and J to l^3 J.
    """
    (num,) = _over_lcm(rho)
    # the variable whose partner's exponent is always 0, z1 first
    k = next((k for k in (0, 1) if not any(t[1 - k] for t in num)), None)
    if k is None:
        raise NotUnivariate("genericity test needs a univariate quartic")
    f = {t[k]: c for t, c in num.items()}
    if max(f, default=0) > 4:
        raise SlotViolation("degree exceeds the quartic slot")
    e, d, c, b, a = (f.get(i, 0) for i in range(5))
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c * c * c
    return 4 * i * i * i != j * j


class FibreClass(enum.Enum):
    PRODUCT_CASE_AXIS1 = "ProductCaseAxis1"
    PRODUCT_CASE_AXIS2 = "ProductCaseAxis2"
    NON_GENERIC_OTHER = "NonGenericOther"


def fibre_decomposability(s: SpectralData) -> FibreClass:
    """Classification of a consistent spectral datum by what its fibre can hold.

    Product cases (rho12 = 0 with one generic quartic and the other
    component zero) are the fibres that do contain decomposable bundles
    (products of a spectral curve with a projective line); anything else is
    non-generic.
    """
    if not rho_consistent(s):
        raise InconsistentRho("rho12^2 != 4 rho1 rho2")
    if not s.rho12 and not s.rho2 and is_generic_quartic(s.rho1):
        return FibreClass.PRODUCT_CASE_AXIS1
    if not s.rho12 and not s.rho1 and is_generic_quartic(s.rho2):
        return FibreClass.PRODUCT_CASE_AXIS2
    return FibreClass.NON_GENERIC_OTHER
