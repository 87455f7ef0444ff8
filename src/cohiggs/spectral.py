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

A quartic is "generic" when it has four distinct projective roots.  On
consistent data rho12 != 0 rules out a generic rho1 or rho2:
rho12^2 = 4 rho1 rho2 makes rho1(z1) rho2(z2) a square, which forces each
factor to be a constant times a square.  Consistent data therefore lands
in a product case or in the non-generic class.  Irrational fibre
coordinates are reported exactly as coef * sqrt(radicand), never as
floats; the radicand is squarefree when its part with no prime below 1000
is under 10^9 (see ``exactalg.exact_sqrt``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from ._univariate import shifted_rows
from .errors import InconsistentRho, NotIntegrable, NotUnivariate, SlotViolation
from .exactalg import BiPoly, EtaValue, _as_rat, _over_lcm, exact_sqrt
from .higgs import HiggsField, SpectralData, is_integrable, validate_field
from .linalg import rank


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

    rho must be univariate (either variable).  A degree deficit counts as
    multiplicity at infinity, so a generic rho has degree d >= 3; its finite
    roots are simple iff f and f' share no root, i.e. their Sylvester
    matrix (d - 1 shifts of f over d shifts of f') has full rank 2d - 1.
    f holds rho's integer numerators, rho times its positive denominator,
    which leaves every rank as it is.
    """
    (num,) = _over_lcm(rho)
    # the variable whose partner's exponent is always 0, z1 first
    k = next((k for k in (0, 1) if not any(t[1 - k] for t in num)), None)
    if k is None:
        raise NotUnivariate("genericity test needs a univariate quartic")
    f = {t[k]: c for t, c in num.items()}
    d = max(f, default=-1)
    if d > 4:
        raise SlotViolation("degree exceeds the quartic slot")
    if d < 3:
        return False  # zero, or a multiple root at infinity
    df = {i - 1: i * c for i, c in f.items() if i}
    return rank(shifted_rows(f, d - 1) + shifted_rows(df, d)) == 2 * d - 1


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
