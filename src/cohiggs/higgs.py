"""Higgs fields on decomposable rank-2 bundles over P1 x P1.

A field is a pair Phi = Phi_1 d/dz1 + Phi_2 d/dz2 of trace-free 2x2
polynomial matrices on the affine chart V1, with each entry constrained to
a degree box ("slot") determined by the underlying split bundle
L1 + L2: writing Phi_i = (A_i B_i; C_i -A_i),

    A_1 in H0(O(2,0)),              A_2 in H0(O(0,2)),
    B_1 in H0(O(a1-a2+2, b1-b2)),   B_2 in H0(O(a1-a2, b1-b2+2)),
    C_1 in H0(O(a2-a1+2, b2-b1)),   C_2 in H0(O(a2-a1, b2-b1+2)).

Integrability is the vanishing of [Phi_1, Phi_2]; for trace-free matrices
that is the three entrywise identities B1*C2 = C1*B2, A1*B2 = B1*A2,
C1*A2 = A1*C2, which :func:`commute` states once for this module and the
extension family.  No procedure here multiplies matrices.

Stability is slope stability for the polarization H = C0 + F against
Phi-invariant sub-line bundles.  A twist E -> E + M keeps it, so the class
reads the bundle only through its twist class d = L1 - L2, as the slots do.
It is decided where a complete criterion exists: every d of nonzero slope
(the dominant summand is the unique destabilizer) and d = O(0,0), the
twists L+L of O+O (strict semistability is a common eigenvector of the six
coefficient matrices, a common root of their eigenvector quadratics, which
a cross product and the resultant of two binary quadratics decide).  The
other classes of slope 0, L1 != L2 with equal slopes, are Unsupported.

Nothing here conjugates.  The graded object of a strictly semistable field
on L+L is the diagonal of its eigenvalues along a rational common
eigenvector.  The normal forms, fixed by det Phi in closed form, go by the
twist class too: :func:`normal_form` serves d = O(1,0), O(2,0) and O(1,-2),
each on every bundle of its class, and keeps the input's bundle.

A field is immutable, so what the entry points ask of it is derived once per
field and kept on it (see :class:`HiggsField`): the slot verdict, the
integrability verdict, the spectral datum, the stability class, the graded
object and, on L+L, the eigenvector quadratics that the last two both read.
Every entry point still runs its own checks on each call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from typing import NamedTuple

from .cohomology import LineBundle
from .errors import (
    BundleMismatch,
    CoHiggsError,
    IrrationalEigenvector,
    LeadingCoefficientZero,
    NotInNormalFormDomain,
    NotIntegrable,
    NotStrictlySemistable,
    SlotViolation,
    ZeroC,
    ZeroC1,
)
from .exactalg import BiPoly, PolyMat2, _as_rat, _over_lcm, det2

O = LineBundle


@dataclass(frozen=True)
class DecomposableBundle:
    """L1 + L2 with the first summand written first."""

    L1: LineBundle
    L2: LineBundle

    def __str__(self) -> str:
        return f"{self.L1}+{self.L2}"


class HiggsShape(NamedTuple):
    """Slot (degree box) of each of the six matrix entries, in the order of
    :meth:`HiggsField.entries`."""

    a1: LineBundle
    b1: LineBundle
    c1: LineBundle
    a2: LineBundle
    b2: LineBundle
    c2: LineBundle


def _difference(b: DecomposableBundle) -> LineBundle:
    """d = L1 - L2, the twist class that a field's slots and class read."""
    return O(b.L1.a - b.L2.a, b.L1.b - b.L2.b)


def higgs_shape(b: DecomposableBundle) -> HiggsShape:
    return _shape(b.L1.a - b.L2.a, b.L1.b - b.L2.b)


@lru_cache(maxsize=1024)  # a fixed size bounds the memo's memory
def _shape(a: int, b: int) -> HiggsShape:
    """The slots of the twist class d = O(a, b), built once per class."""
    return HiggsShape(
        a1=O(2, 0),
        b1=O(a + 2, b),
        c1=O(-a + 2, -b),
        a2=O(0, 2),
        b2=O(a, b + 2),
        c2=O(-a, -b + 2),
    )


def fits_slot(p: BiPoly, slot: LineBundle) -> bool:
    """True iff every monomial of p lies in the slot's box (zero always fits)."""
    return p.within(slot.a, slot.b)


def _check_slot(p: BiPoly, slot: LineBundle, name: str) -> None:
    """The one slot check that raises: SlotViolation naming the section and its slot."""
    if not fits_slot(p, slot):
        raise SlotViolation(f"{name} does not fit the slot {slot}")


# the slots of rho1, rho12 and rho2 by field name, and of a, b, c pulled back along each axis
_RHO_SLOTS = {"rho1": O(4, 0), "rho12": O(2, 2), "rho2": O(0, 4)}
_PULLBACK_SLOTS = {1: (O(2, 0), O(3, 0), O(1, 0)), 2: (O(0, 2), O(0, 3), O(0, 1))}


@dataclass(frozen=True)
class SpectralData:
    """Triple of sections of O(4,0), O(2,2), O(0,4)."""

    rho1: BiPoly
    rho12: BiPoly
    rho2: BiPoly

    def __post_init__(self):
        for name, slot in _RHO_SLOTS.items():
            _check_slot(getattr(self, name), slot, name)


@dataclass(frozen=True)
class HiggsField:
    """Underlying split bundle plus the two matrix components on chart V1.

    The private ``cached_property`` facts are computed on first use and kept
    in the instance ``__dict__``, not as dataclass fields, so ``==``, ``hash``
    and ``repr`` see the three fields alone.  A field never changes, and a
    computation that raises keeps nothing.  From CPython 3.12 on
    ``cached_property`` takes no lock: two threads may compute a fact twice,
    with equal results.
    """

    bundle: DecomposableBundle
    phi1: PolyMat2
    phi2: PolyMat2

    def entries(self) -> tuple[BiPoly, ...]:
        """(A1, B1, C1, A2, B2, C2)."""
        return (
            self.phi1.entry(0, 0), self.phi1.entry(0, 1), self.phi1.entry(1, 0),
            self.phi2.entry(0, 0), self.phi2.entry(0, 1), self.phi2.entry(1, 0),
        )

    @cached_property
    def _valid(self) -> bool:
        return (self.phi1.is_trace_free() and self.phi2.is_trace_free()
                and all(map(fits_slot, self.entries(), higgs_shape(self.bundle))))

    @cached_property
    def _integrable(self) -> bool:
        return commute(self.phi1, self.phi2)

    @cached_property
    def _hitchin(self) -> SpectralData:
        a1, b1, _, a2, _, c2 = self.entries()
        return SpectralData(det2(self.phi1), (a1 * a2 + b1 * c2) * (-2), det2(self.phi2))

    @cached_property
    def _quadratics(self) -> list[tuple[int, int, int]]:
        """The nonzero eigenvector quadratics of the coefficient matrices (L+L)."""
        return _eigen_quadratics(_coefficient_matrices(self))

    @cached_property
    def _stability(self) -> StabilityClass:
        """What :func:`stability_classify` returns once its checks pass."""
        d = _difference(self.bundle)
        mu = d.slope()
        if not mu:
            if d.a:  # equal slopes, L1 != L2
                return StabilityClass.UNSUPPORTED
            if _share_a_root(self._quadratics):
                return StabilityClass.STRICTLY_SEMISTABLE
            return StabilityClass.STABLE
        # the lower-left entries with the dominant summand first: putting L2
        # first conjugates by the permutation matrix, which exchanges B and C
        low = (1, 0) if mu > 0 else (0, 1)
        if not self.phi1.entry(*low) and not self.phi2.entry(*low):
            return StabilityClass.UNSTABLE
        return StabilityClass.STABLE

    @cached_property
    def _graded(self) -> HiggsField:
        """What :func:`graded_object` returns once its checks pass.  The zero
        field has no quadratics, and [1:0] gives it back."""
        v = _rational_common_eigenvector(self._quadratics)
        if v is None:
            raise IrrationalEigenvector("common eigenvector exists only over a quadratic extension")
        x0, y0 = v
        if y0:
            a1, a2 = (m.entry(1, 0) * x0 - m.entry(0, 0) for m in (self.phi1, self.phi2))
        else:
            a1, a2 = self.phi1.entry(0, 0), self.phi2.entry(0, 0)
        return field(self.bundle, a1=a1, a2=a2)


def field(bundle: DecomposableBundle, a1=0, b1=0, c1=0, a2=0, b2=0, c2=0) -> HiggsField:
    """Convenience constructor from the six entries (BiPoly, int or Fraction)."""
    return HiggsField(bundle, PolyMat2.trace_free(a1, b1, c1), PolyMat2.trace_free(a2, b2, c2))


def validate_field(f: HiggsField) -> bool:
    """Trace-freeness of both components plus the slot boxes of all six entries."""
    return f._valid


def commute(x: PolyMat2, y: PolyMat2) -> bool:
    """[x, y] = 0 for trace-free x = (a1 b1; c1 -a1), y = (a2 b2; c2 -a2).

    The commutator is (b1c2 - c1b2, 2(a1b2 - b1a2); 2(c1a2 - a1c2), c1b2 - b1c2),
    so it vanishes iff the three entrywise identities hold.
    """
    a1, b1, c1 = x.entry(0, 0), x.entry(0, 1), x.entry(1, 0)
    a2, b2, c2 = y.entry(0, 0), y.entry(0, 1), y.entry(1, 0)
    return b1 * c2 == c1 * b2 and a1 * b2 == b1 * a2 and c1 * a2 == a1 * c2


def is_integrable(f: HiggsField) -> bool:
    """[Phi_1, Phi_2] = 0."""
    return f._integrable


# ---------------------------------------------------------------------------
# constant eigenvector machinery
# ---------------------------------------------------------------------------


def eigen_quadratic(rows) -> tuple[Fraction, Fraction, Fraction]:
    """Eigenvector form of a constant trace-free matrix (a b; c -a), given as
    rows of ``int`` or ``Fraction`` entries; see :func:`_quadratic`."""
    (a, b), (c, d) = ((_as_rat(v) for v in row) for row in rows)
    if a + d != 0:
        raise ValueError("matrix is not trace-free")
    return _quadratic(a, b, c)


def _quadratic(a, b, c):
    """v = (x, y) is an eigenvector of (a b; c -a) iff q(v) = 0, with
    q(x, y) = c x^2 - 2a xy - b y^2, returned as (q20, q11, q02) = (c, -2a, -b)."""
    return c, -2 * a, -b


def _eigen_quadratics(mats) -> list[tuple[int, int, int]]:
    """The nonzero quadratics of the matrices (a b; c -a), given as (a, b, c); a
    zero matrix has every vector as an eigenvector and drops out."""
    return [q for a, b, c in mats if any(q := _quadratic(a, b, c))]


def common_eigenvector_exists(mats) -> bool:
    """True iff the given constant trace-free matrices share an eigenvector.

    An empty or all-zero family is vacuously True.  The quadratics share a
    projective root over the algebraic closure iff their span is at most a
    line (a nonzero binary quadratic has a root), or a plane whose two basis
    members have a zero resultant; a span of all quadratics holds x^2 and
    y^2, which share none.
    """
    return _share_a_root(map(eigen_quadratic, mats))


def _share_a_root(quads) -> bool:
    """The rule of :func:`common_eigenvector_exists` on (q20, q11, q02) triples.
    For the first nonzero p = (a, b, c) and the first q = (a', b', c') off its
    line, n = p x q is normal to their plane, and their resultant
    (ac' - a'c)^2 - (ab' - a'b)(bc' - b'c) is n1^2 - n0 n2 (Salmon, 1885)."""
    quads = iter(quads)
    a, b, c = next((q for q in quads if any(q)), (0, 0, 0))
    for x, y, z in quads:
        if any(n := (b * z - c * y, c * x - a * z, a * y - b * x)):
            break
    else:
        return True  # span at most a line
    # a member off the plane makes the span all quadratics
    return (not any(n[0] * x + n[1] * y + n[2] * z for x, y, z in quads)
            and n[1] * n[1] == n[0] * n[2])


def _rational_common_eigenvector(quads: list[tuple[int, int, int]]):
    """A projective rational common root (x, y) of the integer family, or None.

    Prefers [1:0] when available (it keeps upper-triangular input fixed),
    then the smallest rational affine root.  Returns None when the common
    roots are irrational.  A root x = n/d is tested as a n^2 + b n d + c d^2 = 0.
    """
    q = next((q for q in quads if q[0]), None)
    if q is None:
        return (Fraction(1), Fraction(0))
    q20, q11, q02 = q if q[0] > 0 else (-x for x in q)  # the same roots, and d > 0
    disc = q11 * q11 - 4 * q20 * q02
    root = isqrt(max(disc, 0))
    if root * root != disc:
        return None
    d = 2 * q20
    for n in (-q11 - root, -q11 + root):
        if all(not (a * n + b * d) * n + c * d * d for a, b, c in quads):
            return (Fraction(n, d), Fraction(1))
    return None


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


class StabilityClass(enum.Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"
    UNSUPPORTED = "Unsupported"


def _coefficient_matrices(f: HiggsField) -> list[tuple[int, int, int]]:
    """The six constant matrices (a b; c -a) of a field on L+L, as (a, b, c):
    M0,M1,M2 (z1-coefficients of Phi_1) and N0,N1,N2 (z2-coefficients of Phi_2),
    each times its component's common denominator, which keeps its eigenvectors."""
    one, two = _over_lcm(*f.entries()[:3]), _over_lcm(*f.entries()[3:])
    return ([tuple(x.get((k, 0), 0) for x in one) for k in range(3)]
            + [tuple(x.get((0, k), 0) for x in two) for k in range(3)])


def stability_classify(f: HiggsField) -> StabilityClass:
    """Stability class of a validated integrable field, from d = L1 - L2 and mu = slope(d).

    mu != 0: the dominant summand is the unique destabilizing sub-line
    bundle; it is invariant iff both lower-left entries (after putting it
    first) vanish, giving Unstable.  Otherwise the field is Stable: an
    invariant sub-line bundle N is then not inside the dominant summand, so
    it maps to the other one, L', and slope N <= slope L' < mu(E).  Only odd
    mu and d = +-(2,0), +-(0,2), the twists of O(1,0)+O(-1,0) and
    O(0,1)+O(0,-1), leave a lower-left slot that is not forced to zero.

    mu = 0: only d = O(0,0), a bundle L+L, has a complete criterion (common
    eigenvector of the coefficient matrices <=> strictly semistable, never
    unstable); every other class is Unsupported.
    """
    if not validate_field(f):
        raise SlotViolation("field violates its shape slots or trace-freeness")
    if not is_integrable(f):
        raise NotIntegrable("field is not integrable")
    return f._stability


def graded_object(f: HiggsField) -> HiggsField:
    """Associated graded of a strictly semistable field on L+L.

    It is the diagonal (lambda_i, -lambda_i) of the eigenvalues along a
    rational common eigenvector v, which every coefficient matrix shares:
    lambda_i = C_i x0 - A_i for v = (x0, 1), and A_i for v = [1:0], where
    every C_i vanishes.  Raises NotStrictlySemistable when the field is not
    strictly semistable, and IrrationalEigenvector when the only common
    eigenvectors live in a quadratic extension (the graded object then has
    no representation with rational coefficients).
    """
    if stability_classify(f) is not StabilityClass.STRICTLY_SEMISTABLE:
        raise NotStrictlySemistable("graded object needs a strictly semistable field")
    return f._graded


def s_equiv_rep(f: HiggsField) -> tuple[BiPoly, BiPoly]:
    """Canonical (A1, A2) representative of the S-equivalence class.

    Two strictly semistable fields on L+L are S-equivalent iff their graded
    diagonals agree up to a common sign; the sign is fixed by making the
    leading coefficient (graded-lex) of A1 + A2 positive, falling back to
    A1 then A2 when the sum vanishes.
    """
    g = graded_object(f)
    a1 = g.phi1.entry(0, 0)
    a2 = g.phi2.entry(0, 0)
    key = a1 + a2
    if not key:
        key = a1 if a1 else a2
    if key and key.leading_coefficient() < 0:
        a1, a2 = -a1, -a2
    return a1, a2


# ---------------------------------------------------------------------------
# normal forms and constructions
# ---------------------------------------------------------------------------

_F0_BUNDLE = DecomposableBundle(O(0, 0), O(-1, 0))
_PM1_BUNDLE = DecomposableBundle(O(1, 0), O(-1, 0))
TRIVIAL_EXTENSION_BUNDLE = DecomposableBundle(O(0, -1), O(-1, 1))  # u = v = 0 in `extension`
# the twist class d = L1 - L2 of each form's domain: one LineBundle per check
_F0_CLASS, _PM1_CLASS, _SPLIT_CLASS = O(1, 0), O(2, 0), O(1, -2)


def normal_form(f: HiggsField) -> tuple[HiggsField, PolyMat2 | None]:
    """(representative, Psi or None) by f's twist class d = L1 - L2: O(1,0) takes
    :func:`normal_form_F0`, O(2,0) :func:`normal_form_pm1` and O(1,-2)
    :func:`trivial_extension_normal_form`; any other class raises CoHiggsError."""
    d = _difference(f.bundle)
    if d == _F0_CLASS:
        return normal_form_F0(f)
    if d == _PM1_CLASS:
        return normal_form_pm1(f), None
    if d == _SPLIT_CLASS:
        return trivial_extension_normal_form(f), None
    raise CoHiggsError(f"no normal form implemented for bundle {f.bundle}")


def _check_normal_form_domain(f: HiggsField, d: LineBundle, other: int) -> None:
    """The preconditions the normal forms share: the class d, the slots, Phi_other = 0."""
    if _difference(f.bundle) != d:
        raise BundleMismatch(f"expected L1 - L2 = {d}, got {f.bundle}")
    if not validate_field(f):
        raise SlotViolation("field violates its shape slots")
    if not (f.phi1 if other == 1 else f.phi2).is_zero():
        raise NotInNormalFormDomain(f"normal form requires Phi_{other} = 0")


def normal_form_F0(f: HiggsField) -> tuple[HiggsField, PolyMat2]:
    """Conjugacy-class representative on d = O(1,0), as O+O(-1,0), with Phi_2 = 0.

    Writes C1 = alpha (z1 - p) (alpha = leading coefficient, required
    nonzero) and A1 = a20 z1^2 + a10 z1 + a00; Psi = (1 P; 0 Q) with
    Q = 1/alpha and P = -(a20 (z1 + p) + a10)/alpha conjugates Phi_1 to
    constant diagonal A1(p) and subdiagonal z1 - p.  Conjugation keeps the
    determinant, which fixes the last entry: as A1 - A1(p) = -alpha P (z1 - p)
    and C1 = alpha (z1 - p), it is B = alpha (B1 - P (A1 + A1(p))).  The
    representative (A1(p), B; z1 - p, -A1(p)) is a fixed point of the map.
    Returns it, on f's bundle, with Psi.
    """
    _check_normal_form_domain(f, _F0_CLASS, 2)
    c1 = f.phi1.entry(1, 0)
    alpha = c1.coeff(1, 0)
    if not alpha:
        raise LeadingCoefficientZero("C1 must have nonzero z1 coefficient")
    p = -c1.coeff(0, 0) / alpha
    a1 = f.phi1.entry(0, 0)
    a_at_p = a1.evaluate(p, 0)
    a20 = a1.coeff(2, 0)
    z1_minus_p = BiPoly({(1, 0): 1, (0, 0): -p})
    big_p = BiPoly({(1, 0): -a20 / alpha, (0, 0): -(a20 * p + a1.coeff(1, 0)) / alpha})
    psi = PolyMat2([[1, big_p], [0, 1 / alpha]])
    b = alpha * (f.phi1.entry(0, 1) - big_p * (a1 + a_at_p))
    rep = PolyMat2.trace_free(BiPoly.const(a_at_p), b, z1_minus_p)
    return HiggsField(f.bundle, rep, PolyMat2.zero()), psi


def normal_form_pm1(f: HiggsField) -> HiggsField:
    """Representative (0 B; 1 0) on d = O(2,0), as O(1,0)+O(-1,0), with Phi_2 = 0.

    With C1 a nonzero constant, conjugating by a rescale and a shear clears
    the diagonal and leaves B = C1*B1 + A1^2 = -det Phi_1: the representative
    is ``section_Q(det Phi_1, 1)`` on f's bundle, so equal determinants give
    equal representatives.
    """
    _check_normal_form_domain(f, _PM1_CLASS, 2)
    if not f.phi1.entry(1, 0):
        raise ZeroC1("C1 vanishes identically")
    return HiggsField(f.bundle, PolyMat2([[0, -det2(f.phi1)], [1, 0]]), PolyMat2.zero())


def trivial_extension_normal_form(f: HiggsField) -> HiggsField:
    """Make B2 monic of the form z1 - p on d = O(1,-2), as the split O(0,-1)+O(-1,1).

    Requires Phi_1 = 0 and B2 with nonzero z1 coefficient b; conjugation by
    diag(1, b) gives (A2, B2/b; b C2, -A2), preserving A2 and the determinant.
    """
    _check_normal_form_domain(f, _SPLIT_CLASS, 1)
    a2, b2, c2 = (f.phi2.entry(i, j) for i, j in ((0, 0), (0, 1), (1, 0)))
    b = b2.coeff(1, 0)
    if not b:
        raise LeadingCoefficientZero("B2 must have nonzero z1 coefficient")
    return HiggsField(f.bundle, PolyMat2.zero(), PolyMat2.trace_free(a2, b2 * (1 / b), c2 * b))


def _check_axis(axis: int) -> None:
    if type(axis) is not int:  # 1.0 == 1 and True == 1 pass the range test
        raise TypeError(f"axis must be an int, not {type(axis).__name__}")
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")


def _on_axis(bundle: DecomposableBundle, mat: PolyMat2, axis: int) -> HiggsField:
    """mat as Phi_axis with the other component zero.  The bundle is written
    for axis 1; axis 2 takes its mirror O(b,a)+O(d,c) of O(a,b)+O(c,d)."""
    if axis == 1:
        return HiggsField(bundle, mat, PolyMat2.zero())
    l1, l2 = bundle.L1, bundle.L2
    return HiggsField(DecomposableBundle(O(l1.b, l1.a), O(l2.b, l2.a)), PolyMat2.zero(), mat)


def section_Q(rho: BiPoly, axis: int) -> HiggsField:
    """The stable field (0 -rho; 1 0) on O(1,0)+O(-1,0) (axis 1) or
    O(0,1)+O(0,-1) (axis 2); det Phi_axis = rho, so this right-inverts the
    corresponding component of the Hitchin map."""
    _check_axis(axis)
    _check_slot(rho, _RHO_SLOTS["rho1" if axis == 1 else "rho2"], "rho")
    return _on_axis(_PM1_BUNDLE, PolyMat2([[0, -rho], [1, 0]]), axis)


@dataclass(frozen=True)
class PullbackField:
    """A field pulled back from one projective line, with its spectral datum."""

    field: HiggsField
    rho: BiPoly
    axis: int


def pullback_from_line(a: BiPoly, b: BiPoly, c: BiPoly, axis: int) -> PullbackField:
    """Pull back a stable degree -1 field from a projective line factor.

    a, b, c are univariate in the axis variable of degrees <= 2, 3, 1; the
    result lives on O+O(-1,0) (axis 1) or O+O(0,-1) (axis 2) with the other
    component zero.  rho = det Phi = -(a^2 + b c), so the spectral curve
    eta^2 = -rho(p) is eta^2 = a(p)^2 + b(p)c(p).
    """
    _check_axis(axis)
    for name, poly, slot in zip("abc", (a, b, c), _PULLBACK_SLOTS[axis]):
        _check_slot(poly, slot, name)
    if not c:
        raise ZeroC("the lower-left entry must be nonzero for stability")
    mat = PolyMat2.trace_free(a, b, c)
    return PullbackField(_on_axis(_F0_BUNDLE, mat, axis), det2(mat), axis)
