"""The c1 = -F, c2 = 1 moduli family.

Every stable pair with these Chern classes lives on an extension of
O(-1,1) by O(0,-1).  A non-trivial extension class is a pair (u, v), with
transition matrices over the standard four-chart cover

    g12 = (1/z2   u*z1 + v)        g13 = (1   0)
          (0      z2      )              (0   1/z1)

on V1 & V2 and V1 & V3.  The trace-free endomorphism bundles twisted by
O(2,0) and O(0,2) inherit 3x3 transitions on the coefficient vector
(A, B, C) of (A B; C -A).  They are written here in closed form in u, v
and the twist, as the Laurent terms of each column with int factors (V1 -> V2
scaled by d^2, d = lcm(den u, den v), which keeps every form's zero set).  The
conjugation ``end_rep3`` in ``tests/oracles.py`` is their reference.

A chart-V1 section is global iff its images in charts V2 and V3 have no
pole.  ``_irregular_rows`` states that once, as sparse linear forms in the
chart-V1 coefficients: ``glue_check`` evaluates them on one section over one
denominator; the ansatz ranks them, with one singleton pass per twist and shape.

The global Higgs-field components then come in closed form in q = u*z1 + v,
written on the integers U, V, d with u = U/d, v = V/d: C1 carries six free
coefficients which determine A1 and B1, and (A2, B2) carry five.  The closed
forms and the ansatz must (and do) agree on the dimension counts (6, 5, 11).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Union

from .cohomology import LineBundle
from .errors import InconsistentPoint, TrivialExtension
from .exactalg import BiPoly, PolyMat2, _as_rat, _normalized, _over_lcm
# the split bundle (u = v = 0) and its normal form, defined with the other forms
from .higgs import TRIVIAL_EXTENSION_BUNDLE, commute, trivial_extension_normal_form
from .linalg import _clear_singletons, rank

TWIST_20, TWIST_02 = LineBundle(2, 0), LineBundle(0, 2)  # the summands of T


@dataclass(frozen=True)
class ExtParams:
    """Extension class (u*z1 + v)/z2; (0,0) is the split bundle.

    The private ``cached_property`` values are derived on first use and kept
    in the instance ``__dict__``, not as dataclass fields, so ``==``, ``hash``
    and ``repr`` see u and v alone; a computation that raises keeps nothing.
    """

    u: Fraction
    v: Fraction

    def is_trivial(self) -> bool:
        return not (self.u or self.v)

    @cached_property
    def _ints(self) -> tuple[int, int, int]:
        """(U, V, d) with u = U/d, v = V/d and d = lcm(den u, den v)."""
        u, v = _as_rat(self.u), _as_rat(self.v)
        d = math.lcm(u.denominator, v.denominator)
        return u.numerator * (d // u.denominator), v.numerator * (d // v.denominator), d

    @cached_property
    def _v2_columns(self) -> dict[int, tuple[Column, Column, Column]]:
        """What :func:`_v1_to_v2` returned, by twist exponent b."""
        return {}


@dataclass(frozen=True)
class Phi1Params:
    """The six free coefficients of C1 (they determine A1 and B1)."""

    c00: Fraction = Fraction(0)
    c01: Fraction = Fraction(0)
    c02: Fraction = Fraction(0)
    c10: Fraction = Fraction(0)
    c11: Fraction = Fraction(0)
    c12: Fraction = Fraction(0)

    def is_zero(self) -> bool:
        return not any((self.c00, self.c01, self.c02, self.c10, self.c11, self.c12))


@dataclass(frozen=True)
class Phi2Params:
    """The five free coefficients of (A2, B2)."""

    a00: Fraction = Fraction(0)
    a01: Fraction = Fraction(0)
    a02: Fraction = Fraction(0)
    b00: Fraction = Fraction(0)
    b10: Fraction = Fraction(0)

    def is_zero(self) -> bool:
        return not any((self.a00, self.a01, self.a02, self.b00, self.b10))


@dataclass(frozen=True)
class TrivialFieldData:
    """Normal-form data on the split bundle: B2 = z1 - p and the three A2 coefficients."""

    p: Fraction
    w: tuple[Fraction, Fraction, Fraction]


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------


Coefficient = tuple[int, int, int]  # (comp, i, j): z1^i z2^j in component comp of (A, B, C)

# Column comp of a 3x3 transition on (A, B, C), times a positive constant: an int
# (comp_out, di, dj, c) per nonzero term c z1^di z2^dj of its entry in row comp_out.
Column = tuple[tuple[int, int, int, int], ...]


def _v1_to_v2(e: ExtParams, twist: LineBundle) -> tuple[Column, Column, Column]:
    """Columns of d^2 times the V1 -> V2 transition, d = lcm(den u, den v), so
    every factor is an int; with q = u z1 + v and b = twist.b the transition is

        ( z2^-b            0           -q z2^(-1-b) )
        ( 2 q z2^(1-b)     z2^(2-b)    -q^2 z2^-b   )
        ( 0                0           z2^(-2-b)    )
    """
    b, memo = twist.b, e._v2_columns
    if b in memo:
        return memo[b]
    U, V, d = e._ints
    columns = (
        ((0, 0, -b, d * d), (1, 1, 1 - b, 2 * U * d), (1, 0, 1 - b, 2 * V * d)),
        ((1, 0, 2 - b, d * d),),
        ((0, 1, -1 - b, -U * d), (0, 0, -1 - b, -V * d),
         (1, 2, -b, -U * U), (1, 1, -b, -2 * U * V), (1, 0, -b, -V * V),
         (2, 0, -2 - b, d * d)),
    )
    memo[b] = tuple(tuple(t for t in column if t[3]) for column in columns)
    return memo[b]


def _v1_to_v3(twist: LineBundle) -> tuple[Column, Column, Column]:
    """Columns of the V1 -> V3 transition diag(z1^-a, z1^(-1-a), z1^(1-a)), a = twist.a.

    It is also the V2 -> V4 transition: the z1 involution inside the
    w2 = 1/z2 charts has the same matrix."""
    a = twist.a
    return ((0, -a, 0, 1),), ((1, -1 - a, 0, 1),), ((2, 1 - a, 0, 1),)


def _irregular_rows(v2: tuple[Column, ...], twist: LineBundle, support: list[Coefficient]) -> dict:
    """The image terms that charts V2 and V3 forbid, as linear forms in chart-V1 coefficients.

    Maps ``(chart, comp_out, i, j)`` (chart 0 is V2 with coordinates z1, 1/z2;
    1 is V3 with 1/z1, z2) to ``{coefficient in support: factor}``, for each
    image term with a positive z2 exponent in V2 (columns ``v2``) or a positive
    z1 exponent in V3.  A section on ``support`` is global iff all forms vanish.
    """
    rows: dict[tuple[int, int, int, int], dict[Coefficient, int]] = {}
    for chart, (columns, axis) in enumerate(((v2, 1), (_v1_to_v3(twist), 0))):
        for key in support:
            comp, i, j = key
            # a column's terms in one row have distinct exponents, so each cell is set once
            for comp_out, di, dj, c in columns[comp]:
                out = (di + i, dj + j)
                if out[axis] > 0:
                    rows.setdefault((chart, comp_out, *out), {})[key] = c
    return rows


# ---------------------------------------------------------------------------
# closed-form sections
# ---------------------------------------------------------------------------

def build_phi1(e: ExtParams, p: Phi1Params) -> PolyMat2:
    """O(2,0)-component on chart V1 from the six free C1 coefficients.

    C1 = c00 + c01 z2 + c02 z2^2 + c10 z1 + c11 z1 z2 + c12 z1 z2^2 fixes the
    A1 and B1 that make the section glue across charts: with q = u z1 + v
    and r = c02 + c12 z1,

        A1 = q ((c01 + c11 z1)/2 + r z2),    B1 = -q^2 r.

    B1 goes over d^2 Dr, A1 over 2 d Da and C1 over D1, where Dr | Da | D1 are the
    lcms of the denominators of (c02, c12), of (c01, c11, c02, c12) and of all six.
    """
    U, V, d = e._ints
    c = map(_as_rat, (p.c00, p.c01, p.c02, p.c10, p.c11, p.c12))
    (n00, m00), (n01, m01), (n02, m02), (n10, m10), (n11, m11), (n12, m12) = (
        (x.numerator, x.denominator) for x in c)
    dr = math.lcm(m02, m12)
    da = math.lcm(dr, m01, m11)
    d1 = math.lcm(da, m00, m10)
    r02, r12, uu, uv, vv = n02 * (dr // m02), n12 * (dr // m12), U * U, 2 * U * V, V * V
    a01, a11, k, s, t = n01 * (da // m01), n11 * (da // m11), 2 * (da // dr), d1 // da, d1 // dr
    a1 = _normalized({(0, 0): V * a01, (1, 0): U * a01 + V * a11, (2, 0): U * a11,
                      (0, 1): k * V * r02, (1, 1): k * (U * r02 + V * r12), (2, 1): k * U * r12},
                     2 * d * da)
    b1 = _normalized({(0, 0): -vv * r02, (1, 0): -vv * r12 - uv * r02,
                      (2, 0): -uu * r02 - uv * r12, (3, 0): -uu * r12}, d * d * dr)
    c1 = _normalized({(0, 0): n00 * (d1 // m00), (0, 1): a01 * s, (0, 2): r02 * t,
                      (1, 0): n10 * (d1 // m10), (1, 1): a11 * s, (1, 2): r12 * t}, d1)
    return PolyMat2.trace_free(a1, b1, c1)


def build_phi2(e: ExtParams, p: Phi2Params) -> PolyMat2:
    """O(0,2)-component on chart V1: upper triangular with A2 = a00 + a01 z2 + a02 z2^2
    and B2 = b00 + b10 z1 - 2 a02 q z2, q = u z1 + v, over d lcm(den a02, b00, b10)."""
    U, V, d = e._ints
    (n00, m00), (n01, m01), (n02, m02), (k00, l00), (k10, l10) = (
        (x.numerator, x.denominator) for x in map(_as_rat, (p.a00, p.a01, p.a02, p.b00, p.b10)))
    da, db = math.lcm(m00, m01, m02), math.lcm(m02, l00, l10)
    a2 = _normalized({(0, 0): n00 * (da // m00), (0, 1): n01 * (da // m01),
                      (0, 2): n02 * (da // m02)}, da)
    w = -2 * n02 * (db // m02)
    b2 = _normalized({(0, 0): d * k00 * (db // l00), (1, 0): d * k10 * (db // l10),
                      (0, 1): V * w, (1, 1): U * w}, d * db)
    return PolyMat2.trace_free(a2, b2, BiPoly.zero())


def glue_check(e: ExtParams, phi_v1: PolyMat2, twist: LineBundle) -> bool:
    """Does the chart-V1 matrix extend to a global twisted endomorphism?

    True iff every form of ``_irregular_rows`` vanishes on the coefficients
    of (A, B, C), that is iff the images in charts V2 and V3 are polynomial
    there.  Regularity on V4 then follows from the cocycle structure (the
    complement of the three charts has codimension two).
    """
    if not phi_v1.is_trace_free():
        raise ValueError("section must be trace-free")
    # int coefficients for int forms
    entries = _over_lcm(phi_v1.entry(0, 0), phi_v1.entry(0, 1), phi_v1.entry(1, 0))
    coeffs = {(comp, i, j): c for comp, entry in enumerate(entries) for (i, j), c in entry.items()}
    forms = _irregular_rows(_v1_to_v2(e, twist), twist, list(coeffs))
    return all(not sum(c * coeffs[k] for k, c in form.items()) for form in forms.values())


# ---------------------------------------------------------------------------
# independent dimension count
# ---------------------------------------------------------------------------

_ANSATZ_BOX = 4  # generous; global sections are supported in degrees <= (3, 2)
_ANSATZ_UNKNOWNS = [(comp, i, j) for comp in range(3) for i in range(_ANSATZ_BOX + 1)
                    for j in range(_ANSATZ_BOX + 1)]


def end0T_dimension(e: ExtParams) -> tuple[int, int, int]:
    """(h0 of End0 E(2,0), h0 of End0 E(0,2), their sum) by generic ansatz.

    Puts unknown coefficients on every monomial of the box, imposes chart
    regularity as exact linear constraints, and returns kernel dimensions.
    Must equal (6, 5, 11) for every non-trivial extension class.
    """
    if e.is_trivial():
        raise TrivialExtension("dimension count applies to non-trivial extensions")
    dim20, dim02 = (_ansatz_kernel_dim(e, twist) for twist in (TWIST_20, TWIST_02))
    return dim20, dim02, dim20 + dim02


@cache
def _ansatz_template(twist: LineBundle, shape: tuple[Column, ...]) -> tuple[int, list[dict]]:
    """The singleton pass over the ansatz forms of each class whose V1 -> V2
    columns have this shape, its factors replaced by their index n in the
    column (V3's forms are one-entry rows).  Shared, so never edited in place."""
    return _clear_singletons(list(_irregular_rows(shape, twist, _ANSATZ_UNKNOWNS).values()))


def _ansatz_kernel_dim(e: ExtParams, twist: LineBundle) -> int:
    v2 = _v1_to_v2(e, twist)
    shape = tuple(tuple((*t[:3], n) for n, t in enumerate(column)) for column in v2)
    count, residue = _ansatz_template(twist, shape)
    rows = [{k: v2[k[0]][n][3] for k, n in row.items()} for row in residue]
    return len(_ANSATZ_UNKNOWNS) - count - rank(rows)


# ---------------------------------------------------------------------------
# dichotomy, strata, weak isomorphism
# ---------------------------------------------------------------------------


class Dichotomy(enum.Enum):
    PHI1_ONLY = "Phi1Only"
    PHI2_ONLY = "Phi2Only"
    ZERO = "Zero"
    NOT_INTEGRABLE = "NotIntegrable"


def dichotomy_check(e: ExtParams, p1: Phi1Params, p2: Phi2Params) -> Dichotomy:
    """Integrability dichotomy on a non-trivial extension.

    An integrable field has C1 = 0 (then Phi = Phi_2) or C1 != 0 (then
    Phi_2 = 0); assembling both components with nonzero parameters is never
    integrable.  Both components are trace-free, so :func:`higgs.commute`
    decides integrability.
    """
    if e.is_trivial():
        raise TrivialExtension("dichotomy applies to non-trivial extensions")
    m1 = build_phi1(e, p1)
    m2 = build_phi2(e, p2)
    if not commute(m1, m2):
        return Dichotomy.NOT_INTEGRABLE
    if m1.is_zero() and m2.is_zero():
        return Dichotomy.ZERO
    if not m1.entry(1, 0):
        return Dichotomy.PHI2_ONLY
    assert m2.is_zero(), "integrable with C1 != 0 forces Phi_2 = 0"
    return Dichotomy.PHI1_ONLY


class Stratum(enum.Enum):
    S0 = "S0"
    S1 = "S1"
    S2 = "S2"


PointParams = Union[Phi1Params, Phi2Params, TrivialFieldData]


@dataclass(frozen=True)
class ModuliPoint:
    ext: ExtParams
    stratum: Stratum
    params: PointParams


def stratum_classify(m: ModuliPoint) -> ModuliPoint:
    """Validate the stratum tag against the data and normalize the extension class.

    The scaling action of nonzero scalars (weight one on (u, v)) is used to
    make the first nonzero coordinate 1; stratum S0 is exactly the split
    locus and carries trivial-extension field data instead.
    """
    u, v = _as_rat(m.ext.u), _as_rat(m.ext.v)
    if m.stratum is Stratum.S0:
        if not (m.ext.is_trivial() and isinstance(m.params, TrivialFieldData)):
            raise InconsistentPoint("S0 needs a trivial extension with split field data")
        for x in (m.params.p, *m.params.w):
            _as_rat(x)  # a float raises TypeError; the values stay as they are
        return m
    if m.ext.is_trivial():
        raise InconsistentPoint(f"{m.stratum.value} needs a non-trivial extension class")
    expected = Phi1Params if m.stratum is Stratum.S1 else Phi2Params
    if not isinstance(m.params, expected):
        raise InconsistentPoint(
            f"{m.stratum.value} carries {expected.__name__}, got {type(m.params).__name__}"
        )
    for x in vars(m.params).values():
        _as_rat(x)
    scale = u if u else v
    return ModuliPoint(ExtParams(u / scale, v / scale), m.stratum, m.params)


def weak_iso(e1: ExtParams, e2: ExtParams) -> bool:
    """Equality of extension classes up to scalar: [u1:v1] = [u2:v2]."""
    u1, v1, u2, v2 = map(_as_rat, (e1.u, e1.v, e2.u, e2.v))
    if e1.is_trivial() or e2.is_trivial():
        raise TrivialExtension("weak isomorphism compares non-trivial classes")
    return u1 * v2 == u2 * v1
