"""Independent oracles and random generators for the test suite.

Everything here deliberately avoids the library code paths it is used to
check: the eigenvector search enumerates roots over explicit quadratic
extensions, conjugation results are verified through the cross-multiplied
identity R * Psi = Psi * Phi, and matrix products are spelled out by hand.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from cohiggs import _laurent as lau
from cohiggs.cohomology import LineBundle
from cohiggs._univariate import shifted_rows
from cohiggs.errors import BundleMismatch, NotUnivariate, SlotViolation
from cohiggs.exactalg import BiPoly, PolyMat2, RatFn, Z1, Z2, _over_lcm, commutator2, conjugate2
from cohiggs.higgs import (
    DecomposableBundle,
    HiggsField,
    PullbackField,
    StabilityClass,
    _coefficient_matrices,
    _eigen_quadratics,
    _rational_common_eigenvector,
    field,
    higgs_shape,
    stability_classify,
    validate_field,
)
from cohiggs.linalg import rank
from cohiggs.spectral import hitchin_map

# ---------------------------------------------------------------------------
# quadratic-extension arithmetic: numbers a + b*sqrt(D)
# ---------------------------------------------------------------------------

QE = tuple[Fraction, Fraction]


def qe(a, b=0) -> QE:
    return (Fraction(a), Fraction(b))


def qe_add(x: QE, y: QE) -> QE:
    return (x[0] + y[0], x[1] + y[1])


def qe_sub(x: QE, y: QE) -> QE:
    return (x[0] - y[0], x[1] - y[1])


def qe_mul(x: QE, y: QE, d: Fraction) -> QE:
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def qe_is_zero(x: QE) -> bool:
    return not (x[0] or x[1])


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


def _sqrt_fraction(q: Fraction) -> Fraction:
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def _eigen_candidates(mat) -> list[tuple[QE, QE, Fraction]]:
    """Projective eigenvector candidates (x, y, D) of one trace-free matrix.

    v = (x, y) is an eigenvector of (a b; c -a) iff
    (a x + b y) y = (c x - a y) x; setting y = 1 this is the quadratic
    -c t^2 + 2a t + b = 0, plus the direction (1, 0) exactly when c = 0.
    """
    (a, b), (c, _) = mat
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    out: list[tuple[QE, QE, Fraction]] = []
    if c == 0:
        out.append((qe(1), qe(0), Fraction(0)))
        if a != 0:
            out.append((qe(Fraction(-b, 2 * a)), qe(1), Fraction(0)))
        return out
    disc = a * a + b * c
    if _is_square(disc):
        root = _sqrt_fraction(disc)
        for s in ((a + root) / c, (a - root) / c):
            out.append((qe(s), qe(1), Fraction(0)))
    else:
        out.append(((a / c, Fraction(1) / c), qe(1), disc))
        out.append(((a / c, Fraction(-1) / c), qe(1), disc))
    return out


def _is_eigenvector(mat, x: QE, y: QE, d: Fraction) -> bool:
    (a, b), (c, _) = mat
    a, b, c = qe(a), qe(b), qe(c)
    lhs = qe_mul(qe_add(qe_mul(a, x, d), qe_mul(b, y, d)), y, d)
    rhs = qe_mul(qe_sub(qe_mul(c, x, d), qe_mul(a, y, d)), x, d)
    return qe_is_zero(qe_sub(lhs, rhs))


def brute_force_common_eigenvector(mats) -> bool:
    """Root-substitution oracle for the common-eigenvector question.

    Enumerates the projective eigenvector directions of the first nonzero
    matrix over the rationals or the quadratic extension of its
    discriminant, and substitutes each into the eigenvector condition of
    the remaining matrices.
    """
    live = []
    for m in mats:
        rows = [[Fraction(x) for x in row] for row in m]
        if any(any(row) for row in rows):
            live.append(rows)
    if not live:
        return True
    for x, y, d in _eigen_candidates(live[0]):
        if all(_is_eigenvector(m, x, y, d) for m in live[1:]):
            return True
    return False


def share_a_root_by_sylvester(quads) -> bool:
    """A common projective root of the binary quadratics (q20, q11, q02), by
    the rank rule ``higgs._share_a_root`` used before its resultant: the rows
    y*q and x*q span at most 3 of the 4 dimensions of binary cubics, since a
    common linear factor divides every row and two quadratics without one
    already span all cubics (their Sylvester matrix is nonsingular)."""
    rows = [r for q20, q11, q02 in quads for r in shifted_rows({2: q20, 1: q11, 0: q02}, 2)]
    return rank(rows) <= 3


def quadratic_families(rng: random.Random, count: int):
    """Families of 1-6 integer triples (q20, q11, q02) at heights 3, 10**6
    and 10**30, some with zero members, in turn: multiples of one quadratic,
    a planted common linear factor (y, the root [1:0], or a random one),
    members of the pencil of two random quadratics, and random triples."""
    for k in range(count):
        h = rng.choice([3, 10**6, 10**30])

        def r():
            return rng.randint(-h, h)

        def small():
            return rng.randint(-3, 3)

        size, kind = rng.randint(1, 6), k % 4
        if kind == 0:
            p = (r(), r(), r())
            fam = [tuple(s * x for x in p) for s in (small() for _ in range(size))]
        elif kind == 1:
            l0, l1 = (0, 1) if rng.random() < 0.25 else (r(), r())
            fam = [(l0 * m0, l0 * m1 + l1 * m0, l1 * m1)
                   for m0, m1 in ((r(), r()) for _ in range(size))]
        elif kind == 2:
            p, q = (r(), r(), r()), (r(), r(), r())
            fam = [tuple(s * x + t * y for x, y in zip(p, q))
                   for s, t in ((small(), small()) for _ in range(size))]
        else:
            fam = [(r(), r(), r()) for _ in range(size)]
        if rng.random() < 0.2:
            fam.insert(rng.randint(0, len(fam)), (0, 0, 0))
        yield fam


def coefficient_matrices_by_coeff(f: HiggsField) -> list[list[list[Fraction]]]:
    """The six constant matrices of a field on L+L as ``Fraction`` rows, read
    coefficient by coefficient: M0, M1, M2 (z1-coefficients of Phi_1), then
    N0, N1, N2 (z2-coefficients of Phi_2).  ``higgs._coefficient_matrices``
    reads the same six on integers, each times a positive factor."""
    terms = [(f.phi1, (k, 0)) for k in range(3)] + [(f.phi2, (0, k)) for k in range(3)]
    return [[[m.entry(i, j).coeff(*t) for j in range(2)] for i in range(2)] for m, t in terms]


def rational_common_eigenvector_by_fractions(mats):
    """``higgs._rational_common_eigenvector`` in ``Fraction`` arithmetic, on
    the quadratics (c, -2a, -b) of the matrices (a b; c -a): [1:0] when every
    quadratic vanishes there, else the smaller rational root x of the first
    quadratic with an x^2 term that all of them share, as (x, 1); None when
    there is none."""
    quads = [(c, -2 * a, -b) for (a, b), (c, _) in mats if a or b or c]
    q = next((q for q in quads if q[0]), None)
    if q is None:
        return (Fraction(1), Fraction(0))
    q20, q11, q02 = q
    disc = q11 * q11 - 4 * q20 * q02
    if not _is_square(disc):
        return None
    root = _sqrt_fraction(disc)
    xs = ((-q11 - root) / (2 * q20), (-q11 + root) / (2 * q20))
    common = [x for x in xs if all(not (a * x + b) * x + c for a, b, c in quads)]
    return (min(common), Fraction(1)) if common else None


# ---------------------------------------------------------------------------
# matrix oracles
# ---------------------------------------------------------------------------


def mat_mul_oracle(x: PolyMat2, y: PolyMat2) -> list[list]:
    """2x2 product written out by hand (independent of exactalg's own product)."""
    e = lambda m, i, j: m.entry(i, j)
    return [
        [
            e(x, 0, 0) * e(y, 0, 0) + e(x, 0, 1) * e(y, 1, 0),
            e(x, 0, 0) * e(y, 0, 1) + e(x, 0, 1) * e(y, 1, 1),
        ],
        [
            e(x, 1, 0) * e(y, 0, 0) + e(x, 1, 1) * e(y, 1, 0),
            e(x, 1, 0) * e(y, 0, 1) + e(x, 1, 1) * e(y, 1, 1),
        ],
    ]


def _num_den(x) -> tuple[BiPoly, BiPoly]:
    """(numerator, denominator) of a RatFn or BiPoly matrix entry."""
    return (x.num, x.den) if isinstance(x, RatFn) else (x, BiPoly.const(1))


def check_conjugation(result: PolyMat2, psi: PolyMat2, phi: PolyMat2) -> bool:
    """R = Psi Phi Psi^{-1} without inverting: R Psi == Psi Phi entrywise.

    Row i of R is cleared of its two denominators d0 d1 first, so the check
    uses polynomial arithmetic only.
    """
    rhs = mat_mul_oracle(psi, phi)
    for i in range(2):
        (n0, d0), (n1, d1) = _num_den(result.entry(i, 0)), _num_den(result.entry(i, 1))
        for j in range(2):
            if n0 * psi.entry(0, j) * d1 + n1 * psi.entry(1, j) * d0 != rhs[i][j] * d0 * d1:
                return False
    return True


def check_trace_det(result: PolyMat2, trace: BiPoly, det: BiPoly) -> bool:
    """tr R == trace and det R == det for a matrix R of RatFn entries,
    both cross-multiplied by the entries' denominators."""
    (n00, d00), (n01, d01), (n10, d10), (n11, d11) = (
        _num_den(result.entry(i, j)) for i in range(2) for j in range(2)
    )
    return (
        n00 * d11 + n11 * d00 == trace * d00 * d11
        and n00 * n11 * d01 * d10 - n01 * n10 * d00 * d11 == det * d00 * d11 * d01 * d10
    )


def mat_scale(m: PolyMat2, c) -> PolyMat2:
    """Every entry of m times the scalar c."""
    return PolyMat2([[m.entry(i, j) * c for j in range(2)] for i in range(2)])


def mat_add(x: PolyMat2, y: PolyMat2, sign: int = 1) -> PolyMat2:
    """x + sign * y, entry by entry."""
    return PolyMat2([[x.entry(i, j) + sign * y.entry(i, j) for j in range(2)] for i in range(2)])


def constant_rows(m: PolyMat2) -> list[list[Fraction]]:
    """The rows of a constant matrix, as ``higgs.eigen_quadratic`` takes them."""
    return [[m.entry(i, j).coeff(0, 0) for j in range(2)] for i in range(2)]


# ---------------------------------------------------------------------------
# Higgs-field identities that only the tests use
# ---------------------------------------------------------------------------


def trace_free_part(phi1_raw: PolyMat2, phi2_raw: PolyMat2) -> tuple[PolyMat2, PolyMat2]:
    """Subtract (trace/2) * Id from each component."""

    def centre(m: PolyMat2) -> PolyMat2:
        half_tr = (m.entry(0, 0) + m.entry(1, 1)) * Fraction(1, 2)
        return PolyMat2(
            [
                [m.entry(0, 0) - half_tr, m.entry(0, 1)],
                [m.entry(1, 0), m.entry(1, 1) - half_tr],
            ]
        )

    return centre(phi1_raw), centre(phi2_raw)


def wedge(psi: HiggsField, phi: HiggsField) -> PolyMat2:
    """[Psi_1, Phi_2] - [Psi_2, Phi_1]: the d/dz1 ^ d/dz2 coefficient of Psi ^ Phi."""
    if psi.bundle != phi.bundle:
        raise BundleMismatch(f"{psi.bundle} vs {phi.bundle}")
    return mat_add(commutator2(psi.phi1, phi.phi2), commutator2(psi.phi2, phi.phi1), -1)


def membership(pb: PullbackField, p: Fraction, eta: Fraction) -> bool:
    """Does (p, eta) lie on the spectral curve eta^2 = -rho(p) of a pulled-back field?"""
    value = pb.rho.evaluate(p, 0) if pb.axis == 1 else pb.rho.evaluate(0, p)
    return Fraction(eta) ** 2 + value == 0


def product_case_verify(a: int, b: int, m: int, f: HiggsField) -> bool:
    """Verification half of the product-case correspondence.

    For a validated field on O(a,m)+O(b,m): true iff Phi_2 = 0 and the
    Hitchin image has the form (rho1, 0, 0).
    """
    expected = DecomposableBundle(LineBundle(a, m), LineBundle(b, m))
    if f.bundle != expected:
        raise BundleMismatch(f"expected {expected}, got {f.bundle}")
    if not validate_field(f):
        raise SlotViolation("field violates its shape slots")
    if not f.phi2.is_zero():
        return False
    s = hitchin_map(f)
    return not s.rho12 and not s.rho2


# ---------------------------------------------------------------------------
# schoolbook polynomial kernels on {(i, j): Fraction} dicts
# ---------------------------------------------------------------------------

PolyDict = dict[tuple[int, int], Fraction]


def poly_dict(p: BiPoly) -> PolyDict:
    """The nonzero coefficients of p, read through the public ``terms``."""
    return {(i, j): c for i, j, c in p.terms()}


def add_oracle(a: PolyDict, b: PolyDict) -> PolyDict:
    res = dict(a)
    for t, c in b.items():
        s = res.get(t, Fraction(0)) + c
        if s:
            res[t] = s
        else:
            res.pop(t, None)
    return res


def mul_oracle(a: PolyDict, b: PolyDict) -> PolyDict:
    res: PolyDict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            t = (i1 + i2, j1 + j2)
            s = res.get(t, Fraction(0)) + c1 * c2
            if s:
                res[t] = s
            else:
                res.pop(t, None)
    return res


# ---------------------------------------------------------------------------
# the reduced class by closed forms
# ---------------------------------------------------------------------------


def reduced_class(alpha: int, beta: int, gamma: int) -> tuple[str, tuple[int, int], int]:
    """(tag value, twist (x, y), gamma') from the closed forms, not the
    parity rule: O(x, y) is the twist with alpha + 2y and beta + 2x in
    {0, -1}, so y = floor(-alpha/2) and x = floor(-beta/2); gamma' is
    gamma - alpha*beta/2, or gamma + (1 - alpha*beta)/2 when both are odd."""
    tag = {(0, 0): "Zero", (0, 1): "MinusF", (1, 0): "MinusC0", (1, 1): "MinusC0MinusF"}
    odd = (alpha % 2, beta % 2)
    shift = (1 - alpha * beta) // 2 if odd == (1, 1) else -(alpha * beta // 2)
    return tag[odd], ((-beta) // 2, (-alpha) // 2), gamma + shift


# ---------------------------------------------------------------------------
# reference elimination (the dense loop, for differential tests)
# ---------------------------------------------------------------------------


def dense_rank(rows: list[list[Fraction]]) -> int:
    """The dense forward elimination that ``linalg.rank`` replaced, kept as
    its differential reference: same first-nonzero pivots, every row update
    recomputed across the full width.  Entries are taken as ``Fraction``s,
    so ``int`` rows are eliminated exactly, never in floats."""
    m = [[Fraction(a) for a in r] for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# exact linear-algebra oracles (no elimination anywhere)
# ---------------------------------------------------------------------------


def cofactor_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by Laplace expansion along the first row (1 for 0 x 0)."""
    if not m:
        return Fraction(1)
    return sum(
        (
            (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
            for j in range(len(m))
            if m[0][j]
        ),
        Fraction(0),
    )


def minor_rank(rows: list[list[Fraction]]) -> int:
    """The largest k such that some k x k minor is nonzero."""
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(ncols), k):
                if cofactor_det([[rows[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def sylvester_matrix(f: list[Fraction], g: list[Fraction]) -> list[list[Fraction]]:
    """Sylvester matrix of ascending coefficient lists f (degree m) and g
    (degree n): n shifted rows of f, then m shifted rows of g, leading
    coefficients first."""
    m, n = len(f) - 1, len(g) - 1
    out = [[Fraction(0)] * (m + n) for _ in range(m + n)]
    for k in range(n):
        for i, c in enumerate(f):
            out[k][k + m - i] = c
    for k in range(m):
        for i, c in enumerate(g):
            out[n + k][k + n - i] = c
    return out


def poly_from_roots(lead: Fraction, roots: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of lead * prod (x - r)."""
    p = [Fraction(lead)]
    for r in roots:
        p = [a - r * b for a, b in zip([Fraction(0)] + p, p + [Fraction(0)])]
    return p


def big_rat(rng: random.Random, digits: int) -> Fraction:
    """A fraction whose numerator and denominator have about this many digits."""
    num, den = (rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2))
    return Fraction(rng.choice([-1, 1]) * num, den)


def planted_quartics(seed: int, count: int):
    """Ascending coefficients of quartics with 200-digit roots and leading
    coefficient, with the rank 7 - deg gcd(f, f') their Sylvester rows must
    have: 7 for four distinct roots, 6 for one double root, 5 for two
    double roots or a triple root, 4 for a fourfold root."""
    rng = random.Random(seed)
    for _ in range(count):
        r, s, t, u, lead = (big_rat(rng, 200) for _ in range(5))
        for roots, expected in (([r, s, t, u], 7), ([r, r, s, t], 6), ([r, r, s, s], 5),
                                ([r, r, r, s], 5), ([r, r, r, r], 4)):
            yield poly_from_roots(lead, roots), expected


def quartic_sylvester_rows(f: dict[int, Fraction | int]) -> list[dict[int, Fraction | int]]:
    """The Sylvester rows of f ({degree: coefficient}, degree d) and f':
    d - 1 shifts of f over d shifts of f', of full rank 2d - 1 exactly when
    f and f' share no root."""
    d = max(f)
    df = {i - 1: i * c for i, c in f.items() if i}
    return shifted_rows(f, d - 1) + shifted_rows(df, d)


def quartic_numerators(rho: BiPoly) -> dict[int, int]:
    """rho's integer numerators over its denominator, as {degree: coefficient}
    of the one variable rho is in."""
    (num,) = _over_lcm(rho)
    k = next((k for k in (0, 1) if not any(t[1 - k] for t in num)), None)
    if k is None:
        raise NotUnivariate("genericity test needs a univariate quartic")
    f = {t[k]: c for t, c in num.items()}
    if max(f, default=-1) > 4:
        raise SlotViolation("degree exceeds the quartic slot")
    return f


def is_generic_quartic_by_sylvester(rho: BiPoly) -> bool:
    """Four distinct projective roots, by the rank rule that
    ``spectral.is_generic_quartic`` used before its invariants: a degree
    deficit counts as multiplicity at infinity, so a generic rho has degree
    d >= 3, and its finite roots are simple iff f and f' share no root, i.e.
    their Sylvester rows have full rank 2d - 1."""
    f = quartic_numerators(rho)
    d = max(f, default=-1)
    return d >= 3 and rank(quartic_sylvester_rows(f)) == 2 * d - 1


def random_matrix(
    rng: random.Random, nrows: int, ncols: int, rank_cap: int | None = None, density: float = 0.6
):
    """Small rational matrix with many zeros; at most rank_cap when given
    (a product of nrows x rank_cap and rank_cap x ncols factors).  Each
    entry, or each factor's entry when capped, is nonzero with probability
    at most density."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < density else Fraction(0)

    if rank_cap is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    left = [[entry() for _ in range(rank_cap)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank_cap)]
    return [
        [
            sum((left[i][k] * right[k][j] for k in range(rank_cap) if left[i][k]), Fraction(0))
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


# ---------------------------------------------------------------------------
# squarefree part by trial division (the reference for exactalg's)
# ---------------------------------------------------------------------------


def squarefree_by_trial_division(n: int) -> tuple[int, int]:
    """n = s^2 * m with m squarefree (sign carried by m); n is nonzero.
    Trial division up to sqrt(n): exponential in the bit size, so keep n
    below about 10^12."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, m = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    m *= n  # leftover prime
    return s, sign * m


# ---------------------------------------------------------------------------
# chart regularity of the extension family, by transforming the section
# ---------------------------------------------------------------------------


def mat_vec(rep: list[list[BiPoly]], vec: list[BiPoly]) -> list[BiPoly]:
    return [row[0] * vec[0] + row[1] * vec[1] + row[2] * vec[2] for row in rep]


def laurent_regular(f: BiPoly, *, z1_sign: int, z2_sign: int) -> bool:
    """True iff the Laurent polynomial f is polynomial in the target chart.

    z1_sign = +1 requires all z1 exponents >= 0 (the chart keeps z1 affine);
    -1 requires <= 0 (the chart uses 1/z1).  Same for z2.
    """
    return all(i * z1_sign >= 0 and j * z2_sign >= 0 for i, j, _ in f.terms())


# -- the extension transitions by conjugation ----------------------------------


def ext_cocycle(e) -> BiPoly:
    return BiPoly({(1, 0): e.u, (0, 0): e.v})


def inv_monomial(f: BiPoly) -> BiPoly:
    """Inverse of a single-term Laurent polynomial."""
    terms = list(f.terms())
    if len(terms) != 1:
        raise ValueError("only monomials are invertible here")
    (i, j, c), = terms
    return lau.monomial(-i, -j, 1 / c)


def end_rep3(g: list[list[BiPoly]], twist: BiPoly) -> list[list[BiPoly]]:
    """3x3 transition induced on the trace-free coefficient vector (A, B, C).

    Conjugation by g on (a b; c -a), written in the basis
    (E11 - E22, E12, E21), multiplied by the twisting line-bundle factor.
    The determinant of g must be a single Laurent monomial (true for every
    transition used here).
    """
    g11, g12 = g[0]
    g21, g22 = g[1]
    factor = twist * inv_monomial(g11 * g22 - g12 * g21)
    rows = [
        [g11 * g22 + g12 * g21, -(g11 * g21), g12 * g22],
        [g11 * g12 * -2, g11 * g11, -(g12 * g12)],
        [g21 * g22 * 2, -(g21 * g21), g22 * g22],
    ]
    return [[x * factor for x in row] for row in rows]


def rep_v1_to_v2(e, twist) -> list[list[BiPoly]]:
    # conjugation by g21, the inverse of the unimodular V1 & V2 transition g12
    g21 = [[Z2, -ext_cocycle(e)], [BiPoly.zero(), lau.monomial(0, -1)]]
    return end_rep3(g21, lau.monomial(0, -twist.b))


def rep_v1_to_v3(twist) -> list[list[BiPoly]]:
    g31 = [[BiPoly.const(1), BiPoly.zero()], [BiPoly.zero(), Z1]]
    return end_rep3(g31, lau.monomial(-twist.a, 0))


def columns_of(rep: list[list[BiPoly]]) -> tuple:
    """A 3x3 transition in the column form of ``extension._v1_to_v2``: per
    input component, the (comp_out, di, dj, c) of every term, as a set."""
    return tuple(
        {(comp_out, i, j, c) for comp_out in range(3) for i, j, c in rep[comp_out][comp].terms()}
        for comp in range(3)
    )


def image_glue_check(e, phi_v1: PolyMat2, twist) -> bool:
    """``extension.glue_check`` by multiplying out the images of (A, B, C)
    in charts V2 and V3 and checking every exponent's sign there."""
    phi = phi_v1.to_bipoly()
    vec = [phi.entry(0, 0), phi.entry(0, 1), phi.entry(1, 0)]
    in_v2 = mat_vec(rep_v1_to_v2(e, twist), vec)
    in_v3 = mat_vec(rep_v1_to_v3(twist), vec)
    return all(laurent_regular(f, z1_sign=1, z2_sign=-1) for f in in_v2) and all(
        laurent_regular(f, z1_sign=-1, z2_sign=1) for f in in_v3
    )


# -- the closed-form sections, coefficient by coefficient ---------------------


def build_phi1_termwise(e, p) -> PolyMat2:
    """``extension.build_phi1`` with each coefficient of A1 and B1 written out:
    2 (a00 + a10 z1 + a20 z1^2) = (u z1 + v)(c01 + c11 z1) on the diagonal and
    B1 = -(u z1 + v)^2 (c02 + c12 z1)."""
    u, v = Fraction(e.u), Fraction(e.v)
    c00, c01, c02, c10, c11, c12 = (
        Fraction(x) for x in (p.c00, p.c01, p.c02, p.c10, p.c11, p.c12)
    )
    a1 = BiPoly(
        {
            (0, 0): v * c01 / 2,
            (0, 1): v * c02,
            (1, 0): (u * c01 + v * c11) / 2,
            (1, 1): u * c02 + v * c12,
            (2, 0): u * c11 / 2,
            (2, 1): u * c12,
        }
    )
    b1 = BiPoly(
        {
            (0, 0): -v * v * c02,
            (1, 0): -(v * v * c12 + 2 * u * v * c02),
            (2, 0): -(u * u * c02 + 2 * u * v * c12),
            (3, 0): -u * u * c12,
        }
    )
    c1 = BiPoly(
        {(0, 0): c00, (0, 1): c01, (0, 2): c02, (1, 0): c10, (1, 1): c11, (1, 2): c12}
    )
    return PolyMat2.trace_free(a1, b1, c1)


def build_phi2_termwise(e, p) -> PolyMat2:
    """``extension.build_phi2`` with each coefficient of B2 written out."""
    u, v, a02 = Fraction(e.u), Fraction(e.v), Fraction(p.a02)
    a2 = BiPoly({(0, 0): p.a00, (0, 1): p.a01, (0, 2): a02})
    b2 = BiPoly({(0, 0): p.b00, (1, 0): p.b10, (0, 1): -2 * v * a02, (1, 1): -2 * u * a02})
    return PolyMat2.trace_free(a2, b2, BiPoly.zero())


def dichotomy_by_commutator(m1: PolyMat2, m2: PolyMat2) -> str:
    """``extension.dichotomy_check``'s verdict (a ``Dichotomy`` value) on the
    built components, with integrability decided by the full 2x2 commutator."""
    if not commutator2(m1, m2).is_zero():
        return "NotIntegrable"
    if m1.is_zero() and m2.is_zero():
        return "Zero"
    return "Phi1Only" if m1.entry(1, 0) else "Phi2Only"


# ---------------------------------------------------------------------------
# normal forms and the graded object by general conjugation
# ---------------------------------------------------------------------------


def graded_object_by_conjugation(f: HiggsField) -> HiggsField:
    """``higgs.graded_object`` of a strictly semistable field with a rational
    common eigenvector v = (x0, y0): conjugating by psi_inv, the inverse of
    the basis change (v, e1), sends v to e1; the result must be upper
    triangular, and its diagonal is the graded object.  v comes from the
    library's own search, so this checks the closed form only."""
    assert stability_classify(f) is StabilityClass.STRICTLY_SEMISTABLE
    quads = _eigen_quadratics(_coefficient_matrices(f))
    if not quads:
        return f
    x0, y0 = _rational_common_eigenvector(quads)
    if y0 == 0:
        phi1, phi2 = f.phi1, f.phi2
    else:
        psi_inv = PolyMat2(
            [[BiPoly.const(0), BiPoly.const(1 / y0)],
             [BiPoly.const(1), BiPoly.const(-x0 / y0)]]
        )
        phi1 = conjugate2(f.phi1, psi_inv).to_bipoly()
        phi2 = conjugate2(f.phi2, psi_inv).to_bipoly()
    assert not phi1.entry(1, 0) and not phi2.entry(1, 0)
    return field(f.bundle, a1=phi1.entry(0, 0), a2=phi2.entry(0, 0))


def normal_form_F0_by_conjugation(f: HiggsField) -> tuple[HiggsField, PolyMat2]:
    """``higgs.normal_form_F0`` of a field in its domain as psi . Phi_1 . psi^-1,
    with psi = (1 P; 0 1/alpha), P = -(1/alpha) [A1'(p) + (A1''(p)/2)(z1 - p)]
    for C1 = alpha (z1 - p)."""
    c1 = f.phi1.entry(1, 0)
    alpha = c1.coeff(1, 0)
    p = -c1.coeff(0, 0) / alpha
    a1 = f.phi1.entry(0, 0)
    a_half_second = a1.coeff(2, 0)
    a_prime_p = a1.coeff(1, 0) + 2 * a_half_second * p
    z1_minus_p = BiPoly({(1, 0): 1, (0, 0): -p})
    big_p = (BiPoly.const(a_prime_p) + a_half_second * z1_minus_p) * (-1 / alpha)
    psi = PolyMat2([[BiPoly.const(1), big_p], [BiPoly.const(0), BiPoly.const(1 / alpha)]])
    rep = conjugate2(f.phi1, psi).to_bipoly()
    return HiggsField(f.bundle, rep, PolyMat2.zero()), psi


def normal_form_pm1_by_conjugation(f: HiggsField) -> HiggsField:
    """``higgs.normal_form_pm1`` of a field in its domain as the conjugate of
    Phi_1 by the shear (1 -A1; 0 1) times the rescale diag(C1, 1)."""
    a1, c = f.phi1.entry(0, 0), f.phi1.entry(1, 0).coeff(0, 0)
    psi = PolyMat2(mat_mul_oracle(PolyMat2([[1, -a1], [0, 1]]), PolyMat2([[c, 0], [0, 1]])))
    return HiggsField(f.bundle, conjugate2(f.phi1, psi).to_bipoly(), PolyMat2.zero())


def split_extension_normal_form_by_conjugation(f: HiggsField) -> HiggsField:
    """``higgs.trivial_extension_normal_form`` of a field in its domain as
    the conjugate of Phi_2 by diag(1, b), b the z1 coefficient of B2."""
    b = f.phi2.entry(0, 1).coeff(1, 0)
    psi = PolyMat2([[BiPoly.const(1), BiPoly.const(0)], [BiPoly.const(0), BiPoly.const(b)]])
    return HiggsField(f.bundle, PolyMat2.zero(), conjugate2(f.phi2, psi).to_bipoly())


def storage(m: PolyMat2) -> list[tuple[dict, int]]:
    """The stored numerators and denominator of each entry, row by row."""
    return [(m.entry(i, j)._terms, m.entry(i, j)._den) for i in range(2) for j in range(2)]


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_rat(rng: random.Random, height: int = 9) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, 3))


def random_bipoly(rng: random.Random, d1: int, d2: int, height: int = 9, density: float = 0.7) -> BiPoly:
    if d1 < 0 or d2 < 0:
        return BiPoly.zero()
    terms = {}
    for i in range(d1 + 1):
        for j in range(d2 + 1):
            if rng.random() < density:
                terms[(i, j)] = random_rat(rng, height)
    return BiPoly(terms)


def slot_poly(rng: random.Random, slot: LineBundle, height: int = 9) -> BiPoly:
    return random_bipoly(rng, slot.a, slot.b, height)


def random_field(rng: random.Random, bundle: DecomposableBundle, height: int = 9) -> HiggsField:
    """Uniformly random validated field (not necessarily integrable)."""
    s = higgs_shape(bundle)
    return field(
        bundle,
        a1=slot_poly(rng, s.a1, height),
        b1=slot_poly(rng, s.b1, height),
        c1=slot_poly(rng, s.c1, height),
        a2=slot_poly(rng, s.a2, height),
        b2=slot_poly(rng, s.b2, height),
        c2=slot_poly(rng, s.c2, height),
    )


def random_constant_invertible(rng: random.Random) -> PolyMat2:
    while True:
        a, b, c, d = (random_rat(rng, 4) for _ in range(4))
        if a * d - b * c:
            return PolyMat2(
                [[BiPoly.const(a), BiPoly.const(b)], [BiPoly.const(c), BiPoly.const(d)]]
            )


def random_univariate(rng: random.Random, deg: int, axis: int, height: int = 9) -> BiPoly:
    return BiPoly.from_univariate([random_rat(rng, height) for _ in range(deg + 1)], axis)


_O00 = DecomposableBundle(LineBundle(0, 0), LineBundle(0, 0))


def random_integrable_field(rng: random.Random, bundle: DecomposableBundle) -> HiggsField:
    """Random field that is integrable by construction.

    Strategies: one component zero, or both components univariate multiples
    of a common constant trace-free matrix; on O+O the result is optionally
    conjugated by a random constant automorphism (which preserves both the
    slots and integrability).
    """
    s = higgs_shape(bundle)
    choice = rng.randrange(3)
    if choice == 0:  # phi2 = 0
        f = field(
            bundle,
            a1=slot_poly(rng, s.a1),
            b1=slot_poly(rng, s.b1),
            c1=slot_poly(rng, s.c1),
        )
    elif choice == 1:  # phi1 = 0
        f = field(
            bundle,
            a2=slot_poly(rng, s.a2),
            b2=slot_poly(rng, s.b2),
            c2=slot_poly(rng, s.c2),
        )
    else:
        # proportional pairs: phi1 = g1(z1) M, phi2 = g2(z2) M for a constant
        # trace-free M supported in the slots both components allow
        def both_fit(s1: LineBundle, s2: LineBundle) -> bool:
            return min(s1.a, s1.b, s2.a, s2.b) >= 0

        am = random_rat(rng, 3)
        bm = random_rat(rng, 3) if both_fit(s.b1, s.b2) else Fraction(0)
        cm = random_rat(rng, 3) if both_fit(s.c1, s.c2) else Fraction(0)
        g1 = random_univariate(rng, 2, 1)
        g2 = random_univariate(rng, 2, 2)
        f = field(
            bundle,
            a1=g1 * am, b1=g1 * bm, c1=g1 * cm,
            a2=g2 * am, b2=g2 * bm, c2=g2 * cm,
        )
    if bundle == _O00 and rng.random() < 0.5:
        psi = random_constant_invertible(rng)
        f = HiggsField(
            bundle,
            conjugate2(f.phi1, psi).to_bipoly(),
            conjugate2(f.phi2, psi).to_bipoly(),
        )
    return f


def random_strictly_semistable_field(rng: random.Random, height: int = 9) -> HiggsField:
    """Random strictly semistable field on O+O with a rational common eigenvector.

    An integrable upper-triangular field (one component zero, both diagonal,
    or both components univariate multiples of one constant (a b; 0 -a)),
    conjugated by a random constant automorphism three times in four, so
    the common eigenvector is e1 or a random rational vector.
    """
    g = [random_univariate(rng, 2, axis, height) for axis in (1, 2)]
    choice = rng.randrange(4)
    if choice == 0:
        f = field(_O00, a1=g[0], b1=random_univariate(rng, 2, 1, height))
    elif choice == 1:
        f = field(_O00, a2=g[1], b2=random_univariate(rng, 2, 2, height))
    elif choice == 2:
        f = field(_O00, a1=g[0], a2=g[1])
    else:
        a, b = random_rat(rng, height), random_rat(rng, height)
        f = field(_O00, a1=g[0] * a, b1=g[0] * b, a2=g[1] * a, b2=g[1] * b)
    if rng.random() < 0.75:
        psi = random_constant_invertible(rng)
        f = HiggsField(_O00, conjugate2(f.phi1, psi).to_bipoly(), conjugate2(f.phi2, psi).to_bipoly())
    return f
