"""Seeded input generators for the four workloads.

Every generator takes a ``random.Random`` built from the workload name and
the ``--seed`` argument, so the same seed always yields the same inputs.
Inputs are plain data (Fractions and ``{(i, j): Fraction}`` polynomials);
this module never imports ``cohiggs``, so generating inputs costs nothing
that a program change could move, and is excluded from ``setup_s``.

The expected answer of every operation is fixed by construction here or
computed by :mod:`oracle`; the program under test only ever receives the
generated inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import oracle as orc


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- rationals ------------------------------------------------------------------


def small_rat(rng: random.Random, nonzero: bool = False) -> Fraction:
    """Height <= 9, the regime of the paper's examples and the acceptance suite."""
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q or not nonzero:
            return q


def big_rat(rng: random.Random, nonzero: bool = False) -> Fraction:
    """30-60-bit rationals: a 20-40-bit numerator over a 10-20-bit denominator."""
    num = rng.getrandbits(rng.randint(20, 40)) | 1
    den = rng.getrandbits(rng.randint(10, 20)) | 1
    return Fraction(num if rng.random() < 0.5 else -num, den)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(rng: random.Random, digits: int) -> int:
    while True:
        n = rng.randint(10 ** (digits - 1), 10**digits - 1) | 1
        if _is_prime(n):
            return n


def _hard(rng: random.Random, prime_digits: tuple[int, int], cofactor_digits: int) -> Fraction:
    """+-(P a)/b with P a random prime: trial division must run up to about
    sqrt(P), or up to P when the value is squared, whatever the small
    cofactor a * b (of about ``cofactor_digits`` digits) contributes."""
    p = _prime(rng, rng.randint(*prime_digits))
    while True:
        a = rng.randint(1, 10**cofactor_digits)
        b = rng.randint(2, 9)
        if math.gcd(a, b) == 1 and b % p:
            return Fraction(p * a if rng.random() < 0.5 else -p * a, b)


def fibre_value(rng: random.Random) -> Fraction:
    """-rho1(z) whose numerator x denominator has about 10-12 digits, one
    prime factor of 8-11 digits: hard enough that squarefree extraction
    matters, small enough that trial division ends within tens of ms."""
    return _hard(rng, (8, 11), 1)


def fibre_root(rng: random.Random) -> Fraction:
    """W whose square has about 10-12 digits, with one prime factor of 4-6
    digits, for the fields whose fibre radicand is a perfect square."""
    return _hard(rng, (4, 6), 0)


def small_point(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 5))


def nonzero_point(rng: random.Random) -> Fraction:
    while True:
        z = small_point(rng)
        if z:
            return z


# -- univariate helpers -----------------------------------------------------------


def rand_coeffs(rng, coef, deg: int) -> list:
    """deg + 1 coefficients, each nonzero with probability 0.8, not all zero."""
    out = [coef(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(deg + 1)]
    if not any(out):
        out[-1] = coef(rng, nonzero=True)
    return out


def through(rng, coef, deg: int, x0: Fraction, value: Fraction) -> list:
    """Coefficients of value + (x - x0) h(x) with h of degree deg - 1 drawn from coef.

    The coefficients have the size coef gives, while the value at x0 is fixed.
    """
    h = [coef(rng, nonzero=True) for _ in range(deg)]
    out = [Fraction(0)] * (deg + 1)
    out[0] = value
    for k, c in enumerate(h):
        out[k + 1] += c
        out[k] -= x0 * c
    return out


def unimodular(rng) -> tuple[list, list]:
    """A small integer matrix g with det 1 and its inverse."""
    k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
    g = [[1 + k1 * k2, k1], [k2, 1]]
    g_inv = [[1, -k1], [-k2, 1 + k1 * k2]]
    return g, g_inv


def conj_const(g, m, g_inv):
    """g m g^-1 for 2x2 matrices of Fractions."""
    gm = [[sum(g[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return [[sum(gm[i][k] * g_inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


# -- Higgs fields on split bundles -------------------------------------------------

OO = ((0, 0), (0, 0))
F0 = ((0, 0), (-1, 0))
PM1 = ((1, 0), (-1, 0))
EXT_SPLIT = ((0, -1), (-1, 1))
BUNDLES = (OO, F0, PM1, EXT_SPLIT)


def slot_boxes(bundle) -> list[tuple[int, int]]:
    """Degree boxes of (A1, B1, C1, A2, B2, C2) on L1 + L2."""
    (a1, b1), (a2, b2) = bundle
    da, db = a1 - a2, b1 - b2
    return [(2, 0), (da + 2, db), (-da + 2, -db), (0, 2), (da, db + 2), (-da, -db + 2)]


def field_spec(kind: str, bundle, entries, point=None, **expect) -> dict:
    return {"kind": kind, "bundle": bundle, "entries": tuple(entries), "point": point, **expect}


def _z1(coeffs) -> dict:
    return orc.univariate(coeffs, 1)


def _z2(coeffs) -> dict:
    return orc.univariate(coeffs, 2)


def _target_entries(rng, value: Fraction):
    """(A, B, C) with A^2 + B C = value, A and C small, C nonzero."""
    a = small_rat(rng)
    c = small_rat(rng, nonzero=True)
    return a, (value - a * a) / c, c


def gen_oo_semistable(rng, coef, big: bool) -> dict:
    """Phi_1 = alpha(z1) M, Phi_2 = beta(z2) M with M = g (lam b; 0 -lam) g^-1:
    integrable, strictly semistable, with a rational common eigenvector."""
    lam, b = small_rat(rng, nonzero=True), small_rat(rng)
    g, g_inv = unimodular(rng)
    m = conj_const(g, [[lam, b], [Fraction(0), -lam]], g_inv)
    z = (nonzero_point(rng), small_point(rng))
    if big:
        alpha = through(rng, coef, 2, z[0], fibre_root(rng) / lam)
    else:
        alpha = rand_coeffs(rng, coef, 2)
    beta = rand_coeffs(rng, coef, 2)
    al, be = _z1(alpha), _z2(beta)
    entries = [orc.scale(al, m[0][0]), orc.scale(al, m[0][1]), orc.scale(al, m[1][0]),
               orc.scale(be, m[0][0]), orc.scale(be, m[0][1]), orc.scale(be, m[1][0])]
    a1, a2 = orc.scale(al, lam), orc.scale(be, lam)
    sign = orc.s_equiv_sign(a1, a2)
    return field_spec("oo_semistable", OO, entries, z, stability="StrictlySemistable",
                      integrable=True, graded=(orc.scale(a1, sign), orc.scale(a2, sign)))


def gen_oo_stable(rng, coef, big: bool) -> dict:
    """Phi_2 = 0, Phi_1 = g (N0 + N1 z1 + N2 z1^2) g^-1 with N0 = (0 p; 0 0) and
    N1 = (0 0; q 0): N0 and N1 share no eigenvector, so the field is stable."""
    p, q = coef(rng, nonzero=True), coef(rng, nonzero=True)
    z = (nonzero_point(rng), small_point(rng))
    if big:
        r = z[0]
        a, b, c = _target_entries(rng, fibre_value(rng))
        s, t, u = a / r**2, (b - p) / r**2, (c - q * r) / r**2
    else:
        s, t, u = coef(rng), coef(rng), coef(rng)
    zero = Fraction(0)
    ns = [[[zero, p], [zero, zero]], [[zero, zero], [q, zero]], [[s, t], [u, -s]]]
    g, g_inv = unimodular(rng)
    cs = [conj_const(g, n, g_inv) for n in ns]
    a1 = _z1([c[0][0] for c in cs])
    b1 = _z1([c[0][1] for c in cs])
    c1 = _z1([c[1][0] for c in cs])
    return field_spec("oo_stable", OO, [a1, b1, c1, {}, {}, {}], z,
                      stability="Stable", integrable=True)


def gen_f0(rng, coef, big: bool) -> dict:
    """O + O(-1,0) with Phi_2 = 0 and C1 of exact degree 1: stable, in the
    domain of the F0 normal form."""
    z = (small_point(rng), small_point(rng))
    gamma = coef(rng, nonzero=True)
    if big:
        a, b, c = _target_entries(rng, fibre_value(rng))
        a1 = through(rng, coef, 2, z[0], a)
        b1 = through(rng, coef, 3, z[0], b)
        c1 = [c - gamma * z[0], gamma]
    else:
        a1, b1 = rand_coeffs(rng, coef, 2), rand_coeffs(rng, coef, 3)
        c1 = [coef(rng), gamma]
    return field_spec("f0", F0, [_z1(a1), _z1(b1), _z1(c1), {}, {}, {}], z,
                      stability="Stable", integrable=True)


def gen_pm1(rng, coef, big: bool) -> dict:
    """O(1,0) + O(-1,0) with Phi_2 = 0 and a nonzero constant C1: stable,
    in the domain of the (0 B; 1 0) normal form."""
    z = (small_point(rng), small_point(rng))
    if big:
        a, b, c = _target_entries(rng, fibre_value(rng))
        a1 = through(rng, coef, 2, z[0], a)
        b1 = through(rng, coef, 4, z[0], b)
    else:
        a1, b1 = rand_coeffs(rng, coef, 2), rand_coeffs(rng, coef, 4)
        c = coef(rng, nonzero=True)
    return field_spec("pm1", PM1, [_z1(a1), _z1(b1), orc.const(c), {}, {}, {}], z,
                      stability="Stable", integrable=True)


def gen_ext_split(rng, coef, big: bool) -> dict:
    """The split extension bundle O(0,-1) + O(-1,1) with Phi_1 = 0 and B2 of
    exact z1-degree 1: stable, in the domain of its normal form."""
    z = (small_point(rng), small_point(rng))
    if big:
        a2 = through(rng, coef, 2, z[1], fibre_root(rng))
    else:
        a2 = rand_coeffs(rng, coef, 2)
    b2 = [coef(rng), coef(rng, nonzero=True)]
    return field_spec("ext_split", EXT_SPLIT, [{}, {}, {}, _z2(a2), _z1(b2), {}], z,
                      stability="Stable", integrable=True)


def gen_random(rng, coef, bundle) -> dict:
    """Every slot filled at random; redrawn until not integrable, so the
    expected verdict is known for any seed."""
    boxes = slot_boxes(bundle)
    while True:
        entries = []
        for da, db in boxes:
            p = {}
            if da >= 0 and db >= 0:
                for i, j in itertools.product(range(da + 1), range(db + 1)):
                    if rng.random() < 0.6:
                        p[(i, j)] = coef(rng, nonzero=True)
            entries.append(p)
        if not orc.integrable(*entries):
            return field_spec("random", bundle, entries, None, integrable=False)


def _distinct(rng, coef, n: int) -> list:
    out: list = []
    while len(out) < n:
        r = coef(rng)
        if r not in out:
            out.append(r)
    return out


def gen_section_q(rng, coef) -> dict:
    """rho = lead * prod (x - r_i) on one axis; generic by construction
    (four or three distinct roots) or not (a repeated root)."""
    axis = rng.choice((1, 2))
    lead = coef(rng, nonzero=True)
    generic = rng.random() < 0.5
    if generic:
        roots = _distinct(rng, coef, rng.choice((3, 4)))
    else:
        roots = _distinct(rng, coef, 3)
        roots.append(roots[0])
    rho = orc.from_roots(lead, roots)
    assert orc.is_generic_quartic(rho) == generic
    return {"kind": "section_q", "axis": axis, "rho": orc.univariate(rho, axis),
            "generic": generic}


def gen_pullback(rng, coef) -> dict:
    """a, b, c of degrees <= 2, 3, 1 on one axis; rho = -(a^2 + b c)."""
    axis = rng.choice((1, 2))
    a = rand_coeffs(rng, coef, 2)
    b = rand_coeffs(rng, coef, 3)
    c = rand_coeffs(rng, coef, 1)
    pa, pb, pc = (orc.univariate(x, axis) for x in (a, b, c))
    rho = orc.neg(orc.add(orc.mul(pa, pa), orc.mul(pb, pc)))
    dense = [rho.get((k, 0) if axis == 1 else (0, k), Fraction(0)) for k in range(5)]
    return {"kind": "pullback", "axis": axis, "a": pa, "b": pb, "c": pc, "rho": rho,
            "generic": orc.is_generic_quartic(dense)}


def gen_conjugate(rng, coef) -> dict:
    """phi trace-free of bidegree <= (1, 1); psi with entries of degree <= 1
    and a non-constant determinant, so the conjugate has proper denominators."""
    def entry(box):
        return orc.clean({(i, j): coef(rng) for i in range(box[0] + 1) for j in range(box[1] + 1)})

    a, b, c = entry((1, 1)), entry((1, 1)), entry((1, 1))
    phi = [[a, b], [c, orc.neg(a)]]
    while True:
        psi = [[entry((1, 0)), entry((0, 1))], [entry((0, 1)), entry((1, 0))]]
        det = orc.sub(orc.mul(psi[0][0], psi[1][1]), orc.mul(psi[0][1], psi[1][0]))
        if any(i or j for i, j in det):
            return {"kind": "conjugate", "phi": phi, "psi": psi}


# section_q comes first: the first operation is also the set-up warm-up, and
# unlike the fibre operations its cost does not depend on the seed's primes.
HIGGS_ROUND = (
    "section_q", "oo_semistable", "random_oo", "f0", "random_f0", "pm1", "random_pm1",
    "ext_split", "random_ext", "oo_stable", "random_any", "pullback", "conjugate",
)


def higgs_op(rng, kind: str, big: bool) -> dict:
    coef = big_rat if big else small_rat
    if kind.startswith("random"):
        bundle = {"random_oo": OO, "random_f0": F0, "random_pm1": PM1,
                  "random_ext": EXT_SPLIT}.get(kind) or rng.choice(BUNDLES)
        return gen_random(rng, coef, bundle)
    if kind in ("section_q", "pullback", "conjugate"):
        return {"section_q": gen_section_q, "pullback": gen_pullback,
                "conjugate": gen_conjugate}[kind](rng, coef)
    return {"oo_semistable": gen_oo_semistable, "oo_stable": gen_oo_stable, "f0": gen_f0,
            "pm1": gen_pm1, "ext_split": gen_ext_split}[kind](rng, coef, big)


def higgs_ops(workload: str, seed: int, big: bool):
    """Endless stream of split-bundle operations, one fixed round of kinds
    after another, so every run sees the same mix whatever its length."""
    rng = rng_for(workload, seed)
    for kind in itertools.cycle(HIGGS_ROUND):
        yield higgs_op(rng, kind, big)


# -- the c1 = -F, c2 = 1 extension family -------------------------------------------


def ext_class(rng) -> tuple[Fraction, Fraction]:
    """A class (u, v) with both coordinates nonzero, of 4-100 bits each.

    A vanishing coordinate makes the ansatz system sparser and the
    operation about three times cheaper; leaving it out keeps the cost of
    every operation alike, so medians do not jump between two modes."""
    def rat():
        num = rng.getrandbits(rng.randint(2, 50)) | 1
        return Fraction(num if rng.random() < 0.5 else -num, rng.getrandbits(rng.randint(2, 50)) | 1)

    return rat(), rat()


PHI1_KEYS = ("c00", "c01", "c02", "c10", "c11", "c12")
PHI2_KEYS = ("a00", "a01", "a02", "b00", "b10")


def nonzero_params(rng, keys) -> dict:
    while True:
        p = {k: small_rat(rng) for k in keys}
        if any(p.values()):
            return p


def extension_op(rng) -> dict:
    u, v = ext_class(rng)
    return {
        "u": u, "v": v,
        "p1": nonzero_params(rng, PHI1_KEYS),
        "p2": nonzero_params(rng, PHI2_KEYS),
        "scale": small_rat(rng, nonzero=True),
        "delta": small_rat(rng, nonzero=True),
    }


def extension_ops(seed: int):
    rng = rng_for("extension", seed)
    while True:
        yield extension_op(rng)


def library_ops(workload: str, seed: int):
    """The operation stream of a library workload."""
    if workload == "extension":
        return extension_ops(seed)
    return higgs_ops(workload, seed, big=workload == "spectral_height")


# -- the moduli batch grid ----------------------------------------------------------


def batch_grid(seed: int) -> list[list[int]]:
    """41 alpha x 41 beta x 21 gamma = 35,301 tuples at a seeded offset."""
    rng = rng_for("batch", seed)
    a0, b0, g0 = rng.randint(-30, -10), rng.randint(-30, -10), rng.randint(-15, -5)
    return [[a, b, g] for a in range(a0, a0 + 41) for b in range(b0, b0 + 41)
            for g in range(g0, g0 + 21)]
