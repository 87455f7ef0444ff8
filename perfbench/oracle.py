"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``cohiggs`` or the repository's tests: polynomials are
plain dicts ``{(i, j): Fraction}`` with no zero values, and the decision
formulas are restated from the paper's statements, so a change to the
program or to its tests cannot move what the benchmark accepts.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(Exception):
    """An output differs from what the construction or the oracle requires."""


def need(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- bivariate polynomials as dicts -------------------------------------------


def clean(p: dict) -> dict:
    return {t: Fraction(c) for t, c in p.items() if c}


def add(f: dict, g: dict) -> dict:
    out = dict(f)
    for t, c in g.items():
        s = out.get(t, 0) + c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def neg(f: dict) -> dict:
    return {t: -c for t, c in f.items()}


def sub(f: dict, g: dict) -> dict:
    return add(f, neg(g))


def mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            t = (i1 + i2, j1 + j2)
            s = out.get(t, 0) + c1 * c2
            if s:
                out[t] = s
            else:
                out.pop(t, None)
    return out


def scale(f: dict, c) -> dict:
    c = Fraction(c)
    return {t: v * c for t, v in f.items()} if c else {}


def const(c) -> dict:
    return {(0, 0): Fraction(c)} if c else {}


def evaluate(p: dict, z1: Fraction, z2: Fraction) -> Fraction:
    return sum((c * z1**i * z2**j for (i, j), c in p.items()), Fraction(0))


def univariate(coeffs, axis: int) -> dict:
    """sum coeffs[k] * z_axis^k."""
    return clean({((k, 0) if axis == 1 else (0, k)): c for k, c in enumerate(coeffs)})


def grlex_leading(p: dict) -> Fraction:
    """Leading coefficient in graded-lex order with z1 > z2."""
    i, j = max(p, key=lambda t: (t[0] + t[1], t[0]))
    return p[(i, j)]


# -- 2x2 matrices of dict polynomials -----------------------------------------


def det_tf(a: dict, b: dict, c: dict) -> dict:
    """det (a b; c -a) = -a^2 - b c."""
    return neg(add(mul(a, a), mul(b, c)))


def matmul(x, y):
    return [
        [add(mul(x[i][0], y[0][j]), mul(x[i][1], y[1][j])) for j in range(2)]
        for i in range(2)
    ]


def integrable(a1, b1, c1, a2, b2, c2) -> bool:
    """[Phi_1, Phi_2] = 0 for trace-free (a1 b1; c1 -a1), (a2 b2; c2 -a2)."""
    return (
        mul(b1, c2) == mul(c1, b2)
        and mul(a1, b2) == mul(b1, a2)
        and mul(c1, a2) == mul(a1, c2)
    )


def hitchin(a1, b1, c1, a2, b2, c2) -> tuple[dict, dict, dict]:
    """(det Phi_1, -2 (a1 a2 + b1 c2), det Phi_2)."""
    rho12 = scale(add(mul(a1, a2), mul(b1, c2)), -2)
    return det_tf(a1, b1, c1), rho12, det_tf(a2, b2, c2)


# -- univariate polynomials as dense coefficient lists ------------------------


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _rem(f: list, g: list) -> list:
    r = list(f)
    while len(r) >= len(g) and r:
        c = r[-1] / g[-1]
        shift = len(r) - len(g)
        for k, b in enumerate(g):
            r[k + shift] -= c * b
        _trim(r)
    return r


def is_generic_quartic(coeffs) -> bool:
    """Four distinct projective roots of the binary quartic with these coefficients.

    Degree d leaves a root of multiplicity 4 - d at infinity, so d >= 3 is
    needed, and the finite roots are distinct iff gcd(f, f') is constant.
    """
    f = _trim([Fraction(c) for c in coeffs])
    if len(f) - 1 < 3:
        return False
    a, b = f, _trim([k * c for k, c in enumerate(f)][1:])
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1


def from_roots(lead: Fraction, roots) -> list:
    """Dense coefficients of lead * prod (x - r)."""
    out = [Fraction(lead)]
    for r in roots:
        nxt = [Fraction(0)] * (len(out) + 1)
        for k, c in enumerate(out):
            nxt[k + 1] += c
            nxt[k] -= r * c
        out = nxt
    return out


# -- numerical formulas restated from the paper -------------------------------


def h_dims(a: int, b: int) -> tuple[int, int, int]:
    """Kunneth: h^0(O(n)) = n+1 for n >= 0, h^1(O(n)) = -n-1 for n <= -2."""
    h0a, h0b = max(a + 1, 0), max(b + 1, 0)
    h1a, h1b = max(-a - 1, 0), max(-b - 1, 0)
    return h0a * h0b, h0a * h1b + h1a * h0b, h1a * h1b


def reduced(alpha: int, beta: int, gamma: int) -> tuple[str, tuple[int, int], int]:
    """Twist c1 = alpha C0 + beta F into {0, -F, -C0, -C0-F}.

    O(x, y) has class y C0 + x F, so the twist moves c1 by (2y, 2x) and c2 by
    alpha x + beta y + 2 x y; the parities of (alpha, beta) fix the target.
    """
    tags = {(0, 0): "Zero", (0, 1): "MinusF", (1, 0): "MinusC0", (1, 1): "MinusC0MinusF"}
    pa, pb = alpha % 2, beta % 2
    x, y = -(pb + beta) // 2, -(pa + alpha) // 2
    return tags[(pa, pb)], (x, y), gamma + alpha * x + beta * y + 2 * x * y


def moduli_nonempty(alpha: int, beta: int, gamma: int) -> tuple[bool, bool]:
    """(non-empty, printed odd-odd bound disagrees) by the reduction route.

    Non-empty iff gamma' >= 1 for -C0-F and gamma' >= 0 otherwise; the
    printed bound 2 gamma >= alpha beta - 2 differs only for odd-odd classes.
    """
    tag, _, gp = reduced(alpha, beta, gamma)
    odd = tag == "MinusC0MinusF"
    nonempty = gp >= (1 if odd else 0)
    discrepancy = odd and (2 * gamma >= alpha * beta - 2) != nonempty
    return nonempty, discrepancy


def bundle_nonempty(alpha, beta, gamma, d, r) -> tuple[bool, int]:
    ell = gamma - alpha * r - beta * d + 2 * d * r
    ok = ell >= 0 and (2 * d > alpha or (2 * d == alpha and beta - 2 * r <= ell))
    return ok, ell


def no_higgs_region(d: int, r: int, c2: int) -> bool:
    if d > 1 and r <= -1 - d and c2 >= 3 - d * (1 + 2 * r):
        return True
    return d == 1 and r <= -2 and c2 >= -4 * r - 1


def s_equiv_sign(a1: dict, a2: dict) -> int:
    """Sign making the graded-lex leading coefficient of A1 + A2 positive
    (falling back to A1, then A2, when the sum vanishes)."""
    key = add(a1, a2) or a1 or a2
    if key and grlex_leading(key) < 0:
        return -1
    return 1


# -- checks shared by the library and CLI workloads ---------------------------


def check_fibre(rho, point, discs, ramified: bool, points) -> None:
    """A fibre over ``point`` of the datum ``rho = (rho1, rho12, rho2)``:
    ``discs`` is (disc1, disc2, pairing_rhs) and ``points`` lists pairs
    ((coef1, radicand1), (coef2, radicand2)) for eta = coef * sqrt(radicand).
    Every point must lie on the spectral surface, and the cross pairings
    must fail its third equation whenever rho12(z) != 0."""
    z1, z2 = point
    r1, r12, r2 = (evaluate(p, z1, z2) for p in rho)
    need(tuple(discs) == (-r1, -r2, -r12), "fibre discriminants")
    need(ramified == (r1 == 0 or r2 == 0), "fibre ramification flag")
    need(len(points) == (1 if r1 == 0 and r2 == 0 else 2), "fibre point count")
    for (c1, m1), (c2, m2) in points:
        need(c1 * c1 * m1 + r1 == 0, "eta1^2 + rho1(z) != 0")
        need(c2 * c2 * m2 + r2 == 0, "eta2^2 + rho2(z) != 0")
        if c1 and c2:
            need(m1 == m2, "paired etas in different square classes")
            prod = c1 * c2 * m1
        else:
            prod = Fraction(0)
        need(2 * prod + r12 == 0, "2 eta1 eta2 + rho12(z) != 0")
        need(r12 == 0 or -2 * prod + r12 != 0, "a cross pairing lies on the surface")


def check_normal_form(kind: str, entries, got) -> None:
    """The normal form ``got`` (six entries) of a field of the given kind
    keeps the determinant and has the documented shape."""
    a1, b1, c1, a2, b2, c2 = entries
    if kind == "ext_split":
        need(det_tf(*got[3:]) == det_tf(a2, b2, c2), "normal form changed det Phi2")
        need(not any(got[:3]), "normal form has Phi1 != 0")
        need(got[3] == a2 and got[4].get((1, 0)) == 1, "B2 not monic in z1")
        return
    need(det_tf(*got[:3]) == det_tf(a1, b1, c1), "normal form changed det Phi1")
    need(not any(got[3:]), "normal form has Phi2 != 0")
    if kind == "f0":
        p = -c1.get((0, 0), 0) / c1[(1, 0)]
        need(got[2] == clean({(1, 0): 1, (0, 0): -p}), "C1 is not z1 - p")
    else:
        need(not got[0] and got[2] == const(1), "pm1 form is not (0 B; 1 0)")
