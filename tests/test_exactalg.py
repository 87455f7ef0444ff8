from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from cohiggs import _laurent as lau
from cohiggs import jsonio
from cohiggs.errors import SingularAutomorphism
from cohiggs.exactalg import (
    ONE,
    BiPoly,
    PolyMat2,
    RatFn,
    Z1,
    Z2,
    commutator2,
    conjugate2,
    det2,
)
from oracles import (
    add_oracle,
    check_conjugation,
    check_trace_det,
    mat_mul_oracle,
    mul_oracle,
    poly_dict,
    random_bipoly,
    random_constant_invertible,
    random_rat,
)


def test_eval_poly_single_monomial():
    p = Z1 * Z2
    assert p.evaluate(F(2), F(3)) == 6


def test_eval_poly_zero():
    assert BiPoly.zero().evaluate(F(17), F(-5)) == 0


def test_eval_poly_hand_arithmetic():
    # z1^2 - z2 at (1/2, 1/4): 1/4 - 1/4 = 0
    p = Z1 * Z1 - Z2
    assert p.evaluate(F(1, 2), F(1, 4)) == 0


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        a = random_bipoly(rng, 2, 2, 5)
        b = random_bipoly(rng, 2, 2, 5)
        c = random_bipoly(rng, 2, 2, 5)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_bipoly_terms_descending_grlex():
    p = BiPoly({(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 0): 4, (1, 1): 5})
    order = [(i, j) for i, j, _ in p.terms()]
    assert order == [(2, 0), (1, 1), (1, 0), (0, 1), (0, 0)]


def test_bipoly_str():
    assert str(BiPoly.zero()) == "0"
    assert str(Z1**2 * Z2 - 3 * Z2 + F(1, 2)) == "z1^2*z2 - 3*z2 + 1/2"
    # Laurent monomials of the extension transitions print their exponents
    assert str(lau.monomial(0, -1) + lau.monomial(-2, 0, 3)) == "z2^-1 + 3*z1^-2"
    assert str(lau.monomial(-1, 1, -1)) == "-z1^-1*z2"


@pytest.mark.parametrize(
    "build",
    [
        lambda: BiPoly({(-1, 0): 1}),
        lambda: jsonio.bipoly_from_json({"monomials": [{"i": -1, "j": 0, "num": 1}]}),
    ],
    ids=["constructor", "json"],
)
def test_public_constructors_reject_negative_exponents(build):
    with pytest.raises(ValueError, match=r"negative exponent in monomial \(-1, 0\)"):
        build()


@pytest.mark.parametrize("term", [(1.5, 0), (True, 0), (2.0, 1), (0, F(1))])
def test_constructor_rejects_exponents_that_are_not_int(term):
    with pytest.raises(TypeError, match="exponents must be integers"):
        BiPoly({term: 3})


@pytest.mark.parametrize("z", [F(2, 3), F(0)])
def test_evaluate_refuses_laurent_values(z):
    for p in (lau.monomial(-1, 0), lau.monomial(0, -2, 5) + Z1 * Z2, lau.monomial(-1, 3, F(1, 2)) + 1):
        with pytest.raises((TypeError, ZeroDivisionError)):
            p.evaluate(z, z)


def test_operands_and_boundary_accessors():
    # an operand that is neither a BiPoly nor an int or Fraction is refused
    for op in (lambda: Z1 + "x", lambda: Z1 - "x", lambda: "x" - Z1, lambda: Z1 * "x"):
        with pytest.raises(TypeError):
            op()
    assert (Z1 == "x") is False and Z1 != "x"
    # a scalar on either side is its constant polynomial
    assert 2 - Z1 == BiPoly({(0, 0): 2, (1, 0): -1}) == -(Z1 - 2)
    assert F(2, 3) * Z1 == Z1 * F(2, 3) == BiPoly({(1, 0): F(2, 3)}) and Z1 * 0 == 0
    # the half power first: without the check, ** -1 would never return
    for n in (F(1, 2), -1):
        with pytest.raises(ValueError, match="non-negative"):
            Z1**n
    assert BiPoly.from_univariate([0, 1], 1) * BiPoly.from_univariate([0, 1], 2) == Z1 * Z2


def test_polymat2_accepts_generator_rows():
    rows = [[1, Z1], [Z2, 4]]
    assert PolyMat2((x for x in r) for r in rows) == PolyMat2(rows)
    assert str(PolyMat2((x for x in r) for r in rows)) == str(PolyMat2(rows))
    with pytest.raises(ValueError, match="2x2"):
        PolyMat2((x for x in r) for r in [[1, 2, 3], [4, 5, 6]])


def test_commutator_diagonal_matrices_commute():
    x = PolyMat2([[Z1, 0], [0, -Z1]])
    y = PolyMat2([[Z2, 0], [0, -Z2]])
    assert commutator2(x, y).is_zero()


def test_commutator_elementary_matrices():
    x = PolyMat2([[0, 1], [0, 0]])
    y = PolyMat2([[0, 0], [1, 0]])
    assert commutator2(x, y) == PolyMat2([[1, 0], [0, -1]])


def test_commutator_against_multiply_subtract_oracle():
    x = PolyMat2([[Z1, 1], [0, -Z1]])
    y = PolyMat2([[Z2, 0], [1, -Z2]])
    got = commutator2(x, y)
    xy = mat_mul_oracle(x, y)
    yx = mat_mul_oracle(y, x)
    expected = PolyMat2([[xy[i][j] - yx[i][j] for j in range(2)] for i in range(2)])
    assert got == expected
    # frozen values from the oracle
    assert got == PolyMat2([[1, -2 * Z2], [-2 * Z1, -1]])
    # XY - YX holds for any 2x2 matrices, here not trace-free, with int and
    # Fraction entries mixed in among the polynomials
    rng = random.Random(29)
    kinds = (
        lambda: rng.randint(-5, 5),
        lambda: F(rng.randint(-5, 5), rng.randint(1, 4)),
        lambda: random_bipoly(rng, 2, 2, 5),
    )
    square = lambda: PolyMat2([[rng.choice(kinds)() for _ in range(2)] for _ in range(2)])
    done = 0
    while done < 50:
        x, y = square(), square()
        if x.is_trace_free() or y.is_trace_free():
            continue
        xy, yx = mat_mul_oracle(x, y), mat_mul_oracle(y, x)
        got = commutator2(x, y)
        assert got == PolyMat2([[xy[i][j] - yx[i][j] for j in range(2)] for i in range(2)])
        done += 1


def test_commutator_with_self_vanishes():
    rng = random.Random(5)
    for _ in range(30):
        a = random_bipoly(rng, 2, 1, 5)
        b = random_bipoly(rng, 1, 2, 5)
        c = random_bipoly(rng, 2, 2, 5)
        x = PolyMat2([[a, b], [c, -a]])
        assert commutator2(x, x).is_zero()


def test_det2_diagonal():
    a = Z1 + 2 * Z2
    assert det2(PolyMat2([[a, 0], [0, -a]])) == -(a * a)


def test_det2_companion_form():
    rho = Z1**4 - 3 * Z1
    assert det2(PolyMat2([[0, -rho], [1, 0]])) == rho


def test_det2_symbolic_expansion():
    a, b, c = Z1, Z2, Z1 + Z2
    m = PolyMat2([[a, b], [c, -a]])
    assert det2(m) == -(a * a) - b * c


def test_conjugate_by_identity():
    phi = PolyMat2([[Z1, Z2], [1, -Z1]])
    assert conjugate2(phi, PolyMat2.identity()) == phi


def test_conjugate_shear_closed_form():
    # (A B; 1 -A) conjugated by (1 -A; 0 1) gives (0 B+A^2; 1 0); the
    # cross-multiplied identity R*Psi = Psi*Phi verifies the conjugation
    # without inverting anything.
    a = Z1 * Z1 - 2 * Z1
    b = 3 * Z1 + 1
    phi = PolyMat2([[a, b], [1, -a]])
    psi = PolyMat2([[1, -a], [0, 1]])
    rep = conjugate2(phi, psi)
    assert check_conjugation(rep, psi, phi)
    assert rep.to_bipoly() == PolyMat2([[0, b + a * a], [1, 0]])


def test_conjugate_preserves_trace_and_det():
    rng = random.Random(71)
    square = lambda h: PolyMat2([[random_bipoly(rng, 1, 1, h) for _ in range(2)] for _ in range(2)])
    parts = lambda r: (r.num._terms, r.num._den, r.den._terms, r.den._den)

    def check(phi, psi):
        res = conjugate2(phi, psi)
        assert check_trace_det(res, phi.entry(0, 0) + phi.entry(1, 1), det2(phi))
        assert check_conjugation(res, psi, phi)
        # each entry has the storage of RatFn(that entry of psi . phi . adj(psi), det(psi))
        adj = PolyMat2(
            [[psi.entry(1, 1), -psi.entry(0, 1)], [-psi.entry(1, 0), psi.entry(0, 0)]]
        )
        ref = mat_mul_oracle(PolyMat2(mat_mul_oracle(psi, phi)), adj)
        for i in range(2):
            for j in range(2):
                assert parts(res.entry(i, j)) == parts(RatFn(ref[i][j], det2(psi)))

    done = 0
    while done < 100:
        phi, psi = square(4), square(3)
        if not det2(psi):
            continue
        check(phi, psi)
        done += 1
    # psi of constant determinant k: (k(1 + pq) kp; q 1), and constant psi
    for n in range(40):
        if n % 4:
            p, q = random_bipoly(rng, 1, 1, 3), random_bipoly(rng, 1, 1, 3)
            k = random_rat(rng, 4) or F(1)
            psi = PolyMat2([[k * (1 + p * q), k * p], [q, 1]])
            assert det2(psi) == k
        else:
            psi = random_constant_invertible(rng)
        check(square(4), psi)


def test_conjugate_singular_raises():
    phi = PolyMat2([[Z1, 0], [0, -Z1]])
    psi = PolyMat2([[Z1, Z1], [Z2, Z2]])
    with pytest.raises(SingularAutomorphism):
        conjugate2(phi, psi)


def test_ratfn_cross_multiplication_equality():
    # 2z1/2z2 == z1/z2 even though no multivariate gcd is taken
    lhs = RatFn(2 * Z1 * (Z1 + Z2), 2 * Z2 * (Z1 + Z2))
    rhs = RatFn(Z1, Z2)
    assert lhs == rhs
    assert RatFn(Z1, Z2) != RatFn(Z2, Z1)


def test_ratfn_content_normalization():
    r = RatFn(4 * Z1, -2 * Z2)
    # denominator content 1, positive leading coefficient
    assert r.den.leading_coefficient() > 0
    assert r == RatFn(-2 * Z1, Z2)


def test_ratfn_polynomial_detection():
    """A constant denominator, of either sign and any content, divides out
    as num * (1/c); any other raises ValueError, whether or not it divides."""
    num = 6 * Z1 * Z2 - F(4, 3) * Z1 + 10
    for c in (1, -1, 4, -6, F(2, 3), F(-9, 4), 10**40 + 1):
        for n in (num, BiPoly.zero(), BiPoly.const(c)):
            got = RatFn(n, c).as_bipoly()
            assert got == n * (1 / F(c)) and _canonical(got)
    for den in (Z1, Z2 - 1, 2 * Z1 * Z2 + 3, BiPoly.const(5) + Z2 * Z2):
        for n in (ONE, num, num * den):
            with pytest.raises(ValueError, match="non-constant denominator"):
                RatFn(n, den).as_bipoly()
    # psi . I . adj(psi) = det(psi) I divides by det(psi), which is not constant
    with pytest.raises(ValueError):
        conjugate2(PolyMat2.identity(), PolyMat2([[Z1, 0], [0, 1]])).to_bipoly()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFn(Z1, BiPoly.zero())


# ---------------------------------------------------------------------------
# differential tests of the integer-numerator kernels
# ---------------------------------------------------------------------------


def _big(rng) -> F:
    return F(rng.getrandbits(100) * rng.choice([-1, 1]), rng.getrandbits(100) | 1)


def _operand(rng) -> BiPoly:
    """Small mixed-denominator, 100-bit, Laurent or integer operand."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_bipoly(rng, rng.randint(0, 2), rng.randint(0, 2), 9)
    if kind == 1:
        return BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): _big(rng) for _ in range(rng.randint(1, 4))})
    if kind == 2:
        terms = [lau.monomial(rng.randint(-3, 3), rng.randint(-3, 3), F(rng.randint(-9, 9), rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 3))]
        return sum(terms, BiPoly.zero())
    return BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5) for _ in range(3)})


def _operand_pairs(seed: int, count: int):
    """Random pairs, plus pairs whose sum cancels wholly or in part."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = _operand(rng), _operand(rng)
        yield a, b
        yield a, -a
        yield a, b - a  # a + (b - a) cancels a's terms against b's


def _canonical(p: BiPoly) -> bool:
    """Integer numerators, none zero, over a positive denominator coprime to them."""
    nums = list(p._terms.values())
    return (
        all(type(c) is int and c for c in nums)
        and type(p._den) is int
        and p._den > 0
        and math.gcd(p._den, *nums) == 1
    )


def _same(p: BiPoly, expected: dict) -> bool:
    return _canonical(p) and poly_dict(p) == expected


def test_add_sub_neg_match_fraction_oracle():
    rng = random.Random(37)
    for a, b in _operand_pairs(41, 150):
        da, db = poly_dict(a), poly_dict(b)
        neg_b = {t: -c for t, c in db.items()}
        assert _same(a + b, add_oracle(da, db))
        assert _same(a - b, add_oracle(da, neg_b))
        assert _same(-b, neg_b)
        c = _big(rng)
        assert _same(a + c, add_oracle(da, {(0, 0): c}))
        assert _same(c - a, add_oracle({(0, 0): c}, {t: -v for t, v in da.items()}))


def test_mul_matches_fraction_oracle():
    rng = random.Random(43)
    for a, b in _operand_pairs(47, 150):
        da, db = poly_dict(a), poly_dict(b)
        assert _same(a * b, mul_oracle(da, db))
        for c in (0, rng.randint(-7, 7), F(rng.randint(-7, 7), rng.randint(1, 9)), _big(rng)):
            scaled = {t: v * c for t, v in da.items() if c}
            assert _same(a * c, scaled) and _same(c * a, scaled)


def test_boundary_accessors_match_fraction_oracle():
    rng = random.Random(59)
    for a, _ in _operand_pairs(61, 100):
        da = poly_dict(a)
        assert all(type(c) is F for c in da.values())
        assert all(a.coeff(i, j) == c for (i, j), c in da.items())
        assert a.coeff(7, 7) == 0
        lead = max(da, key=lambda t: (t[0] + t[1], t[0]), default=None)
        assert a.leading_coefficient() == (da[lead] if lead else 0)
        z1, z2 = F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(-9, -1), rng.randint(1, 9))
        if min((min(t) for t in da), default=0) < 0:  # a Laurent operand is never evaluated
            with pytest.raises(TypeError):
                a.evaluate(z1, z2)
            continue
        assert a.evaluate(z1, z2) == sum((c * z1**i * z2**j for (i, j), c in da.items()), F(0))
    p = BiPoly.from_univariate([F(1, 2), 0, F(-3, 4)], 2)
    assert p == BiPoly({(0, 0): F(1, 2), (0, 2): F(-3, 4)})
    assert all(type(c) is F for _, _, c in p.terms())


def test_equal_values_have_equal_storage():
    half = BiPoly.const(F(1, 2))
    routes = [
        (half * 2, ONE),
        (half + half, ONE),
        (BiPoly({(0, 0): F(2, 4)}), half),
        (Z1 * F(1, 3) + Z1 * F(2, 3), Z1),
        ((Z1 + F(1, 2)) - F(1, 2), Z1),
        (lau.monomial(1, 0, F(6, 3)), 2 * Z1),
        (Z1 * F(1, 3) - Z1 * F(1, 3), BiPoly.zero()),
    ]
    rng = random.Random(67)
    for _ in range(30):
        p = random_bipoly(rng, 2, 2, 9)
        c = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        routes.append((RatFn(p * c, c).as_bipoly(), p))
    for got, want in routes:
        assert got == want and hash(got) == hash(want)
        assert _canonical(got) and got._den == want._den and got._terms == want._terms


def test_constants_hash_as_the_scalars_they_equal():
    # a constant polynomial equals its int or Fraction, so it must hash as it does
    for c in (0, 1, -7, F(1, 2), F(-(10**40), 3)):
        assert BiPoly.const(c) == c and hash(BiPoly.const(c)) == hash(c)
    assert len({BiPoly(), 0}) == 1 and len({BiPoly.const(F(1, 2)), F(1, 2)}) == 1
    assert {F(1, 2): "half"}[BiPoly.const(F(1, 2))] == "half" and Z1 + 1 - Z1 in {1}
    assert len({Z1, Z1 * 1, 2 * Z1 - Z1, Z2, Z1 + 1}) == 3


# ---------------------------------------------------------------------------
# zero and scalar operands
# ---------------------------------------------------------------------------


class _Int(int):
    pass


@pytest.mark.parametrize("c", [0, 1, -7, True, False, F(0), F(-3, 4), F(10**40, 3), _Int(5)])
def test_const_has_the_storage_of_the_general_constructor(c):
    got, want = BiPoly.const(c), BiPoly({(0, 0): c})
    assert got._terms == want._terms and got._den == want._den and _canonical(got)


def test_zero_operands_match_fraction_oracle():
    for a, _ in _operand_pairs(71, 100):
        da = poly_dict(a)
        neg_a = {t: -c for t, c in da.items()}
        for zero in (0, F(0), False, BiPoly()):
            assert _same(a * zero, mul_oracle(da, {})) and _same(zero * a, mul_oracle({}, da))
            assert _same(a + zero, add_oracle(da, {})) and _same(zero + a, add_oracle({}, da))
            assert _same(a - zero, add_oracle(da, {})) and _same(zero - a, add_oracle({}, neg_a))


def test_float_operands_are_still_refused():
    with pytest.raises(TypeError, match="^expected an integer or Fraction, got float$"):
        BiPoly.const(1.5)
    with pytest.raises(TypeError, match="^expected an integer or Fraction, got BiPoly$"):
        BiPoly.const(Z1)
    for p in (Z1, BiPoly()):
        assert p.__mul__(1.5) is NotImplemented
        with pytest.raises(TypeError):
            p * 1.5


def _count_calls(monkeypatch) -> dict:
    """Counts of the calls of exactalg._normalized and BiPoly.__init__ from now on."""
    from cohiggs import exactalg

    calls = {"_normalized": 0, "__init__": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(exactalg, "_normalized", counting("_normalized", exactalg._normalized))
    monkeypatch.setattr(BiPoly, "__init__", counting("__init__", BiPoly.__init__))
    return calls


def test_products_with_the_zero_matrix_normalize_nothing(monkeypatch):
    from cohiggs import higgs

    m = PolyMat2.trace_free(Z1 + F(1, 2), 3 * Z1 * Z1 - Z2, Z1 - 7)
    calls = _count_calls(monkeypatch)
    assert higgs.commute(m, PolyMat2.zero()) and higgs.commute(PolyMat2.zero(), m)
    assert calls["_normalized"] == 0


def test_scalar_constants_skip_the_general_constructor(monkeypatch):
    calls = _count_calls(monkeypatch)
    for c in (0, 3, -7, True, F(-3, 4), F(10**40, 3), _Int(5)):
        BiPoly.const(c)
    assert calls["__init__"] == 0
