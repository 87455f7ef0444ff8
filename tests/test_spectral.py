from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from cohiggs.cohomology import LineBundle as O
from cohiggs.errors import (
    BundleMismatch,
    InconsistentRho,
    NotIntegrable,
    NotUnivariate,
    SlotViolation,
)
from cohiggs.exactalg import BiPoly, PolyMat2, Z1, Z2, commutator2, det2, rational_sqrt
from cohiggs.higgs import DecomposableBundle, eigen_quadratic, field, section_Q
from cohiggs.spectral import (
    EtaValue,
    FibreClass,
    SpectralData,
    SpectralPoint,
    exact_sqrt,
    fibre_decomposability,
    fibre_over_point,
    hitchin_map,
    is_generic_quartic,
    rho_consistent,
    spectral_residual,
)
from oracles import (
    constant_rows,
    mat_scale,
    product_case_verify,
    random_integrable_field,
    random_rat,
    random_univariate,
)

B_OO = DecomposableBundle(O(0, 0), O(0, 0))
ALL_BUNDLES = (
    B_OO,
    DecomposableBundle(O(0, 0), O(-1, 0)),
    DecomposableBundle(O(1, 0), O(-1, 0)),
)

DIAG = field(B_OO, a1=Z1, a2=Z2)  # the worked example: rho = (-z1^2, -2 z1 z2, -z2^2)


# -- Hitchin map ---------------------------------------------------------------


def test_hitchin_phi2_zero():
    f = field(B_OO, a1=Z1, b1=Z1 * Z1 - 1, c1=2)
    s = hitchin_map(f)
    assert s.rho1 == det2(f.phi1)
    assert not s.rho12 and not s.rho2


def test_hitchin_section_q_is_right_inverse():
    rng = random.Random(33)
    for _ in range(20):
        rho = random_univariate(rng, 4, 1, 7)
        s = hitchin_map(section_Q(rho, 1))
        assert s.rho1 == rho
        assert not s.rho12 and not s.rho2


def test_hitchin_diagonal_example():
    s = hitchin_map(DIAG)
    assert s.rho1 == -(Z1 * Z1)
    assert s.rho12 == -2 * Z1 * Z2
    assert s.rho2 == -(Z2 * Z2)


def test_hitchin_requires_integrability():
    with pytest.raises(NotIntegrable):
        hitchin_map(field(B_OO, b1=1, c2=1))


def test_hitchin_requires_valid_field():
    # B1 = z1^4 exceeds its slot O(3,0), while the Hitchin image would be zero
    with pytest.raises(SlotViolation):
        hitchin_map(field(DecomposableBundle(O(0, 0), O(-1, 0)), b1=Z1**4))


def test_hitchin_image_always_consistent():
    rng = random.Random(34)
    for bundle in ALL_BUNDLES:
        for _ in range(35):
            f = random_integrable_field(rng, bundle)
            assert rho_consistent(hitchin_map(f))


def test_hitchin_middle_equals_polarized_form():
    # -2 A1 A2 - 2 B1 C2 = -(2 A1 A2 + B1 C2 + C1 B2) on integrable fields
    rng = random.Random(35)
    for bundle in ALL_BUNDLES:
        for _ in range(25):
            f = random_integrable_field(rng, bundle)
            a1, b1, c1, a2, b2, c2 = f.entries()
            s = hitchin_map(f)
            assert s.rho12 == -(2 * a1 * a2 + b1 * c2 + c1 * b2)


def test_rho_consistent_examples():
    assert rho_consistent(SpectralData(-(Z1 * Z1), -2 * Z1 * Z2, -(Z2 * Z2)))
    assert rho_consistent(SpectralData(Z1**4 - 1, BiPoly.zero(), BiPoly.zero()))
    one = BiPoly.const(1)
    assert not rho_consistent(SpectralData(one, one, one))  # 1 != 4


# -- residuals and fibres --------------------------------------------------------


def test_spectral_residual_examples():
    s = hitchin_map(DIAG)
    ok = spectral_residual(s, SpectralPoint(F(1), F(1), F(1), F(1)))
    assert ok == (0, 0, 0)
    cross = spectral_residual(s, SpectralPoint(F(1), F(1), F(1), F(-1)))
    assert cross == (0, 0, -4)
    zero = SpectralData(BiPoly.zero(), BiPoly.zero(), BiPoly.zero())
    assert spectral_residual(zero, SpectralPoint(F(5), F(-2), F(0), F(0))) == (0, 0, 0)


def test_fibre_worked_example():
    fib = fibre_over_point(DIAG, F(1), F(1))
    assert not fib.ramified
    assert len(fib.points) == 2
    vals = {(p[0].as_fraction(), p[1].as_fraction()) for p in fib.points}
    assert vals == {(F(1), F(1)), (F(-1), F(-1))}
    s = hitchin_map(DIAG)
    for e1, e2 in vals:
        assert spectral_residual(s, SpectralPoint(F(1), F(1), e1, e2)) == (0, 0, 0)
    # the cross pairings fail the third equation
    for e1, e2 in ((F(1), F(-1)), (F(-1), F(1))):
        r = spectral_residual(s, SpectralPoint(F(1), F(1), e1, e2))
        assert r[0] == 0 and r[1] == 0 and r[2] != 0


def test_spectral_residual_is_exact_and_rejects_floats():
    s = SpectralData(BiPoly.zero(), BiPoly.zero(), BiPoly.zero())
    r = spectral_residual(s, SpectralPoint(0, 0, 1, 2))
    assert r == (1, 4, 4) and all(type(x) is F for x in r)
    for point in (SpectralPoint(0, 0, 1.0, 0.0), SpectralPoint(F(0), 0.5, F(1), F(0))):
        with pytest.raises(TypeError):
            spectral_residual(s, point)


def test_fibre_rejects_float_point():
    # 0.1 is not read as the binary fraction 3602879701896397/2^55
    with pytest.raises(TypeError):
        fibre_over_point(DIAG, 0.1, F(0))


def test_fibre_nilpotent_single_ramified_point():
    nil = section_Q(BiPoly.zero(), 1)
    fib = fibre_over_point(nil, F(5), F(7))
    assert fib.ramified
    assert len(fib.points) == 1
    assert fib.points[0][0].as_fraction() == 0
    assert fib.points[0][1].as_fraction() == 0


def test_fibre_square_discriminant_pairing():
    # rho1 = -4 at the chosen point: eta1 = +-2, eta2 pinned by the pairing
    f = field(B_OO, a1=2 * Z1, a2=3 * Z2)
    fib = fibre_over_point(f, F(1), F(1))
    vals = {(p[0].as_fraction(), p[1].as_fraction()) for p in fib.points}
    assert vals == {(F(2), F(3)), (F(-2), F(-3))}


def test_fibre_irrational_discriminant_exact():
    f = field(B_OO, a1=Z1, a2=Z2)
    fib = fibre_over_point(f, F(1, 2), F(3))  # disc1 = 1/4? no: -rho1 = z1^2 = 1/4
    # at z1 = 1/2 the discriminant is rational square; pick z2 irrelevant
    assert fib.points[0][0].as_fraction() == F(1, 2)
    g = field(B_OO, a1=Z1 + 1, a2=Z2)
    fib = fibre_over_point(g, F(1), F(1))  # disc1 = 4 -> rational again
    assert fib.points[0][0].as_fraction() == 2
    # honestly irrational: disc1 = 2
    h = field(B_OO, b1=BiPoly.const(2), c1=BiPoly.const(1), b2=2 * Z2 * Z2, c2=Z2 * Z2)
    assert hitchin_map(h).rho1 == BiPoly.const(-2)
    fib = fibre_over_point(h, F(0), F(1))
    e1, e2 = fib.points[0]
    assert not e1.is_rational()
    assert e1.coef**2 * e1.radicand == 2
    assert e2.coef**2 * e2.radicand == fib.disc2
    # pairing residual vanishes symbolically: 2 e1 e2 = pairing_rhs
    assert 2 * e1.coef * e2.coef * e1.radicand == fib.pairing_rhs


def test_fibre_ramified_in_first_axis_only():
    # rho1 vanishes at z1 = 0 while rho2 does not
    f = field(B_OO, a1=Z1, b1=2 * Z1, a2=Z2, b2=2 * Z2)
    fib = fibre_over_point(f, F(0), F(1))
    assert fib.ramified
    assert len(fib.points) == 2
    assert all(p[0].as_fraction() == 0 for p in fib.points)
    assert {p[1].coef**2 * p[1].radicand for p in fib.points} == {fib.disc2}


def test_exact_sqrt_decomposition():
    assert exact_sqrt(F(0)) == EtaValue(F(0), 1)
    assert exact_sqrt(F(9, 4)) == EtaValue(F(3, 2), 1)
    v = exact_sqrt(F(18))
    assert v == EtaValue(F(3), 2)
    assert v.coef**2 * v.radicand == 18
    v = exact_sqrt(F(-75, 8))
    assert v.coef**2 * v.radicand == F(-75, 8)
    assert v.radicand < 0 and abs(v.radicand) % 4 != 0


def test_exact_sqrt_perfect_square_skips_trial_division():
    # 2^31 - 1 is prime: trial division would run through about 10^9
    # candidates before finding it, the perfect-square test needs none
    p = 2_147_483_647
    assert exact_sqrt(F(p * p, 9)) == EtaValue(F(p, 3), 1)
    assert exact_sqrt(F(-p * p, 9)) == EtaValue(F(p, 3), -1)
    assert rational_sqrt(F(p * p, 9)) == F(p, 3)
    assert rational_sqrt(F(-p * p, 9)) is None
    assert rational_sqrt(F(2 * p * p, 9)) is None


# -- quartic genericity ------------------------------------------------------------


def test_is_generic_quartic_examples():
    p = Z1 * (Z1 - 1) * (Z1 - 2) * (Z1 - 3)
    assert is_generic_quartic(p)
    assert not is_generic_quartic(Z1**4)
    # z1^3 homogenizes to X^3 Y: distinct cubic roots iff the cubic part is
    # squarefree, but 0 is a triple root here
    assert not is_generic_quartic(Z1**3)
    # simple root at infinity with squarefree cubic part: still generic
    assert is_generic_quartic(Z1 * (Z1 - 1) * (Z1 + 1))
    # double root at infinity
    assert not is_generic_quartic(Z1 * Z1 - 1)
    assert not is_generic_quartic(BiPoly.zero())
    assert is_generic_quartic(Z2 * (Z2 - 1) * (Z2 - 2) * (Z2 + 2))


def test_is_generic_quartic_errors():
    with pytest.raises(NotUnivariate):
        is_generic_quartic(Z1 * Z2)
    with pytest.raises(SlotViolation):
        is_generic_quartic(Z1**5)


def test_is_generic_quartic_ignores_a_rational_scale():
    """The rows are rho's integer numerators, so a scale by a 4,000-digit
    fraction (either sign) changes no answer, on either axis, for four
    distinct roots, a double root, a generic and a non-generic cubic, a
    quadratic, a constant and zero."""
    k = F(7 * 10**3999 + 1, 3 * 10**3999 - 7)
    cases = [(Z1 - 1) * (Z1 - 2) * (Z1 + 3) * (2 * Z1 - 5), (Z1 - 1) ** 2 * (Z1 + 2) * Z1,
             Z1 * (Z1 - 1) * (Z1 + 1), Z1**3, Z1 * Z1 - 1, BiPoly.const(F(-2, 3)), BiPoly.zero()]
    swap = lambda p: BiPoly({(j, i): c for i, j, c in p.terms()})
    answers = []
    for rho in cases:
        for p in (rho, swap(rho)):
            answers.append(is_generic_quartic(p))
            assert is_generic_quartic(k * p) == is_generic_quartic(-k * p) == answers[-1], p
    assert answers == [True] * 2 + [False] * 2 + [True] * 2 + [False] * 8


def test_fibre_decomposability_examples():
    q1 = Z1 * (Z1 - 1) * (Z1 - 2) * (Z1 - 3)
    assert (
        fibre_decomposability(SpectralData(q1, BiPoly.zero(), BiPoly.zero()))
        is FibreClass.PRODUCT_CASE_AXIS1
    )
    q2 = Z2 * (Z2 - 1) * (Z2 - 2) * (Z2 - 3)
    assert (
        fibre_decomposability(SpectralData(BiPoly.zero(), BiPoly.zero(), q2))
        is FibreClass.PRODUCT_CASE_AXIS2
    )
    assert fibre_decomposability(hitchin_map(DIAG)) is FibreClass.NON_GENERIC_OTHER
    zero = SpectralData(BiPoly.zero(), BiPoly.zero(), BiPoly.zero())
    assert fibre_decomposability(zero) is FibreClass.NON_GENERIC_OTHER


def test_fibre_decomposability_requires_consistency():
    one = BiPoly.const(1)
    with pytest.raises(InconsistentRho):
        fibre_decomposability(SpectralData(one, one, one))


def test_consistent_images_never_generic():
    # rho12^2 = 4 rho1 rho2 with rho12 != 0 makes rho1(z1) rho2(z2) a square,
    # so each factor is a constant times a square and neither quartic has
    # four distinct roots
    rng = random.Random(36)
    with_rho12 = 0
    for bundle in ALL_BUNDLES:
        for _ in range(25):
            s = hitchin_map(random_integrable_field(rng, bundle))
            if s.rho12:
                with_rho12 += 1
                assert not is_generic_quartic(s.rho1)
                assert not is_generic_quartic(s.rho2)
                assert fibre_decomposability(s) is FibreClass.NON_GENERIC_OTHER
    assert with_rho12 > 0


def test_product_case_verify_examples():
    rho = Z1 * (Z1 - 1) * (Z1 - 2) * (Z1 - 3)
    f = section_Q(rho, 1)
    assert product_case_verify(1, -1, 0, f)

    g = field(B_OO, a1=Z1, a2=Z2)
    assert not product_case_verify(0, 0, 0, g)  # Phi_2 != 0

    bundle = DecomposableBundle(O(2, 1), O(0, 1))
    h = field(bundle, a1=Z1 * Z1, b1=Z1**4 - 2, c1=3)
    assert product_case_verify(2, 0, 1, h)
    assert hitchin_map(h).rho1 == det2(h.phi1)

    with pytest.raises(BundleMismatch):
        product_case_verify(3, 3, 3, f)


def test_product_case_residual_factors_through_first_axis():
    # for (rho1, 0, 0) the surface residuals at (z1, z2, eta1, 0) reduce to
    # the plane-curve equation eta1^2 + rho1(z1) = 0, independent of z2
    rho = Z1 * (Z1 - 1) * (Z1 - 2) * (Z1 - 3)
    s = SpectralData(rho, BiPoly.zero(), BiPoly.zero())
    rng = random.Random(37)
    for _ in range(30):
        z1 = random_rat(rng, 5)
        eta1 = random_rat(rng, 5)
        base = spectral_residual(s, SpectralPoint(z1, F(0), eta1, F(0)))
        for _ in range(3):
            z2 = random_rat(rng, 5)
            r = spectral_residual(s, SpectralPoint(z1, z2, eta1, F(0)))
            assert r == base
            assert r[1] == 0 and r[2] == 0
            assert r[0] == eta1 * eta1 + rho.evaluate(z1, F(0))


def test_commuting_matrix_lemma():
    # commuting trace-free 2x2 matrices with the first having distinct
    # rational eigenvalues share all eigenvectors: the eigenvector form of
    # the second is a multiple of the first's
    rng = random.Random(38)
    done = 0
    while done < 100:
        lam = random_rat(rng, 6)
        if not lam:
            continue
        # first matrix: conjugated diag(lam, -lam); second: a polynomial in it
        from oracles import random_constant_invertible
        from cohiggs.exactalg import conjugate2

        p = random_constant_invertible(rng)
        d = PolyMat2([[BiPoly.const(lam), 0], [0, BiPoly.const(-lam)]])
        m1 = conjugate2(d, p).to_bipoly()
        c = random_rat(rng, 6)
        m2 = mat_scale(m1, c)  # trace-free commutant of m1
        assert commutator2(m1, m2).is_zero()
        q1 = eigen_quadratic(constant_rows(m1))
        q2 = eigen_quadratic(constant_rows(m2))
        # q2 = c * q1, so q1 divides q2
        assert q2 == tuple(c * x for x in q1)
        done += 1


def test_spectral_slots_enforced():
    with pytest.raises(SlotViolation):
        SpectralData(Z2, BiPoly.zero(), BiPoly.zero())
    with pytest.raises(SlotViolation):
        SpectralData(BiPoly.zero(), Z1**3, BiPoly.zero())
