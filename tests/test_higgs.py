from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from cohiggs.chern import ChernData, cohiggs_moduli_nonempty
from cohiggs.cohomology import LineBundle as O
from cohiggs.errors import (
    BundleMismatch,
    CoHiggsError,
    LeadingCoefficientZero,
    NotInNormalFormDomain,
    NotStrictlySemistable,
    SlotViolation,
    ZeroC,
    ZeroC1,
)
from cohiggs.exactalg import BiPoly, PolyMat2, Z1, Z2, commutator2, conjugate2, det2
from cohiggs.higgs import (
    _PULLBACK_SLOTS,
    TRIVIAL_EXTENSION_BUNDLE,
    DecomposableBundle,
    HiggsField,
    StabilityClass,
    _coefficient_matrices,
    _eigen_quadratics,
    _rational_common_eigenvector,
    _share_a_root,
    common_eigenvector_exists,
    eigen_quadratic,
    field,
    fits_slot,
    graded_object,
    higgs_shape,
    is_integrable,
    normal_form,
    normal_form_F0,
    normal_form_pm1,
    pullback_from_line,
    s_equiv_rep,
    section_Q,
    stability_classify,
    trivial_extension_normal_form,
    validate_field,
)
from cohiggs.linalg import rank
from oracles import (
    brute_force_common_eigenvector,
    check_conjugation,
    coefficient_matrices_by_coeff,
    graded_object_by_conjugation,
    mat_scale,
    membership,
    normal_form_F0_by_conjugation,
    normal_form_pm1_by_conjugation,
    quadratic_families,
    random_bipoly,
    random_constant_invertible,
    random_field,
    random_integrable_field,
    random_rat,
    random_strictly_semistable_field,
    random_univariate,
    rational_common_eigenvector_by_fractions,
    share_a_root_by_sylvester,
    slot_poly,
    split_extension_normal_form_by_conjugation,
    storage,
    trace_free_part,
    wedge,
)

B_F0 = DecomposableBundle(O(0, 0), O(-1, 0))
B_PM1 = DecomposableBundle(O(1, 0), O(-1, 0))
B_OO = DecomposableBundle(O(0, 0), O(0, 0))
SUPPORTED_BUNDLES = (B_OO, B_F0, B_PM1)


# -- shapes and validation ----------------------------------------------------


def test_higgs_shape_examples():
    s = higgs_shape(B_F0)
    assert (s.b1, s.c1, s.b2, s.c2) == (O(3, 0), O(1, 0), O(1, 2), O(-1, 2))
    s = higgs_shape(B_PM1)
    assert (s.b1, s.c1) == (O(4, 0), O(0, 0))
    s = higgs_shape(B_OO)
    assert (s.a1, s.b1, s.c1) == (O(2, 0),) * 3
    assert (s.a2, s.b2, s.c2) == (O(0, 2),) * 3


def test_fits_slot_is_the_max_exponent_rule():
    # one pass over the monomials answers what the two largest exponents do,
    # zero included, on boxes with negative sides too
    rng = random.Random(36)
    seen = set()
    for _ in range(400):
        d1, d2 = rng.randint(0, 4), rng.randint(0, 4)
        p = random_bipoly(rng, d1, d2, density=rng.choice([0.0, 0.3, 0.8]))
        slot = O(rng.randint(-1, 4), rng.randint(-1, 4))
        want = not p or (max(i for i, _, _ in p.terms()) <= slot.a
                         and max(j for _, j, _ in p.terms()) <= slot.b)
        assert fits_slot(p, slot) == p.within(slot.a, slot.b) == want, (p, slot)
        seen.add((bool(p), want))
    assert seen == {(False, True), (True, True), (True, False)}


def test_validate_field_rejects_forced_zero_slot():
    # the lower-left entry of Phi_2 on O+O(-1,0) has slot O(-1,2), so any
    # nonzero value is invalid
    f = field(B_F0, c2=Z2)
    assert not validate_field(f)


def test_validate_field_zero_field():
    assert validate_field(field(B_F0))


def test_validate_field_degree_box():
    assert not validate_field(field(B_F0, b1=Z1**4))  # slot is O(3,0)
    assert validate_field(field(B_F0, b1=Z1**3))


def test_validate_field_rejects_nonzero_trace():
    # the identity fits every slot of O+O, but it is not trace-free
    assert validate_field(HiggsField(B_OO, PolyMat2.identity(), PolyMat2.zero())) is False
    assert validate_field(HiggsField(B_OO, PolyMat2.zero(), PolyMat2.identity())) is False


def test_trace_free_part():
    a = Z1 + 1
    pure_trace = PolyMat2([[a, 0], [0, a]])
    t1, t2 = trace_free_part(pure_trace, PolyMat2.zero())
    assert t1.is_zero() and t2.is_zero()

    already = PolyMat2([[Z1, Z2], [1, -Z1]])
    t1, _ = trace_free_part(already, PolyMat2.zero())
    assert t1 == already

    m = PolyMat2([[Z1, Z2], [1, Z2]])  # (a b; c d) with a != -d
    t1, _ = trace_free_part(m, PolyMat2.zero())
    half = F(1, 2)
    assert t1 == PolyMat2([[(Z1 - Z2) * half, Z2], [1, (Z2 - Z1) * half]])


def test_field_stores_scalars_as_their_constants():
    # int and Fraction entries are stored exactly as the BiPoly constants
    rng = random.Random(8)
    for _ in range(50):
        vals = [
            rng.choice((0, rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9)), 10**60 + 1))
            for _ in range(6)
        ]
        f = field(B_OO, *vals)
        g = field(B_OO, *(BiPoly.const(v) for v in vals))
        assert storage(f.phi1) == storage(g.phi1) and storage(f.phi2) == storage(g.phi2)
        assert all(type(m.entry(i, j)) is BiPoly for m in (f.phi1, f.phi2)
                   for i in range(2) for j in range(2))


# -- wedge and integrability ---------------------------------------------------


def test_wedge_self_is_twice_commutator():
    rng = random.Random(2)
    for _ in range(20):
        f = random_field(rng, B_OO, height=4)
        lhs = wedge(f, f)
        rhs = mat_scale(commutator2(f.phi1, f.phi2), 2)
        assert lhs == rhs


def test_wedge_vanishes_when_phi2_zero():
    f = field(B_OO, a1=Z1, b1=1)
    assert wedge(f, f).is_zero()


def test_wedge_diagonal_components_commute():
    f = field(B_OO, a1=Z1, a2=Z2)
    assert wedge(f, f).is_zero()


def test_wedge_bundle_mismatch():
    with pytest.raises(BundleMismatch):
        wedge(field(B_OO), field(B_F0))


def test_is_integrable_examples():
    assert is_integrable(field(B_OO, a1=Z1, b1=Z1 * Z1, c1=1))  # Phi_2 = 0
    f = field(B_OO, b1=1, c2=1)  # elementary matrices in different components
    assert not is_integrable(f)
    # univariate multiples of one constant matrix always commute
    m = (F(2), F(-1), F(3))
    g1, g2 = Z1 * Z1 - 1, 2 * Z2
    f = field(
        B_OO,
        a1=g1 * m[0], b1=g1 * m[1], c1=g1 * m[2],
        a2=g2 * m[0], b2=g2 * m[1], c2=g2 * m[2],
    )
    assert is_integrable(f)


@pytest.mark.parametrize("bundle", SUPPORTED_BUNDLES, ids=str)
def test_integrability_iff_commutator_vanishes(bundle):
    rng = random.Random(hash(str(bundle)) % 10_000)
    for k in range(100):
        f = random_integrable_field(rng, bundle) if k % 2 else random_field(rng, bundle, 4)
        assert validate_field(f)
        assert is_integrable(f) == commutator2(f.phi1, f.phi2).is_zero()


def test_shape_rigidity_on_F0():
    # integrable with C1 != 0 forces A2 = B2 = 0: constructed integrable
    # samples plus rejection sampling over a small coefficient set
    rng = random.Random(31)
    checked = 0
    for _ in range(100):
        f = random_integrable_field(rng, B_F0)
        if f.phi1.entry(1, 0):
            checked += 1
            assert not f.phi2.entry(0, 0) and not f.phi2.entry(0, 1)
    assert checked >= 20
    hits = 0
    for _ in range(4000):
        f = field(
            B_F0,
            a1=random_bipoly(rng, 2, 0, 1, 0.4),
            b1=random_bipoly(rng, 3, 0, 1, 0.3),
            c1=random_bipoly(rng, 1, 0, 1, 0.5),
            a2=random_bipoly(rng, 0, 2, 1, 0.4),
            b2=random_bipoly(rng, 1, 2, 1, 0.3),
        )
        if is_integrable(f) and f.phi1.entry(1, 0):
            hits += 1
            assert not f.phi2.entry(0, 0) and not f.phi2.entry(0, 1)
    assert hits >= 50


# -- eigenvector machinery ------------------------------------------------------


def _at(q, x, y):
    """q(x, y) for the coefficient triple (q20, q11, q02)."""
    q20, q11, q02 = q
    return q20 * x * x + q11 * x * y + q02 * y * y


def test_eigen_quadratic_examples():
    q = eigen_quadratic([[1, 0], [0, -1]])
    assert q == (F(0), F(-2), F(0))  # -2xy
    assert _at(q, F(1), F(0)) == 0 and _at(q, F(0), F(1)) == 0

    q = eigen_quadratic([[0, 1], [0, 0]])
    assert q == (F(0), F(0), F(-1))  # -y^2, double root (1,0)

    q = eigen_quadratic([[0, 1], [1, 0]])
    assert q == (F(1), F(0), F(-1))  # x^2 - y^2
    assert _at(q, F(1), F(1)) == 0 and _at(q, F(1), F(-1)) == 0


def test_common_eigenvector_examples():
    assert common_eigenvector_exists([[[1, 0], [0, -1]], [[2, 0], [0, -2]]])
    assert not common_eigenvector_exists([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    # family sharing the eigenvector (1, 1): both quadratics vanish there
    shared = [[[0, 1], [1, 0]], [[1, 0], [2, -1]]]
    assert _at(eigen_quadratic(shared[0]), F(1), F(1)) == 0
    assert _at(eigen_quadratic(shared[1]), F(1), F(1)) == 0
    assert common_eigenvector_exists(shared)
    assert brute_force_common_eigenvector(shared)


def test_eigen_quadratic_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        eigen_quadratic([[1, 0], [0, 1]])


def test_eigen_quadratic_rejects_floats():
    # there is no floating-point mode: 0.5 is not read as 1/2
    with pytest.raises(TypeError):
        eigen_quadratic([[0.5, 1], [0, -0.5]])


def test_common_eigenvector_trivial_families():
    assert common_eigenvector_exists([])
    assert common_eigenvector_exists([[[0, 0], [0, 0]]])


def test_share_a_root_matches_sylvester_rank():
    # the closed form against the Sylvester rows' rank on a few thousand
    # integer families, and on the same families as Fraction matrices
    # (a b; c -a) with quadratic (c, -2a, -b); each case of the rule occurs
    rng = random.Random(14)
    cases = dict.fromkeys(("line", "pencil_root", "pencil_no_root", "all"), 0)
    for k, quads in enumerate(quadratic_families(rng, 3000)):
        want = share_a_root_by_sylvester(quads)
        assert _share_a_root(quads) == want, quads
        if k % 10 == 0:
            mats = [[[F(-q11, 2), -q02], [q20, F(q11, 2)]] for q20, q11, q02 in quads]
            assert common_eigenvector_exists(mats) == want, quads
        span = rank([list(q) for q in quads])
        cases["line" if span <= 1 else "all" if span == 3
              else "pencil_root" if want else "pencil_no_root"] += 1
    assert min(cases.values()) >= 300, cases


def _random_family(rng: random.Random, planted: str, size: int):
    if planted == "rational":
        # common eigenvector P e1 for a random rational basis change P
        p = random_constant_invertible(rng)
        fam = []
        for _ in range(size):
            a, b = random_rat(rng, 10), random_rat(rng, 10)
            upper = PolyMat2([[BiPoly.const(a), BiPoly.const(b)], [BiPoly.const(0), BiPoly.const(-a)]])
            m = conjugate2(upper, p).to_bipoly()
            fam.append([[m.entry(0, 0).coeff(0, 0), m.entry(0, 1).coeff(0, 0)],
                        [m.entry(1, 0).coeff(0, 0), m.entry(1, 1).coeff(0, 0)]])
        return fam
    if planted == "irrational":
        # scalar multiples of (0 1; d 0): eigenvectors (1, +-sqrt(d))
        d = rng.choice([2, 3, 5, 7, 10])
        return [
            [[F(0), c], [c * d, F(0)]]
            for c in (random_rat(rng, 10) for _ in range(size))
        ]
    return [
        [[(a := random_rat(rng, 10)), random_rat(rng, 10)], [random_rat(rng, 10), -a]]
        for _ in range(size)
    ]


def test_common_eigenvector_matches_brute_force_oracle():
    rng = random.Random(97)
    for k in range(200):
        planted = ("rational", "irrational", "free", "free")[k % 4]
        fam = _random_family(rng, planted, rng.randint(2, 6))
        got = common_eigenvector_exists(fam)
        want = brute_force_common_eigenvector(fam)
        assert got == want
        if planted in ("rational", "irrational") and any(
            any(any(x for x in row) for row in m) for m in fam
        ):
            assert got


# -- stability ------------------------------------------------------------------


def test_stability_examples():
    f = field(B_F0, c1=Z1)
    assert stability_classify(f) is StabilityClass.STABLE

    upper = field(B_OO, a1=Z1, b1=2 * Z1, a2=Z2 * Z2, b2=2 * Z2 * Z2)
    assert is_integrable(upper)
    assert stability_classify(upper) is StabilityClass.STRICTLY_SEMISTABLE

    f = field(B_PM1, b1=Z1**4 - 1, c1=1)
    assert stability_classify(f) is StabilityClass.STABLE


def test_stability_unstable_when_dominant_invariant():
    assert stability_classify(field(B_F0, a1=Z1, b1=Z1)) is StabilityClass.UNSTABLE
    assert stability_classify(field(B_F0)) is StabilityClass.UNSTABLE  # zero field
    # dominant summand listed second: the relevant entries are the B's
    swapped = DecomposableBundle(O(-1, 0), O(0, 0))
    assert stability_classify(field(swapped, a1=Z1, c1=Z1)) is StabilityClass.UNSTABLE
    assert stability_classify(field(swapped, b1=Z1)) is StabilityClass.STABLE


def test_stability_never_unstable_on_OO():
    rng = random.Random(12)
    for _ in range(100):
        f = random_integrable_field(rng, B_OO)
        assert stability_classify(f) is not StabilityClass.UNSTABLE


def test_stability_unsupported_cases():
    # equal slopes, L1 != L2: the one class still Unsupported
    b = DecomposableBundle(O(1, 0), O(0, 1))
    assert stability_classify(field(b, a1=Z1)) is StabilityClass.UNSUPPORTED
    # d = (2,0), a twist of O(1,0)+O(-1,0), is decided
    b = DecomposableBundle(O(2, 0), O(0, 0))
    assert stability_classify(field(b, c1=1)) is StabilityClass.STABLE
    # d = (4,0): the lower-left slots O(-2,0) and O(-4,2) are forced to zero,
    # so every field is Unstable and none is Unsupported
    b = DecomposableBundle(O(3, 0), O(-1, 0))
    assert stability_classify(field(b, a1=Z1, b1=Z1**6)) is StabilityClass.UNSTABLE
    with pytest.raises(SlotViolation):
        stability_classify(field(b, c1=1))


def test_unequal_slopes_leave_a_lower_left_slot_only_at_odd_slope_or_two_classes():
    # why mu(d) != 0 never needs Unsupported: where the dominant summand's
    # lower-left slots are not both forced to zero, mu(d) is odd or d is
    # +-(2,0), +-(0,2), the twists of O(1,0)+O(-1,0) and O(0,1)+O(0,-1)
    open_even = set()
    for a, b in itertools.product(range(-6, 7), repeat=2):
        mu = a + b
        if not mu:
            continue
        s = higgs_shape(DecomposableBundle(O(a, b), O(0, 0)))
        low = (s.c1, s.c2) if mu > 0 else (s.b1, s.b2)
        if any(min(slot.a, slot.b) >= 0 for slot in low) and mu % 2 == 0:
            open_even.add((a, b))
    assert open_even == {(2, 0), (-2, 0), (0, 2), (0, -2)}


# -- twist classes and invariances ------------------------------------------------

_BOX = range(-2, 3)


@functools.lru_cache(maxsize=None)
def _box_fields(seed: int) -> tuple[HiggsField, ...]:
    """Three seeded integrable fields on each O(a1,b1)+O(a2,b2) with |a|, |b| <= 2."""
    rng = random.Random(seed)
    return tuple(random_integrable_field(rng, DecomposableBundle(O(a1, b1), O(a2, b2)))
                 for a1, b1, a2, b2 in itertools.product(_BOX, repeat=4) for _ in range(3))


def _twist(f: HiggsField, m: O) -> HiggsField:
    """The same matrices on (L1 + M) + (L2 + M), whose slots are those of L1 + L2."""
    l1, l2 = f.bundle.L1, f.bundle.L2
    return HiggsField(DecomposableBundle(O(l1.a + m.a, l1.b + m.b), O(l2.a + m.a, l2.b + m.b)),
                      f.phi1, f.phi2)


def _mirror(f: HiggsField) -> HiggsField:
    """The axis mirror: O(b,a)+O(d,c) for O(a,b)+O(c,d), Phi_1 and Phi_2
    exchanged along with z1 and z2."""
    def swap(m: PolyMat2) -> PolyMat2:
        return PolyMat2([[BiPoly({(j, i): c for i, j, c in m.entry(r, s).terms()})
                          for s in range(2)] for r in range(2)])

    l1, l2 = f.bundle.L1, f.bundle.L2
    return HiggsField(DecomposableBundle(O(l1.b, l1.a), O(l2.b, l2.a)), swap(f.phi2), swap(f.phi1))


def test_stability_is_twist_invariant_over_the_box():
    # Unsupported is left at equal slopes with L1 != L2 alone
    for f in _box_fields(5):
        got = stability_classify(f)
        l1, l2 = f.bundle.L1, f.bundle.L2
        assert (got is StabilityClass.UNSUPPORTED) == (l1.slope() == l2.slope() and l1 != l2)
        for m in (O(1, 0), O(0, -1), O(-2, 3)):
            assert stability_classify(_twist(f, m)) is got, (f.bundle, m)


def test_semistable_split_fields_lie_in_nonempty_moduli():
    # a Stable or StrictlySemistable field on L1+L2 is a point of the co-Higgs
    # moduli at c1 = c1(L1) + c1(L2), c2 = c1(L1).c1(L2); O(a,b) is b*C0 + a*F
    seen = set()
    for f in _box_fields(5):
        got = stability_classify(f)
        if got in (StabilityClass.STABLE, StabilityClass.STRICTLY_SEMISTABLE):
            seen.add(got)
            (a1, b1), (a2, b2) = (f.bundle.L1.a, f.bundle.L1.b), (f.bundle.L2.a, f.bundle.L2.b)
            assert cohiggs_moduli_nonempty(ChernData(b1 + b2, a1 + a2, b1 * a2 + a1 * b2)), f.bundle
    assert seen == {StabilityClass.STABLE, StabilityClass.STRICTLY_SEMISTABLE}


def test_stability_is_mirror_invariant_over_the_box():
    for f in _box_fields(5):
        g = _mirror(f)
        assert validate_field(g) and is_integrable(g)
        assert stability_classify(g) is stability_classify(f), f.bundle
        assert _mirror(g) == f


def test_stability_is_invariant_under_constant_conjugation_on_LL():
    # a constant invertible psi is an automorphism of L+L
    rng = random.Random(8)
    seen = set()
    for line in (O(0, 0), O(1, -2), O(-1, 3)):
        b = DecomposableBundle(line, line)
        for _ in range(40):
            f = random_integrable_field(rng, b)
            psi = random_constant_invertible(rng)
            g = HiggsField(b, conjugate2(f.phi1, psi).to_bipoly(), conjugate2(f.phi2, psi).to_bipoly())
            assert validate_field(g) and is_integrable(g)
            seen.add(got := stability_classify(f))
            assert stability_classify(g) is got
    assert seen == {StabilityClass.STABLE, StabilityClass.STRICTLY_SEMISTABLE}


def test_stability_requires_valid_field():
    with pytest.raises(SlotViolation):
        stability_classify(field(B_F0, b1=Z1**4))  # slot is O(3,0)


def test_stability_requires_integrability():
    from cohiggs.errors import NotIntegrable

    f = field(B_OO, b1=1, c2=1)
    with pytest.raises(NotIntegrable):
        stability_classify(f)


# -- graded objects and S-equivalence --------------------------------------------


def test_graded_object_upper_triangular():
    f = field(B_OO, a1=Z1, b1=3 * Z1, a2=Z2 * Z2, b2=3 * Z2 * Z2)
    assert is_integrable(f)
    g = graded_object(f)
    assert g.phi1 == PolyMat2([[Z1, 0], [0, -Z1]])
    assert g.phi2 == PolyMat2([[Z2 * Z2, 0], [0, -(Z2 * Z2)]])


def test_graded_object_diagonal_unchanged():
    f = field(B_OO, a1=Z1, a2=Z2)
    assert graded_object(f) == f


def test_graded_object_zero_field():
    g = graded_object(field(B_OO))
    assert g.phi1.is_zero() and g.phi2.is_zero()


def test_graded_object_requires_strictly_semistable():
    # coefficient matrices (0 1; 0 0) and (0 0; 1 0) share no eigenvector
    stable = field(B_OO, b1=BiPoly.const(1), c1=Z1)
    assert stability_classify(stable) is StabilityClass.STABLE
    with pytest.raises(NotStrictlySemistable):
        graded_object(stable)


def test_graded_object_conjugation_invariant_diagonal():
    # proportional upper-triangular pairs stay in one S-equivalence class
    # under constant conjugation
    rng = random.Random(44)
    for _ in range(25):
        a1 = random_univariate(rng, 2, 1, 5)
        a2 = random_univariate(rng, 2, 2, 5)
        c = random_rat(rng, 5)
        f = field(B_OO, a1=a1, b1=a1 * c, a2=a2, b2=a2 * c)
        assert is_integrable(f)
        psi = random_constant_invertible(rng)
        g = HiggsField(
            B_OO,
            conjugate2(f.phi1, psi).to_bipoly(),
            conjugate2(f.phi2, psi).to_bipoly(),
        )
        assert s_equiv_rep(f) == s_equiv_rep(g)


def test_graded_object_irrational_common_eigenvector():
    from cohiggs.errors import IrrationalEigenvector

    # both components are multiples of (0 1; 2 0), whose eigenvectors are
    # (1, +-sqrt(2)): strictly semistable, but the graded object has no
    # rational-coefficient representation
    f = field(B_OO, b1=Z1, c1=2 * Z1, b2=Z2, c2=2 * Z2)
    assert is_integrable(f)
    assert stability_classify(f) is StabilityClass.STRICTLY_SEMISTABLE
    with pytest.raises(IrrationalEigenvector):
        graded_object(f)
    # the rationality test of the eigenvector discriminant 4p is one isqrt,
    # not a trial division up to sqrt(p) with p = 2^61 - 1 prime
    with pytest.raises(IrrationalEigenvector):
        graded_object(field(B_OO, b1=(2**61 - 1) * Z1, c1=Z1))


@pytest.mark.parametrize("height", [9, 2**60], ids=["height9", "bits60"])
def test_graded_object_equals_conjugation_reference(height):
    # the eigenvalue diagonal equals the diagonal after conjugating the
    # common eigenvector to e1, in value and in storage; the zero field,
    # v = [1:0] and v = (x0, 1) with x0 != 0 all occur
    rng = random.Random(height)
    seen = set()
    for f in [field(B_OO)] + [random_strictly_semistable_field(rng, height) for _ in range(200)]:
        quads = _eigen_quadratics(_coefficient_matrices(f))
        x0, y0 = _rational_common_eigenvector(quads) if quads else (None, None)
        seen.add("zero" if not quads else "[1:0]" if not y0 else "x0 = 0" if not x0 else "x0 != 0")
        g, ref = graded_object(f), graded_object_by_conjugation(f)
        assert g == ref
        assert storage(g.phi1) == storage(ref.phi1) and storage(g.phi2) == storage(ref.phi2)
    assert {"zero", "[1:0]", "x0 != 0"} <= seen


def _irrational_field(rng: random.Random, height: int) -> HiggsField:
    """g1 K d/dz1 + g2 K d/dz2 with K = (0 1; d 0) for a non-square d, so the
    common eigenvectors (1, +-sqrt(d)) are irrational, conjugated by a random
    constant automorphism."""
    d = rng.choice([2, 3, 5, 6, 7, 10])
    g1, g2 = random_univariate(rng, 2, 1, height), random_univariate(rng, 2, 2, height)
    f = field(B_OO, b1=g1, c1=g1 * d, b2=g2, c2=g2 * d)
    psi = random_constant_invertible(rng)
    return HiggsField(B_OO, conjugate2(f.phi1, psi).to_bipoly(), conjugate2(f.phi2, psi).to_bipoly())


def _positive_multiple(ints, fracs) -> bool:
    """ints = t * fracs entry by entry, for one rational t > 0."""
    pairs = [(i, q) for i, q in zip(ints, fracs) if q]
    if not pairs:
        return not any(ints)
    t = F(pairs[0][0]) / pairs[0][1]
    return t > 0 and all(F(i) == t * q for i, q in zip(ints, fracs))


@pytest.mark.parametrize("height", [9, 2**60], ids=["height9", "bits60"])
def test_integer_eigenvector_path_matches_fraction_oracle(height):
    # the O+O facts on integer numerators agree with the Fraction reference:
    # each component's matrices are one positive multiple of its rational
    # ones, and the shared-root verdict and the rational common eigenvector
    # are the same; the zero field, rational, irrational and no common
    # roots all occur
    rng = random.Random(height + 7)
    seen = set()
    for k in range(160):
        kind = k % 4
        if kind == 0:
            f = random_strictly_semistable_field(rng, height) if k else field(B_OO)
        elif kind == 1:
            f = _irrational_field(rng, height)
        else:
            a1, b1, c1 = (slot_poly(rng, O(2, 0), height) for _ in range(3))
            f = field(B_OO, a1=a1, b1=b1, c1=c1)
        ints, mats = _coefficient_matrices(f), coefficient_matrices_by_coeff(f)
        for comp in (slice(0, 3), slice(3, 6)):
            flat = [(a, b, c) for (a, b), (c, _) in mats[comp]]
            assert _positive_multiple(sum(ints[comp], ()), sum(flat, ()))
        quads = _eigen_quadratics(ints)
        shared = _share_a_root(quads)
        v = _rational_common_eigenvector(quads)
        assert shared == brute_force_common_eigenvector(mats)
        assert v == rational_common_eigenvector_by_fractions(mats)
        seen.add("zero" if not quads else "none" if not shared
                 else "irrational" if v is None else "rational")
    assert seen == {"zero", "rational", "irrational", "none"}


@pytest.mark.parametrize("height", [9, 2**60], ids=["height9", "bits60"])
def test_s_equiv_rep_of_graded_object(height):
    # the graded object is its own graded object, so its representative is
    # the field's; the zero field included
    rng = random.Random(height + 1)
    for f in [field(B_OO)] + [random_strictly_semistable_field(rng, height) for _ in range(100)]:
        g = graded_object(f)
        assert graded_object(g) == g
        assert s_equiv_rep(g) == s_equiv_rep(f)


def test_s_equiv_rep_sign_normalization():
    f = field(B_OO, a1=-Z1)
    a1, a2 = s_equiv_rep(f)
    assert a1 == Z1 and a2 == BiPoly.zero()

    zero_sum = field(B_OO, a1=BiPoly.const(2), a2=BiPoly.const(-2))
    a1, a2 = s_equiv_rep(zero_sum)
    assert a1 + a2 == BiPoly.zero()
    flipped = field(B_OO, a1=BiPoly.const(-2), a2=BiPoly.const(2))
    assert s_equiv_rep(zero_sum) == s_equiv_rep(flipped)

    assert s_equiv_rep(field(B_OO)) == (BiPoly.zero(), BiPoly.zero())


def test_s_equiv_rep_transpose_conjugate():
    rng = random.Random(77)
    for _ in range(20):
        a1 = random_univariate(rng, 2, 1, 5)
        a2 = random_univariate(rng, 2, 2, 5)
        c = random_rat(rng, 5)
        f = field(B_OO, a1=a1, b1=a1 * c, a2=a2, b2=a2 * c)
        assert is_integrable(f)
        # transpose swaps B and C entries
        g = field(B_OO, a1=a1, c1=a1 * c, a2=a2, c2=a2 * c)
        assert is_integrable(g)
        assert s_equiv_rep(f) == s_equiv_rep(g)


# -- normal forms -----------------------------------------------------------------


def test_normal_form_F0_example():
    f = field(B_F0, a1=Z1 * Z1, c1=Z1)
    rep, psi = normal_form_F0(f)
    assert rep.phi1.entry(0, 0) == BiPoly.zero()  # A1(0) = 0
    assert rep.phi1.entry(1, 0) == Z1
    assert rep.phi1.entry(0, 1) == Z1**3  # frozen via the conjugation identity
    assert check_conjugation(rep.phi1, psi, f.phi1)
    assert psi == PolyMat2([[1, -Z1], [0, 1]])


def test_normal_form_F0_fixed_point():
    f = field(B_F0, a1=BiPoly.const(3), b1=Z1 * Z1, c1=Z1 - 2)
    rep, psi = normal_form_F0(f)
    rep2, psi2 = normal_form_F0(rep)
    assert rep2 == rep
    assert psi2 == PolyMat2.identity()


def test_normal_form_F0_preserves_det():
    rng = random.Random(3)
    for _ in range(40):
        c0 = random_rat(rng, 6)
        c1 = random_rat(rng, 6)
        if not c1:
            continue
        f = field(
            B_F0,
            a1=random_univariate(rng, 2, 1, 6),
            b1=random_univariate(rng, 3, 1, 6),
            c1=BiPoly.from_univariate([c0, c1], 1),
        )
        rep, psi = normal_form_F0(f)
        assert det2(rep.phi1) == det2(f.phi1)
        assert check_conjugation(rep.phi1, psi, f.phi1)
        assert validate_field(rep)


@pytest.mark.parametrize(
    "height, draws", [(9, 200), (2**60, 200), (10**4000, 4)], ids=["height9", "bits60", "digits4000"]
)
def test_normal_form_F0_equals_conjugation_reference(height, draws):
    # the closed-form representative equals the conjugate by psi, in value
    # and in storage, and psi is the reference's; the last case draws
    # numerators of up to 4,000 digits, near CPython's int<->str cap
    rng = random.Random(height + 1)
    for _ in range(draws):
        c = BiPoly.zero()
        while not c.coeff(1, 0):
            c = random_univariate(rng, 1, 1, height)
        f = field(B_F0, a1=random_univariate(rng, 2, 1, height),
                  b1=random_univariate(rng, 3, 1, height), c1=c)
        (rep, psi), (ref, ref_psi) = normal_form_F0(f), normal_form_F0_by_conjugation(f)
        assert (rep, psi) == (ref, ref_psi)
        assert storage(rep.phi1) == storage(ref.phi1) and storage(psi) == storage(ref_psi)


def test_normal_form_F0_errors():
    with pytest.raises(LeadingCoefficientZero):
        normal_form_F0(field(B_F0, c1=BiPoly.const(1)))
    with pytest.raises(NotInNormalFormDomain):
        normal_form_F0(field(B_F0, c1=Z1, a2=Z2))
    with pytest.raises(BundleMismatch):
        normal_form_F0(field(B_OO, c1=Z1))


def test_normal_form_pm1_example():
    f = field(B_PM1, a1=Z1 * Z1, c1=1)
    rep = normal_form_pm1(f)
    # top-right is C1*B1 + A1^2 = -det Phi_1 (the sign that preserves det)
    assert rep.phi1 == PolyMat2([[0, Z1**4], [1, 0]])
    assert det2(rep.phi1) == det2(f.phi1)


def test_normal_form_pm1_a1_zero_unchanged():
    b = Z1**4 - 2
    f = field(B_PM1, b1=b, c1=1)
    assert normal_form_pm1(f).phi1 == PolyMat2([[0, b], [1, 0]])


def test_normal_form_pm1_equal_det_equal_rep():
    rng = random.Random(8)
    for _ in range(30):
        a1 = random_univariate(rng, 2, 1, 5)
        b1 = random_univariate(rng, 4, 1, 5)
        c = random_rat(rng, 5) or F(1)
        f = field(B_PM1, a1=a1, b1=b1, c1=c)
        g_b1 = b1 * c + a1 * a1  # same det, different presentation
        g = field(B_PM1, b1=g_b1, c1=1)
        assert det2(f.phi1) == det2(g.phi1)
        assert normal_form_pm1(f) == normal_form_pm1(g)
        # idempotent
        assert normal_form_pm1(normal_form_pm1(f)) == normal_form_pm1(f)


def test_normal_form_pm1_zero_c1():
    with pytest.raises(ZeroC1):
        normal_form_pm1(field(B_PM1, a1=Z1))


def test_normal_form_pm1_is_section_q_of_det():
    rng = random.Random(9)
    for _ in range(40):
        a1 = random_univariate(rng, 2, 1)
        c = random_rat(rng) or F(1)
        f = field(B_PM1, a1=a1, b1=random_univariate(rng, 4, 1), c1=c)
        assert normal_form_pm1(f) == section_Q(det2(f.phi1), 1) == normal_form_pm1_by_conjugation(f)


def test_normal_form_pm1_error_order():
    off_slot = PolyMat2([[Z2, 0], [0, -Z2]])  # A1 = z2 lies outside O(2,0)
    with pytest.raises(BundleMismatch):
        normal_form_pm1(HiggsField(B_OO, off_slot, off_slot))
    with pytest.raises(SlotViolation):
        normal_form_pm1(HiggsField(B_PM1, off_slot, off_slot))
    with pytest.raises(NotInNormalFormDomain):
        normal_form_pm1(field(B_PM1, a1=Z1, a2=Z2))  # C1 = 0 as well
    with pytest.raises(ZeroC1):
        normal_form_pm1(field(B_PM1, a1=Z1))


# -- normal forms by twist class -------------------------------------------------

TWISTS = (O(1, 0), O(0, -1), O(-2, 3))


def _twisted(f: HiggsField, m: O) -> HiggsField:
    """f on E + M = (L1 + M) + (L2 + M): the same matrices and twist class."""
    l1, l2 = f.bundle.L1, f.bundle.L2
    bundle = DecomposableBundle(O(l1.a + m.a, l1.b + m.b), O(l2.a + m.a, l2.b + m.b))
    return HiggsField(bundle, f.phi1, f.phi2)


def _in_each_domain(rng: random.Random):
    """(form, its conjugation reference, a random field of its domain on its
    literal bundle) for each of the three normal forms."""
    c = BiPoly.zero()
    while not c.coeff(1, 0):
        c = random_univariate(rng, 1, 1)
    yield (lambda f: normal_form_F0(f)[0], lambda f: normal_form_F0_by_conjugation(f)[0],
           field(B_F0, a1=random_univariate(rng, 2, 1), b1=random_univariate(rng, 3, 1), c1=c))
    yield (normal_form_pm1, normal_form_pm1_by_conjugation,
           field(B_PM1, a1=random_univariate(rng, 2, 1), b1=random_univariate(rng, 4, 1),
                 c1=random_rat(rng) or F(1)))
    b2 = BiPoly.from_univariate([random_rat(rng), random_rat(rng) or F(1)], 1)
    yield (trivial_extension_normal_form, split_extension_normal_form_by_conjugation,
           field(TRIVIAL_EXTENSION_BUNDLE, a2=random_univariate(rng, 2, 2), b2=b2))


@pytest.mark.parametrize("m", TWISTS, ids=str)
def test_normal_forms_follow_the_twist_class(m):
    # a twist keeps End E, so the representative of f + M is that of f with
    # the bundle relabelled, and it is still the conjugate the references build
    rng = random.Random(m.a * 7 + m.b)
    for _ in range(20):
        for form, by_conjugation, f in _in_each_domain(rng):
            g = _twisted(f, m)
            rep = form(g)
            assert rep == _twisted(form(f), m) == by_conjugation(g)
            assert rep.bundle == g.bundle and form(rep) == rep
            assert normal_form(g)[0] == rep


@pytest.mark.parametrize("m", TWISTS, ids=str)
def test_normal_form_F0_psi_conjugates_the_twisted_input(m):
    rng = random.Random(m.a * 11 + m.b)
    for _ in range(20):
        _, _, f = next(_in_each_domain(rng))
        g = _twisted(f, m)
        rep, psi = normal_form_F0(g)
        assert check_conjugation(rep.phi1, psi, g.phi1)
        assert (rep, psi) == normal_form_F0_by_conjugation(g) == normal_form(g)
        assert psi == normal_form_F0(f)[1]


def test_each_normal_form_refuses_the_other_classes():
    # the domain check reads the twist class: a twist of another form's
    # bundle, or O+O, raises BundleMismatch before any slot is read
    rng = random.Random(12)
    cases = list(_in_each_domain(rng))
    for k, (form, _, _) in enumerate(cases):
        for j, (_, _, f) in enumerate(cases):
            if j != k:
                with pytest.raises(BundleMismatch):
                    form(_twisted(f, O(1, 3)))
        with pytest.raises(BundleMismatch):
            form(field(DecomposableBundle(O(4, 1), O(4, 1))))


def test_normal_form_dispatch_by_twist_class():
    f0 = field(B_F0, a1=Z1 * Z1, c1=Z1)
    pm1 = field(B_PM1, a1=Z1 * Z1, c1=1)
    split = field(TRIVIAL_EXTENSION_BUNDLE, a2=Z2, b2=2 * Z1 - 2)
    assert normal_form(f0) == normal_form_F0(f0)
    assert normal_form(pm1) == (normal_form_pm1(pm1), None)
    assert normal_form(split) == (trivial_extension_normal_form(split), None)
    # the swap of summands (d -> -d) and the mirror z1 <-> z2 are other classes
    for bundle in (DecomposableBundle(O(2, 2), O(0, 0)), B_OO, DecomposableBundle(O(-1, 0), O(0, 0)),
                   DecomposableBundle(O(0, 2), O(0, 0))):
        with pytest.raises(CoHiggsError) as info:
            normal_form(field(bundle))
        assert info.type is CoHiggsError
        assert str(info.value) == f"no normal form implemented for bundle {bundle}"


def test_section_q_nilpotent():
    f = section_Q(BiPoly.zero(), 1)
    assert det2(f.phi1) == BiPoly.zero()
    assert f.phi1.entry(1, 0) == BiPoly.const(1)


def test_section_q_det_is_identity():
    rng = random.Random(55)
    for k in range(50):
        axis = 1 + (k % 2)
        rho = random_univariate(rng, 4, axis, 8)
        f = section_Q(rho, axis)
        mat = f.phi1 if axis == 1 else f.phi2
        assert det2(mat) == rho
        assert validate_field(f)
        assert stability_classify(f) is StabilityClass.STABLE


def test_section_q_and_pullback_bundles_and_entries_on_both_axes():
    # the matrix lands on Phi_axis of the bundle for that axis, the other
    # component zero; axis 2 mirrors the axis-1 bundle
    for axis, z, bundles in (
        (1, Z1, (B_PM1, B_F0)),
        (2, Z2, (DecomposableBundle(O(0, 1), O(0, -1)), DecomposableBundle(O(0, 0), O(0, -1)))),
    ):
        rho = z**4 - 3 * z + F(1, 2)
        a, b, c = z * z - 1, F(2, 3) * z**3, 3 * z + 1
        for f, mat, bundle in (
            (section_Q(rho, axis), PolyMat2([[0, -rho], [1, 0]]), bundles[0]),
            (pullback_from_line(a, b, c, axis).field, PolyMat2([[a, b], [c, -a]]), bundles[1]),
        ):
            assert f.bundle == bundle
            placed, other = (f.phi1, f.phi2) if axis == 1 else (f.phi2, f.phi1)
            assert storage(placed) == storage(mat)
            assert other.is_zero()
        assert pullback_from_line(a, b, c, axis).rho == -(a * a + b * c)


def test_section_q_slot_violation():
    # the one slot check names the section and its slot on either axis
    for rho, axis, slot in ((Z1**5, 1, "O(4,0)"), (Z2, 1, "O(4,0)"),
                            (Z2**5, 2, "O(0,4)"), (Z1, 2, "O(0,4)")):
        with pytest.raises(SlotViolation) as exc:
            section_Q(rho, axis)
        assert str(exc.value) == f"rho does not fit the slot {slot}"


# per axis: an entry one degree over its slot, and the other variable, each with the slot
_PULLBACK_OVERSHOOT = {
    1: {"a": (Z1**3, Z2, "O(2,0)"), "b": (Z1**4, Z2, "O(3,0)"), "c": (Z1**2, Z1 * Z2, "O(1,0)")},
    2: {"a": (Z2**3, Z1, "O(0,2)"), "b": (Z2**4, Z1, "O(0,3)"), "c": (Z2**2, Z1 * Z2, "O(0,1)")},
}


@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_pullback_slot_violation_names_the_entry(name, axis):
    *bad, slot = _PULLBACK_OVERSHOOT[axis][name]
    for poly in bad:
        entries = {"a": BiPoly.zero(), "b": BiPoly.zero(), "c": BiPoly.const(1), name: poly}
        with pytest.raises(SlotViolation) as exc:
            pullback_from_line(**entries, axis=axis)
        assert str(exc.value) == f"{name} does not fit the slot {slot}"


def test_pullback_slots_of_axis_2_mirror_axis_1():
    assert _PULLBACK_SLOTS[1] == (O(2, 0), O(3, 0), O(1, 0))
    assert _PULLBACK_SLOTS[2] == tuple(O(s.b, s.a) for s in _PULLBACK_SLOTS[1])


def test_section_q_and_pullback_reject_axis_3():
    with pytest.raises(ValueError, match="axis"):
        section_Q(BiPoly.const(1), 3)
    with pytest.raises(ValueError, match="axis"):
        pullback_from_line(BiPoly.zero(), BiPoly.zero(), BiPoly.const(1), 3)


@pytest.mark.parametrize("axis", [1.0, True, 2.0])
def test_section_q_and_pullback_reject_non_int_axis(axis):
    # each compares equal to 1 or 2, so a range test alone would let it in
    with pytest.raises(TypeError, match="axis must be an int"):
        section_Q(BiPoly.const(1), axis)
    with pytest.raises(TypeError, match="axis must be an int"):
        pullback_from_line(Z1, Z1, BiPoly.const(1), axis)


def test_pullback_nilpotent():
    pb = pullback_from_line(BiPoly.zero(), BiPoly.zero(), Z1, 1)
    assert pb.rho == BiPoly.zero()
    for p in range(-3, 4):
        assert membership(pb, F(p), F(0))
        assert not membership(pb, F(p), F(1))


def test_pullback_quartic_example():
    pb = pullback_from_line(Z1 * Z1, BiPoly.zero(), BiPoly.const(1), 1)
    assert pb.rho == -(Z1**4)
    assert membership(pb, F(1), F(1)) and membership(pb, F(1), F(-1))
    assert not membership(pb, F(1), F(2))


def test_pullback_conjugation_preserves_rho():
    rng = random.Random(21)
    for _ in range(20):
        a = random_univariate(rng, 2, 1, 5)
        b = random_univariate(rng, 3, 1, 5)
        c = random_univariate(rng, 1, 1, 5)
        if not c:
            continue
        pb = pullback_from_line(a, b, c, 1)
        # conjugate by an automorphism (1 P; 0 q) of O+O(-1,0)
        p_sec = random_univariate(rng, 1, 1, 3)
        q = random_rat(rng, 4) or F(1)
        psi = PolyMat2([[BiPoly.const(1), p_sec], [BiPoly.const(0), BiPoly.const(q)]])
        conj = conjugate2(pb.field.phi1, psi).to_bipoly()
        assert det2(conj) == pb.rho


def test_pullback_axis2_and_errors():
    pb = pullback_from_line(Z2 * Z2, BiPoly.zero(), BiPoly.const(1), 2)
    assert pb.field.bundle == DecomposableBundle(O(0, 0), O(0, -1))
    assert pb.rho == -(Z2**4)
    with pytest.raises(ZeroC):
        pullback_from_line(Z1, BiPoly.zero(), BiPoly.zero(), 1)
    with pytest.raises(SlotViolation):
        pullback_from_line(Z1**3, BiPoly.zero(), BiPoly.const(1), 1)
