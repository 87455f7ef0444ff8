from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
import time
from fractions import Fraction as F

import pytest

from cohiggs import _laurent as lau
from cohiggs import extension as ext
from cohiggs.cohomology import LineBundle as O
from cohiggs.errors import (
    InconsistentPoint,
    LeadingCoefficientZero,
    NotInNormalFormDomain,
    SlotViolation,
    TrivialExtension,
)
from cohiggs.exactalg import BiPoly, PolyMat2, Z1, Z2, det2
from cohiggs.extension import (
    TRIVIAL_EXTENSION_BUNDLE,
    TWIST_02,
    TWIST_20,
    Dichotomy,
    ExtParams,
    ModuliPoint,
    Phi1Params,
    Phi2Params,
    Stratum,
    TrivialFieldData,
    Twist,
    _ANSATZ_BOX,
    _v1_to_v2,
    _v1_to_v3,
    build_phi1,
    build_phi2,
    dichotomy_check,
    end0T_dimension,
    glue_check,
    stratum_classify,
    trivial_extension_normal_form,
    weak_iso,
)
from cohiggs.higgs import field
from cohiggs.linalg import rank
from oracles import (
    build_phi1_termwise,
    build_phi2_termwise,
    columns_of,
    dense_rank,
    dichotomy_by_commutator,
    end_rep3,
    ext_cocycle,
    image_glue_check,
    laurent_regular,
    mat_add,
    mat_vec,
    random_bipoly,
    random_rat,
    rep_v1_to_v2,
    rep_v1_to_v3,
    split_extension_normal_form_by_conjugation,
    storage,
)

E01 = ExtParams(F(0), F(1))
E10 = ExtParams(F(1), F(0))
E37 = ExtParams(F(3), F(7))


def _random_ext(rng: random.Random) -> ExtParams:
    while True:
        e = ExtParams(random_rat(rng, 5), random_rat(rng, 5))
        if not e.is_trivial():
            return e


def _random_p1(rng: random.Random) -> Phi1Params:
    return Phi1Params(*(random_rat(rng, 6) for _ in range(6)))


def _random_p2(rng: random.Random) -> Phi2Params:
    return Phi2Params(*(random_rat(rng, 6) for _ in range(5)))


# -- transition matrices -------------------------------------------------------


def _reference_reps(u: F, v: F):
    """The four displayed 3x3 transitions, hard-coded as Laurent polynomials."""

    def L(d):
        return sum((lau.monomial(i, j, c) for (i, j), c in d.items()), BiPoly.zero())

    zero = BiPoly.zero()
    q_sq = {(2, 0): u * u, (1, 0): 2 * u * v, (0, 0): v * v}
    g12_20 = [
        [L({(0, 0): 1}), zero, L({(1, 1): u, (0, 1): v})],
        [L({(1, -1): -2 * u, (0, -1): -2 * v}), L({(0, -2): 1}), -L(q_sq)],
        [zero, zero, L({(0, 2): 1})],
    ]
    g13_20 = [
        [L({(2, 0): 1}), zero, zero],
        [zero, L({(3, 0): 1}), zero],
        [zero, zero, L({(1, 0): 1})],
    ]
    g12_02 = [
        [L({(0, 2): 1}), zero, L({(1, 3): u, (0, 3): v})],
        [L({(1, 1): -2 * u, (0, 1): -2 * v}), L({(0, 0): 1}), -(L(q_sq) * L({(0, 2): 1}))],
        [zero, zero, L({(0, 4): 1})],
    ]
    g13_02 = [
        [L({(0, 0): 1}), zero, zero],
        [zero, L({(1, 0): 1}), zero],
        [zero, zero, L({(-1, 0): 1})],
    ]
    return {
        ("g12", TWIST_20): g12_20,
        ("g13", TWIST_20): g13_20,
        ("g12", TWIST_02): g12_02,
        ("g13", TWIST_02): g13_02,
    }


def _g12E(e: ExtParams) -> list[list[BiPoly]]:
    return [[lau.monomial(0, -1), ext_cocycle(e)], [BiPoly.zero(), Z2]]


_G13E = [[BiPoly.const(1), BiPoly.zero()], [BiPoly.zero(), lau.monomial(-1, 0)]]


def rep_v2_to_v1(e: ExtParams, twist: Twist) -> list[list[BiPoly]]:
    """Chart-V2 -> chart-V1 transition of the twisted trace-free endomorphisms."""
    return end_rep3(_g12E(e), lau.monomial(0, twist[1]))


def rep_v3_to_v1(twist: Twist) -> list[list[BiPoly]]:
    return end_rep3(_G13E, lau.monomial(twist[0], 0))


def test_derived_equals_displayed_transitions():
    u, v = F(3), F(7)
    ref = _reference_reps(u, v)
    e = ExtParams(u, v)
    assert rep_v2_to_v1(e, TWIST_20) == ref[("g12", TWIST_20)]
    assert rep_v3_to_v1(TWIST_20) == ref[("g13", TWIST_20)]
    assert rep_v2_to_v1(e, TWIST_02) == ref[("g12", TWIST_02)]
    assert rep_v3_to_v1(TWIST_02) == ref[("g13", TWIST_02)]


def _transition_classes():
    """Classes with u or v zero, small, and of 4-100-bit fractions."""
    rng = random.Random(41)

    def big():
        n = rng.getrandbits(rng.randint(4, 100)) | 1
        return F(n * rng.choice([-1, 1]), rng.getrandbits(rng.randint(4, 100)) | 1)

    fixed = [E01, E10, E37, ExtParams(F(-1, 2), F(0)), ExtParams(F(0), F(5, 3))]
    return fixed + [ExtParams(big(), big()) for _ in range(20)] + [
        ExtParams(big(), F(0)) if k % 2 else ExtParams(F(0), big()) for k in range(6)
    ]


def test_closed_form_transitions_equal_conjugation():
    """V1 -> V3 is the conjugation itself; V1 -> V2 is d^2 times it, with
    d = lcm(den u, den v), so that every factor is an int."""
    for twist in (TWIST_20, TWIST_02):
        v3 = _v1_to_v3(twist)
        assert tuple(set(col) for col in v3) == columns_of(rep_v1_to_v3(twist))
        assert all(type(c) is int and c for col in v3 for *_, c in col)
        for e in _transition_classes():
            dd = math.lcm(e.u.denominator, e.v.denominator) ** 2
            reference = columns_of(rep_v1_to_v2(e, twist))
            scaled = tuple({(*t, c * dd) for *t, c in col} for col in reference)
            v2 = _v1_to_v2(e, twist)
            assert tuple(set(col) for col in v2) == scaled
            # no term is repeated within a column, and each is a nonzero int
            assert all(len(set(col)) == len(col) for col in v2)
            assert all(type(c) is int and c for col in v2 for *_, c in col)


def test_transitions_are_immutable():
    e = ExtParams(F(3, 4), F(-5))
    for twist in (TWIST_20, TWIST_02):
        for first in (_v1_to_v2(e, twist), _v1_to_v3(twist)):
            hash(first)  # tuples of tuples of ints all the way down
            assert all(type(x) is int for col in first for term in col for x in term)
            with pytest.raises(TypeError):
                first[0][0] = (9, 9, 9, 9)
            with pytest.raises(AttributeError):
                first[0].append((2, 0, 0, 1))
        assert _v1_to_v2(e, twist) == _v1_to_v2(ExtParams(F(3, 4), F(-5)), twist)
        # d = 4: the factors 1, 2u = 3/2 and 2v = -10, times d^2 = 16
        assert set(_v1_to_v2(e, twist)[0]) == {
            (0, 0, -twist[1], 16), (1, 1, 1 - twist[1], 24), (1, 0, 1 - twist[1], -160)
        }


# -- closed-form constructors ---------------------------------------------------


def test_build_phi1_zero_params():
    assert build_phi1(E10, Phi1Params()).is_zero()


def test_build_phi1_c12_only():
    m = build_phi1(E10, Phi1Params(c12=F(1)))
    assert m.entry(0, 0) == Z1 * Z1 * Z2  # A1 = u c12 z1^2 z2 with u=1
    assert m.entry(0, 1) == -(Z1**3)  # B1 = -u^2 c12 z1^3
    assert m.entry(1, 0) == Z1 * Z2 * Z2


def test_build_phi1_c01_only():
    m = build_phi1(E01, Phi1Params(c01=F(1)))
    assert m.entry(0, 0) == BiPoly.const(F(1, 2))  # A1 = v c01 / 2
    assert m.entry(0, 1) == BiPoly.zero()
    assert m.entry(1, 0) == Z2


def test_build_phi2_examples():
    m = build_phi2(E01, Phi2Params(a02=F(1)))
    assert m.entry(0, 1) == -2 * Z2  # b01 = -2 v a02
    m = build_phi2(E10, Phi2Params(a02=F(1)))
    assert m.entry(0, 1) == -2 * Z1 * Z2  # b11 = -2 u a02
    assert build_phi2(E37, Phi2Params()).is_zero()
    assert build_phi2(E37, Phi2Params(b00=F(2), b10=F(3))).entry(0, 1) == 3 * Z1 + 2


def _assert_same_storage(got: PolyMat2, want: PolyMat2) -> None:
    assert got == want
    for i in range(2):
        for j in range(2):
            x, y = got.entry(i, j), want.entry(i, j)
            assert (x._den, x._terms) == (y._den, y._terms)
            # int parameters give int storage too
            assert type(x._den) is int and all(type(n) is int for n in x._terms.values())


def test_closed_forms_equal_termwise_reference():
    rng = random.Random(43)

    def coeff():
        k = rng.randrange(4)
        if k == 0:
            return 0
        if k == 1:
            return rng.randint(-9, 9)
        return F(rng.getrandbits(rng.randint(4, 100)) * rng.choice([-1, 1]),
                 rng.getrandbits(rng.randint(4, 100)) | 1)

    huge = ExtParams(F(int("7" * 4000) + 2, int("3" * 3999 + "1")),
                     F(-int("5" * 4000) - 6, int("9" * 3999 + "7")))
    ints = [ExtParams(3, -2), ExtParams(0, 5), ExtParams(-4, 0), ExtParams(0, 0)]
    classes = _transition_classes() + ints + [huge]
    assert any(not e.u for e in classes) and any(not e.v for e in classes)
    for e in classes:
        p1s = [Phi1Params(), Phi1Params(*[1] * 6)]
        p1s += [Phi1Params(**{k: F(1)}) for k in ("c00", "c01", "c02", "c10", "c11", "c12")]
        p1s += [Phi1Params(*(coeff() for _ in range(6))) for _ in range(3)]
        p2s = [Phi2Params(), Phi2Params(*[1] * 5)]
        p2s += [Phi2Params(**{k: F(1)}) for k in ("a00", "a01", "a02", "b00", "b10")]
        p2s += [Phi2Params(*(coeff() for _ in range(5))) for _ in range(3)]
        for p1 in p1s:
            _assert_same_storage(build_phi1(e, p1), build_phi1_termwise(e, p1))
        for p2 in p2s:
            _assert_same_storage(build_phi2(e, p2), build_phi2_termwise(e, p2))


def test_glue_check_accepts_constructors():
    rng = random.Random(13)
    for _ in range(100):
        e = _random_ext(rng)
        assert glue_check(e, build_phi1(e, _random_p1(rng)), TWIST_20)
        assert glue_check(e, build_phi2(e, _random_p2(rng)), TWIST_02)


def test_glue_check_rejects_perturbation():
    rng = random.Random(14)
    for _ in range(10):
        e = _random_ext(rng)
        m = build_phi1(e, _random_p1(rng))
        perturbed = PolyMat2(
            [
                [m.entry(0, 0), m.entry(0, 1) + 1],  # bump the b00 coefficient
                [m.entry(1, 0), m.entry(1, 1)],
            ]
        )
        assert not glue_check(e, perturbed, TWIST_20)


def test_glue_check_requires_trace_free_section():
    with pytest.raises(ValueError, match="trace-free"):
        glue_check(ExtParams(F(1), F(1)), PolyMat2.identity(), TWIST_20)


def v4_trivialization_regular(e: ExtParams, phi_v1: PolyMat2, twist: Twist) -> bool:
    """Fourth-chart regularity (via V2), which glue_check does not test."""
    vec = [phi_v1.entry(0, 0), phi_v1.entry(0, 1), phi_v1.entry(1, 0)]
    in_v4 = mat_vec(rep_v1_to_v3(twist), mat_vec(rep_v1_to_v2(e, twist), vec))
    return all(laurent_regular(f, z1_sign=-1, z2_sign=-1) for f in in_v4)


def test_v4_regularity_is_redundant():
    rng = random.Random(15)
    for _ in range(50):
        e = _random_ext(rng)
        assert v4_trivialization_regular(e, build_phi1(e, _random_p1(rng)), TWIST_20)
        assert v4_trivialization_regular(e, build_phi2(e, _random_p2(rng)), TWIST_02)


def _random_trace_free(rng: random.Random, deg: int) -> PolyMat2:
    a, b, c = (random_bipoly(rng, deg, deg, density=rng.choice((0.1, 0.4))) for _ in range(3))
    return PolyMat2.trace_free(a, b, c)


def test_glue_check_matches_image_oracle():
    rng = random.Random(17)
    on_axes = [ExtParams(F(0), F(2)), ExtParams(F(-3), F(0)), E01, E10]
    outcomes = {True: 0, False: 0}
    for k in range(300):
        e = on_axes[k % 4] if k < 40 else _random_ext(rng)
        twist = (TWIST_20, TWIST_02)[k % 2]
        if twist == TWIST_20:
            build = build_phi1(e, _random_p1(rng))
        else:
            build = build_phi2(e, _random_p2(rng))
        bump = PolyMat2.trace_free(*(random_bipoly(rng, 2, 2, density=0.15) for _ in range(3)))
        # random matrices reach bidegree 6, beyond the ansatz box
        for phi in (build, mat_add(build, bump), _random_trace_free(rng, rng.randint(0, 6))):
            got = glue_check(e, phi, twist)
            assert got == image_glue_check(e, phi, twist), (e, twist, phi)
            outcomes[got] += 1
    assert min(outcomes.values()) >= 200, outcomes


def _entry_denominators(m: PolyMat2) -> list[int]:
    """The lcm of the coefficient denominators of A, B and C."""
    entries = (m.entry(0, 0), m.entry(0, 1), m.entry(1, 0))
    return [math.lcm(*(c.denominator for *_, c in entry.terms())) for entry in entries]


def test_glue_check_clears_unrelated_denominators():
    """u, v and the coefficients of A, B and C over unrelated 100-bit
    denominators: the forms must still see every coefficient exactly."""
    rng = random.Random(18)
    big = lambda: F(rng.choice([-1, 1]) * (rng.getrandbits(100) | 1), rng.getrandbits(100) | 1 << 99)
    outcomes = {True: 0, False: 0}
    for k in range(40):
        e = ExtParams(big(), big())
        assert e.u.denominator != e.v.denominator
        if k % 2:
            twist, build = TWIST_02, build_phi2(e, Phi2Params(*(big() for _ in range(5))))
        else:
            twist, build = TWIST_20, build_phi1(e, Phi1Params(*(big() for _ in range(6))))
        # fresh denominators on free coefficients (the constant of C for
        # O(2,0); those of A and B for O(0,2), where C is 0), and on a term
        # that chart V2 forbids (z2^3 in B)
        a, b, c = (BiPoly.const(big()) for _ in range(3))
        zero = BiPoly.zero()
        free = PolyMat2.trace_free(*((zero, zero, c) if twist == TWIST_20 else (a, b, zero)))
        forbidden = PolyMat2.trace_free(a, BiPoly({(0, 3): big()}), c)
        for phi, verdict in ((build, True), (mat_add(build, free), True), (mat_add(build, forbidden), False)):
            assert glue_check(e, phi, twist) is verdict, (e, twist, phi)
            assert image_glue_check(e, phi, twist) is verdict
            outcomes[verdict] += len(set(_entry_denominators(phi))) == 3
    assert outcomes == {True: 80, False: 40}


def _coefficient_vector(m: PolyMat2, box: int = 4) -> list[F]:
    vec = []
    for entry in (m.entry(0, 0), m.entry(0, 1), m.entry(1, 0)):
        for i in range(box + 1):
            for j in range(box + 1):
                vec.append(entry.coeff(i, j))
    return vec


def test_constructor_families_span_expected_dimensions():
    rng = random.Random(16)
    for e in (E01, E10, E37, _random_ext(rng)):
        basis1 = [
            _coefficient_vector(build_phi1(e, Phi1Params(**{k: F(1)})))
            for k in ("c00", "c01", "c02", "c10", "c11", "c12")
        ]
        assert rank(basis1) == 6
        basis2 = [
            _coefficient_vector(build_phi2(e, Phi2Params(**{k: F(1)})))
            for k in ("a00", "a01", "a02", "b00", "b10")
        ]
        assert rank(basis2) == 5


# -- independent dimension count -------------------------------------------------


def test_end0T_dimension_examples():
    assert end0T_dimension(E01) == (6, 5, 11)
    assert end0T_dimension(E10) == (6, 5, 11)
    assert end0T_dimension(E37) == (6, 5, 11)


def test_end0T_dimension_grid():
    rng = random.Random(60)
    exact_bits = lambda b: rng.getrandbits(b) | 1 << (b - 1)
    values = [F(-2), F(-1), F(0), F(1), F(3)] + [
        F(rng.choice([-1, 1]) * exact_bits(b), exact_bits(b)) for b in (60, 128, 200)
    ]
    for u in values:
        for v in values:
            e = ExtParams(u, v)
            if e.is_trivial():
                continue
            assert end0T_dimension(e) == (6, 5, 11)


def test_end0T_dimension_at_4000_digits_is_fast():
    # 0.039-0.051 s per class on x86-64 with CPython 3.11 (2.7-3.0 s before
    # the singleton pass and the closed-form transitions); the bound leaves
    # 10x over that, and 3x even on an interpreter three times as slow
    u = F(int("7" * 4000) + 2, int("3" * 3999 + "1"))
    v = F(-int("5" * 4000) - 6, int("9" * 3999 + "7"))
    start = time.perf_counter()
    assert end0T_dimension(ExtParams(u, v)) == (6, 5, 11)
    assert time.perf_counter() - start < 0.5


def test_end0T_dimension_trivial_extension_rejected():
    with pytest.raises(TrivialExtension):
        end0T_dimension(ExtParams(F(0), F(0)))


def test_end0T_dimension_rejects_float_class():
    # 0.1 is not read as the binary fraction 3602879701896397/2^55
    with pytest.raises(TypeError):
        end0T_dimension(ExtParams(0.1, F(1)))


def test_stratum_classify_normalizes_int_classes_to_fractions():
    # int / int would divide in floats: (2, 3) must become (1, 3/2) exactly
    point = stratum_classify(ModuliPoint(ExtParams(2, 3), Stratum.S1, Phi1Params()))
    assert (point.ext.u, point.ext.v) == (1, F(3, 2))
    assert type(point.ext.u) is F and type(point.ext.v) is F
    assert weak_iso(ExtParams(2, 3), ExtParams(F(4), 6)) is True


@pytest.mark.parametrize("e, stratum, params", [
    (ExtParams(0.0, 0.0), Stratum.S0, TrivialFieldData(F(0), (F(0),) * 3)),
    (ExtParams(0.5, 1.5), Stratum.S1, Phi1Params()),
    (ExtParams(F(1), 1.5), Stratum.S2, Phi2Params()),
], ids=["S0", "S1", "S2"])
def test_stratum_classify_rejects_float_class(e, stratum, params):
    with pytest.raises(TypeError):
        stratum_classify(ModuliPoint(e, stratum, params))


def test_weak_iso_rejects_float_class():
    for e1, e2 in ((ExtParams(0.5, 1.5), ExtParams(F(1), F(3))),
                   (ExtParams(F(1), F(3)), ExtParams(F(1), 3.0))):
        with pytest.raises(TypeError):
            weak_iso(e1, e2)


# -- dichotomy --------------------------------------------------------------------


def test_dichotomy_examples():
    assert dichotomy_check(E01, Phi1Params(), _p2 := Phi2Params(a00=F(1))) is Dichotomy.PHI2_ONLY
    assert dichotomy_check(E01, Phi1Params(c01=F(1)), Phi2Params()) is Dichotomy.PHI1_ONLY
    assert (
        dichotomy_check(E01, Phi1Params(c01=F(1)), Phi2Params(a00=F(1)))
        is Dichotomy.NOT_INTEGRABLE
    )
    assert dichotomy_check(E37, Phi1Params(), Phi2Params()) is Dichotomy.ZERO
    with pytest.raises(TrivialExtension):
        dichotomy_check(ExtParams(F(0), F(0)), Phi1Params(), Phi2Params())


def test_dichotomy_random_draws():
    rng = random.Random(17)
    both_checked = 0
    for _ in range(100):
        e = _random_ext(rng)
        p1 = _random_p1(rng)
        p2 = _random_p2(rng)
        if p1.is_zero() or p2.is_zero():
            continue
        both_checked += 1
        assert dichotomy_check(e, p1, p2) is Dichotomy.NOT_INTEGRABLE
        assert dichotomy_check(e, p1, Phi2Params()) is Dichotomy.PHI1_ONLY
        assert dichotomy_check(e, Phi1Params(), p2) is Dichotomy.PHI2_ONLY
    assert both_checked >= 90


def test_dichotomy_check_agrees_with_commutator_reference():
    # zero, sparse and dense parameters on each side, so all four verdicts
    # occur; the reference decides integrability by the full commutator
    rng = random.Random(15)
    seen = set()
    for _ in range(300):
        e = _random_ext(rng)
        d1, d2 = rng.choice((0, 0.2, 0.5, 1)), rng.choice((0, 0.2, 0.5, 1))
        p1 = Phi1Params(*(random_rat(rng, 6) if rng.random() < d1 else F(0) for _ in range(6)))
        p2 = Phi2Params(*(random_rat(rng, 6) if rng.random() < d2 else F(0) for _ in range(5)))
        got = dichotomy_check(e, p1, p2)
        assert got.value == dichotomy_by_commutator(build_phi1(e, p1), build_phi2(e, p2))
        seen.add(got)
    assert seen == set(Dichotomy)


# -- strata and weak isomorphism ---------------------------------------------------


def test_stratum_classify_examples():
    p = ModuliPoint(
        ExtParams(F(0), F(0)),
        Stratum.S0,
        TrivialFieldData(F(2), (F(1), F(0), F(3))),
    )
    assert stratum_classify(p) == p

    p = ModuliPoint(ExtParams(F(2), F(4)), Stratum.S1, Phi1Params(c00=F(1)))
    normalized = stratum_classify(p)
    assert normalized.ext == ExtParams(F(1), F(2))

    p = ModuliPoint(ExtParams(F(0), F(5)), Stratum.S2, Phi2Params(a00=F(1)))
    assert stratum_classify(p).ext == ExtParams(F(0), F(1))


def test_stratum_classify_inconsistencies():
    with pytest.raises(InconsistentPoint):
        stratum_classify(
            ModuliPoint(ExtParams(F(1), F(0)), Stratum.S0, TrivialFieldData(F(0), (F(0),) * 3))
        )
    with pytest.raises(InconsistentPoint):
        stratum_classify(ModuliPoint(ExtParams(F(0), F(0)), Stratum.S1, Phi1Params()))
    with pytest.raises(InconsistentPoint):
        stratum_classify(ModuliPoint(ExtParams(F(1), F(1)), Stratum.S1, Phi2Params()))


def test_normalization_constant_on_weak_iso_classes():
    rng = random.Random(18)
    for _ in range(50):
        e = _random_ext(rng)
        scale = random_rat(rng, 5) or F(1)
        scaled = ExtParams(e.u * scale, e.v * scale)
        assert weak_iso(e, scaled)
        p = ModuliPoint(e, Stratum.S1, Phi1Params(c00=F(1)))
        q = ModuliPoint(scaled, Stratum.S1, Phi1Params(c00=F(1)))
        assert stratum_classify(p).ext == stratum_classify(q).ext


def test_weak_iso_examples():
    assert weak_iso(ExtParams(F(1), F(2)), ExtParams(F(2), F(4)))
    assert not weak_iso(ExtParams(F(1), F(0)), ExtParams(F(0), F(1)))
    assert weak_iso(ExtParams(F(3), F(6)), ExtParams(F(1), F(2)))
    with pytest.raises(TrivialExtension):
        weak_iso(ExtParams(F(0), F(0)), ExtParams(F(1), F(1)))


def test_weak_iso_is_equivalence_relation():
    rng = random.Random(19)
    classes = [_random_ext(rng) for _ in range(12)]
    for a in classes:
        assert weak_iso(a, a)
        for b in classes:
            assert weak_iso(a, b) == weak_iso(b, a)
            for c in classes:
                if weak_iso(a, b) and weak_iso(b, c):
                    assert weak_iso(a, c)


def test_scaling_the_class_keeps_every_answer():
    # (u, v) -> (lam*u, lam*v) is the same point of the moduli: weakly
    # isomorphic, with the same dimension count, the same integrability
    # verdict for each pair of parameters and the same normalized point
    rng = random.Random(23)
    seen = set()
    for _ in range(40):
        e = _random_ext(rng)
        lam = random_rat(rng, 5) or F(-1)
        scaled = ExtParams(lam * e.u, lam * e.v)
        assert weak_iso(e, scaled) and weak_iso(scaled, e)
        assert end0T_dimension(scaled) == end0T_dimension(e)
        d1, d2 = rng.choice((0, 0.5, 1)), rng.choice((0, 0.5, 1))
        p1 = Phi1Params(*(random_rat(rng, 6) if rng.random() < d1 else F(0) for _ in range(6)))
        p2 = Phi2Params(*(random_rat(rng, 6) if rng.random() < d2 else F(0) for _ in range(5)))
        seen.add(got := dichotomy_check(e, p1, p2))
        assert dichotomy_check(scaled, p1, p2) is got
        for stratum, params in ((Stratum.S1, p1), (Stratum.S2, p2)):
            assert (stratum_classify(ModuliPoint(scaled, stratum, params))
                    == stratum_classify(ModuliPoint(e, stratum, params)))
    assert seen == set(Dichotomy)


def test_stratum_parameter_counts():
    # free parameters: 6 on the Phi_1 side, 5 on the Phi_2 side (the fibre
    # X_{u,v} is their union, dimension 6); the split stratum carries
    # 1 + 3; adding the projective extension parameter gives total 7
    import dataclasses

    assert len(dataclasses.fields(Phi1Params)) == 6
    assert len(dataclasses.fields(Phi2Params)) == 5
    t = TrivialFieldData(F(0), (F(0),) * 3)
    assert 1 + len(t.w) == 4
    fibre_dim = max(len(dataclasses.fields(Phi1Params)), len(dataclasses.fields(Phi2Params)))
    assert fibre_dim == 6
    assert fibre_dim + (2 - 1) == 7  # plus [u : v] modulo scaling


# -- trivial-extension normal form --------------------------------------------------


def test_trivial_extension_normal_form_example():
    f = field(TRIVIAL_EXTENSION_BUNDLE, a2=Z2, b2=2 * Z1 - 2)
    rep = trivial_extension_normal_form(f)
    assert rep.phi2.entry(0, 1) == Z1 - 1
    assert rep.phi2.entry(0, 0) == Z2  # A2 untouched
    assert det2(rep.phi2) == det2(f.phi2)


def test_trivial_extension_normal_form_monic_unchanged():
    f = field(TRIVIAL_EXTENSION_BUNDLE, a2=Z2 * Z2, b2=Z1 - 3)
    assert trivial_extension_normal_form(f) == f


def test_trivial_extension_normal_form_idempotent_and_det():
    rng = random.Random(20)
    for _ in range(25):
        b0 = random_rat(rng, 6)
        b1 = random_rat(rng, 6)
        if not b1:
            continue
        a2 = BiPoly.from_univariate([random_rat(rng, 6) for _ in range(3)], 2)
        f = field(TRIVIAL_EXTENSION_BUNDLE, a2=a2, b2=BiPoly.from_univariate([b0, b1], 1))
        rep = trivial_extension_normal_form(f)
        assert det2(rep.phi2) == det2(f.phi2)
        assert trivial_extension_normal_form(rep) == rep


@pytest.mark.parametrize("height", [9, 2**60], ids=["height9", "bits60"])
def test_trivial_extension_normal_form_equals_conjugation_reference(height):
    # (A2, B2/b; b C2, -A2) equals the conjugate by diag(1, b), in value and in storage
    rng = random.Random(height + 2)
    for _ in range(200):
        b = F(0)
        while not b:
            b = random_rat(rng, height)
        a2 = BiPoly.from_univariate([random_rat(rng, height) for _ in range(3)], 2)
        b2 = BiPoly.from_univariate([random_rat(rng, height), b], 1)
        f = field(TRIVIAL_EXTENSION_BUNDLE, a2=a2, b2=b2)
        rep, ref = trivial_extension_normal_form(f), split_extension_normal_form_by_conjugation(f)
        assert rep == ref
        assert storage(rep.phi1) == storage(ref.phi1) and storage(rep.phi2) == storage(ref.phi2)


def test_trivial_extension_normal_form_errors():
    from cohiggs.higgs import DecomposableBundle as DB

    with pytest.raises(LeadingCoefficientZero):
        trivial_extension_normal_form(
            field(TRIVIAL_EXTENSION_BUNDLE, a2=Z2, b2=BiPoly.const(1))
        )
    with pytest.raises(NotInNormalFormDomain):
        trivial_extension_normal_form(field(TRIVIAL_EXTENSION_BUNDLE, a1=Z1, b2=Z1))
    with pytest.raises(NotInNormalFormDomain):
        trivial_extension_normal_form(field(DB(O(0, 0), O(0, 0))))
    with pytest.raises(SlotViolation):  # A2 = z2^3 exceeds its slot O(0,2)
        trivial_extension_normal_form(field(TRIVIAL_EXTENSION_BUNDLE, a2=Z2**3, b2=Z1))


# -- the class memo ------------------------------------------------------------------
# An extension class derives its cocycle q = u z1 + v, q^2, q z2 and its V1 -> V2
# columns once, on first use.  Every answer on a class that has answered before
# equals the answer on a fresh equal class, the class keeps its value semantics,
# and a float class raises TypeError on every call.


def _fresh(e: ExtParams) -> ExtParams:
    """An equal class with nothing derived yet."""
    return ExtParams(e.u, e.v)


def _outcome(call, *args):
    """call(*args), or the type and detail of the domain error it raises."""
    try:
        return call(*args)
    except TrivialExtension as err:
        return type(err), str(err)


_UNIT_P1 = [Phi1Params(**{k: F(1)}) for k in ("c00", "c01", "c02", "c10", "c11", "c12")]
_UNIT_P2 = [Phi2Params(**{k: F(1)}) for k in ("a00", "a01", "a02", "b00", "b10")]


def _memo_chain(e: ExtParams) -> tuple:
    """What one benchmark operation asks of a class: the ansatz, each unit
    section with its glue check, and the three dichotomies."""
    built = []
    for p in _UNIT_P1:
        m = build_phi1(e, p)
        built.append((m, glue_check(e, m, TWIST_20)))
    for p in _UNIT_P2:
        m = build_phi2(e, p)
        built.append((m, glue_check(e, m, TWIST_02)))
    p1, p2 = Phi1Params(c01=F(2), c12=F(-1, 3)), Phi2Params(a02=F(5), b10=F(1, 7))
    pairs = ((p1, p2), (p1, Phi2Params()), (Phi1Params(), p2))
    return end0T_dimension(e), built, [dichotomy_check(e, *ps) for ps in pairs]


def test_each_class_derives_its_data_once(monkeypatch):
    calls = {"_as_rat": 0, "BiPoly.__mul__": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    # _v1_to_v2 reads u and v through _as_rat only when it builds columns
    monkeypatch.setattr(ext, "_as_rat", counting("_as_rat", ext._as_rat))
    monkeypatch.setattr(BiPoly, "__mul__", counting("BiPoly.__mul__", BiPoly.__mul__))
    e = ExtParams(F(3, 4), F(-5, 6))
    first = _memo_chain(e)
    once = dict(calls)
    # the columns are built once per twist exponent
    assert once["_as_rat"] == 4 and set(vars(e)["_v2_columns"]) == {TWIST_20[1], TWIST_02[1]}
    assert _memo_chain(e) == first
    # the second pass builds no column, and neither q^2 nor q z2
    assert calls["_as_rat"] == 4
    assert calls["BiPoly.__mul__"] - once["BiPoly.__mul__"] == once["BiPoly.__mul__"] - 2
    assert _v1_to_v2(e, TWIST_20) is _v1_to_v2(e, TWIST_20)


def test_derived_class_data_leave_value_semantics_alone():
    e = ExtParams(F(3, 4), F(-5, 6))
    _memo_chain(e)
    assert {"_cocycle", "_v2_columns"} <= vars(e).keys()
    g = _fresh(e)
    assert e == g and hash(e) == hash(g) and repr(e) == repr(g)
    names = [x.name for x in dataclasses.fields(e)]
    assert names == [x.name for x in dataclasses.fields(ExtParams)] == ["u", "v"]
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert [x.name for x in dataclasses.fields(twin)] == names
        assert _memo_chain(twin) == _memo_chain(g)


def _memo_answers(e: ExtParams, sections: list[tuple[PolyMat2, Twist]]) -> list:
    p1s = [Phi1Params(), Phi1Params(*[1] * 6), Phi1Params(F(2, 3), 0, F(-7), 1, 0, F(5, 11))]
    p2s = [Phi2Params(), Phi2Params(*[1] * 5), Phi2Params(F(-1, 4), 3, 0, F(9, 2), 1)]
    out = [_outcome(end0T_dimension, e), _v1_to_v2(e, TWIST_20), _v1_to_v2(e, TWIST_02)]
    out += [build_phi1(e, p) for p in p1s] + [build_phi2(e, p) for p in p2s]
    out += [glue_check(e, phi, twist) for phi, twist in sections]
    out += [_outcome(dichotomy_check, e, p1, p2) for p1 in p1s for p2 in p2s]
    return out


def test_every_answer_equals_that_of_a_fresh_class():
    rng = random.Random(44)
    ints = [ExtParams(3, -2), ExtParams(0, 5), ExtParams(-4, 0), ExtParams(0, 0)]
    for e in _transition_classes() + ints:
        sections = [(build_phi1(e, _random_p1(rng)), TWIST_20),
                    (build_phi2(e, _random_p2(rng)), TWIST_02)]
        sections += [(_random_trace_free(rng, rng.randint(0, 6)), t) for t in (TWIST_20, TWIST_02)]
        first = _memo_answers(e, sections)  # fills in the class's data
        assert _memo_answers(e, sections) == first
        assert _memo_answers(_fresh(e), sections) == first


def _leaves_the_box(m: PolyMat2) -> bool:
    entries = (m.entry(0, 0), m.entry(0, 1), m.entry(1, 0))
    return any(max(i, j) > _ANSATZ_BOX for entry in entries for i, j, _ in entry.terms())


def test_glue_check_beyond_the_ansatz_box_after_the_ansatz():
    """The ansatz has filled in the class's columns on its 5 x 5 box of
    unknowns; glue_check on a section with terms outside that box still
    agrees with the image oracle."""
    rng = random.Random(45)
    outcomes = {True: 0, False: 0}
    for k, e in enumerate(_transition_classes() + [_random_ext(rng) for _ in range(9)]):
        assert end0T_dimension(e) == (6, 5, 11)
        twist = (TWIST_20, TWIST_02)[k % 2]
        build = build_phi1(e, _random_p1(rng)) if k % 2 == 0 else build_phi2(e, _random_p2(rng))
        # one term of bidegree (5, 0), (0, 5) or (6, 6) in one of A, B, C
        far = [BiPoly.zero()] * 3
        far[k % 3] = BiPoly({rng.choice([(5, 0), (0, 5), (6, 6)]): random_rat(rng, 9) or 1})
        far = PolyMat2.trace_free(*far)
        for phi in (mat_add(build, far), mat_add(_random_trace_free(rng, rng.randint(0, 6)), far)):
            assert _leaves_the_box(phi)
            got = glue_check(e, phi, twist)
            assert got == image_glue_check(e, phi, twist), (e, twist, phi)
            outcomes[got] += 1
        # and the global section itself still glues
        assert glue_check(e, build, twist) and image_glue_check(e, build, twist)
        outcomes[True] += 1
    assert outcomes[True] == 40 and outcomes[False] >= 40, outcomes


@pytest.mark.parametrize("e", [ExtParams(0.5, F(1)), ExtParams(F(1), 1.5), ExtParams(0, 2.0)],
                         ids=["float_u", "float_v", "zero_and_float"])
def test_a_float_class_raises_type_error_on_every_call(e):
    section = build_phi1(E37, Phi1Params(c00=F(1)))
    calls = [
        lambda: end0T_dimension(e),
        lambda: _v1_to_v2(e, TWIST_20),
        lambda: build_phi1(e, Phi1Params(c01=F(1))),
        lambda: build_phi2(e, Phi2Params(a02=F(1))),
        lambda: glue_check(e, section, TWIST_20),
        lambda: dichotomy_check(e, Phi1Params(c01=F(1)), Phi2Params()),
    ]
    for _ in range(3):
        for call in calls:
            with pytest.raises(TypeError):
                call()
    assert "_cocycle" not in vars(e) and not vars(e).get("_v2_columns")


# -- the ansatz's singleton pass, once per twist and shape ----------------------


def _digits_class(rng: random.Random, digits: int, shape: str) -> ExtParams:
    """A class with u = 0, v = 0 or both nonzero, of ``digits``-digit fractions."""
    def rat():
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        return F(rng.choice([-1, 1]) * n, rng.randrange(10 ** (digits - 1), 10**digits))

    return ExtParams(F(0) if shape == "u=0" else rat(), F(0) if shape == "v=0" else rat())


def _shape_key(e: ExtParams, twist: Twist) -> tuple:
    return twist, tuple(tuple((*t[:3], n) for n, t in enumerate(col)) for col in _v1_to_v2(e, twist))


@pytest.mark.parametrize("digits", [4, 100, 4000])
@pytest.mark.parametrize("shape", ["u=0", "v=0", "both"])
def test_ansatz_residue_rank_equals_full_matrix_rank(shape, digits):
    """The kernel dimension from the shape's template equals 75 minus the
    rank of the class's whole matrix of forms, built from its own columns."""
    rng = random.Random(f"{shape}-{digits}")
    full_rank = rank if digits == 4000 else dense_rank
    for e in [_digits_class(rng, digits, shape) for _ in range(3 if digits < 4000 else 1)]:
        for twist, dim in ((TWIST_20, 6), (TWIST_02, 5)):
            forms = ext._irregular_rows(_v1_to_v2(e, twist), twist, ext._ANSATZ_UNKNOWNS)
            dense = [[form.get(k, 0) for k in ext._ANSATZ_UNKNOWNS] for form in forms.values()]
            got = ext._ansatz_kernel_dim(e, twist)
            assert got == len(ext._ANSATZ_UNKNOWNS) - full_rank(dense) == dim, (e, twist)


def test_ansatz_templates_are_few_and_never_edited():
    rng = random.Random(46)
    for e in (E01, E10, E37):
        end0T_dimension(e)
    keys = [_shape_key(e, twist) for e in (E01, E10, E37) for twist in (TWIST_20, TWIST_02)]
    before = {key: ext._ansatz_template(*key) for key in keys}
    snapshot = copy.deepcopy(before)
    for k in range(300):
        e = _digits_class(rng, rng.choice([4, 30]), ("u=0", "v=0", "both")[k % 3])
        assert end0T_dimension(e) == (6, 5, 11)
    assert ext._ansatz_template.cache_info().currsize <= 6
    for key in keys:
        assert ext._ansatz_template(*key) is before[key]
        assert before[key] == snapshot[key]
