from __future__ import annotations

from cohiggs.chern import (
    ChernData,
    NumericalInvariants,
    ReducedTag,
    bundle_moduli_nonempty,
    cohiggs_moduli_nonempty,
    ext_length,
    no_nontrivial_higgs_region,
    reduce_class,
    theorem48_case2_discrepancy,
)
from cohiggs.cohomology import LineBundle


def _intersect(class1: tuple[int, int], class2: tuple[int, int]) -> int:
    # independent intersection-form oracle: (a1 C0 + b1 F).(a2 C0 + b2 F)
    # with C0^2 = F^2 = 0 and C0.F = 1
    a1, b1 = class1
    a2, b2 = class2
    return a1 * b2 + b1 * a2


def _twisted(c: ChernData, x: int, y: int) -> ChernData:
    # c1 and c2 of E tensor O(x,y), whose class is y C0 + x F:
    # c1 + 2 c1(L) and c2 + c1.c1(L) + c1(L)^2
    line = (y, x)
    c1 = (c.alpha, c.beta)
    return ChernData(c.alpha + 2 * y, c.beta + 2 * x,
                     c.gamma + _intersect(c1, line) + _intersect(line, line))


_TAG_CLASS = {
    ReducedTag.ZERO: (0, 0),
    ReducedTag.MINUS_F: (0, -1),
    ReducedTag.MINUS_C0: (-1, 0),
    ReducedTag.MINUS_C0_MINUS_F: (-1, -1),
}


def test_reduce_class_examples():
    red = reduce_class(ChernData(0, 0, 5))
    assert red.tag is ReducedTag.ZERO
    assert red.twist == LineBundle(0, 0)
    assert red.gamma_prime == 5

    red = reduce_class(ChernData(2, 4, 5))
    assert red.tag is ReducedTag.ZERO
    assert red.gamma_prime == 5 - 4  # gamma - alpha*beta/2

    red = reduce_class(ChernData(1, 1, 1))
    assert red.tag is ReducedTag.MINUS_C0_MINUS_F
    assert red.gamma_prime == 1  # gamma + (1 - alpha*beta)/2


# 4,000-digit values of both parities and signs, next to the small grid
_BIG = int("7" * 4000)
_CLASS_VALUES = [*range(-5, 6), _BIG, _BIG + 1, -_BIG, -_BIG - 1]


def test_reduce_class_twist_correctness_on_grid():
    # the returned twist O(x,y) really lands on the tagged class, and
    # gamma' agrees with the intersection-form computation
    for alpha in _CLASS_VALUES:
        for beta in _CLASS_VALUES:
            for gamma in [*range(-10, 11), _BIG * _BIG, -_BIG]:
                c = ChernData(alpha, beta, gamma)
                red = reduce_class(c)
                t = _twisted(c, red.twist.a, red.twist.b)
                assert (t.alpha, t.beta) == _TAG_CLASS[red.tag]
                assert red.gamma_prime == t.gamma


def test_ext_length_examples():
    # c1 = -F: ell = c2 + d(1 + 2r) at d=0 gives c2
    assert ext_length(ChernData(0, -1, 1), NumericalInvariants(0, -1)) == 1
    assert ext_length(ChernData(0, 0, 7), NumericalInvariants(0, 0)) == 7
    # direct formula: gamma - alpha r - beta d + 2 d r = 0 - 0 - 0 + 2
    assert ext_length(ChernData(0, 0, 0), NumericalInvariants(1, 1)) == 2


def test_bundle_moduli_nonempty_examples():
    assert bundle_moduli_nonempty(ChernData(0, -1, 1), NumericalInvariants(0, -1))
    assert bundle_moduli_nonempty(ChernData(0, 0, 3), NumericalInvariants(0, 0))
    assert not bundle_moduli_nonempty(ChernData(0, 0, -1), NumericalInvariants(0, 0))


def test_cohiggs_moduli_nonempty_examples():
    assert cohiggs_moduli_nonempty(ChernData(0, -1, 0))
    assert not cohiggs_moduli_nonempty(ChernData(0, -1, -1))
    assert not cohiggs_moduli_nonempty(ChernData(-1, -1, 0))
    assert cohiggs_moduli_nonempty(ChernData(-1, -1, 1))


def test_nonempty_matches_closed_form_for_even_parity():
    for alpha in range(-5, 6):
        for beta in range(-5, 6):
            if alpha % 2 and beta % 2:
                continue
            for gamma in range(-5, 11):
                assert cohiggs_moduli_nonempty(ChernData(alpha, beta, gamma)) == (
                    2 * gamma >= alpha * beta
                )


def test_nonempty_is_twist_invariant():
    for alpha in range(-3, 4):
        for beta in range(-3, 4):
            for gamma in range(-3, 5):
                c = ChernData(alpha, beta, gamma)
                verdict = cohiggs_moduli_nonempty(c)
                for x in range(-3, 4):
                    for y in range(-3, 4):
                        assert cohiggs_moduli_nonempty(_twisted(c, x, y)) == verdict


def test_discrepancy_flag_fires_exactly_on_boundary():
    # odd-odd classes where the printed closed form (2 gamma >= alpha beta - 2)
    # and the reduction route (gamma' >= 1) disagree: exactly gamma' = 0
    for alpha in range(-5, 6):
        for beta in range(-5, 6):
            for gamma in range(-8, 9):
                c = ChernData(alpha, beta, gamma)
                flag = theorem48_case2_discrepancy(c)
                if alpha % 2 == 0 or beta % 2 == 0:
                    assert not flag
                else:
                    red = reduce_class(c)
                    printed = 2 * gamma >= alpha * beta - 2
                    route = red.gamma_prime >= 1
                    assert flag == (printed != route)
                    assert flag == (red.gamma_prime == 0)
    assert theorem48_case2_discrepancy(ChernData(1, 1, 0))
    assert not cohiggs_moduli_nonempty(ChernData(1, 1, 0))


def test_no_nontrivial_higgs_region_examples():
    assert no_nontrivial_higgs_region(NumericalInvariants(1, -2), 7)  # 7 >= -4(-2)-1
    assert not no_nontrivial_higgs_region(NumericalInvariants(1, -2), 6)
    assert no_nontrivial_higgs_region(NumericalInvariants(2, -3), 13)  # 13 >= 3-2(1-6)
    assert not no_nontrivial_higgs_region(NumericalInvariants(0, -5), 100)
    assert not no_nontrivial_higgs_region(NumericalInvariants(2, -2), 100)  # r > -1-d
