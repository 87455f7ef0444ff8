"""Differential tests of the shared rank against elimination-free oracles
and against the dense elimination it replaced, and of the Sylvester rows
whose full rank stands for a nonzero resultant."""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F

import pytest

from cohiggs import extension, higgs
from cohiggs._univariate import shifted_rows
from cohiggs.cohomology import LineBundle
from cohiggs.exactalg import BiPoly
from cohiggs.extension import ExtParams, end0T_dimension
from cohiggs.higgs import DecomposableBundle, StabilityClass, field, stability_classify
from cohiggs.linalg import _clear_singletons, rank
from oracles import (
    big_rat,
    cofactor_det,
    dense_rank,
    minor_rank,
    planted_quartics,
    poly_from_roots,
    quartic_numerators,
    quartic_sylvester_rows,
    random_matrix,
    random_rat,
    sylvester_matrix,
)

EDGE_CASES = [
    [],  # empty matrix
    [[], []],  # two rows, no columns
    [[F(0), F(0), F(0)]],  # one zero row
    [[F(0)], [F(0)]],  # zero column
    [[F(0), F(1)], [F(0), F(2)]],  # zero first column, rank 1
    [[F(0), F(1)], [F(1), F(0)]],  # needs a row swap
    [[F(1), F(2), F(3)], [F(2), F(4), F(6)]],  # wide, rank 1
    [[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]],  # tall, rank 2
]


def random_matrices(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        cap = rng.choice([None, None, rng.randint(0, min(nrows, ncols))])
        yield random_matrix(rng, nrows, ncols, cap)


def random_polys(seed: int, count: int):
    """Pairs of nonzero polynomials of degree 0-3 (nonzero leading coefficient)."""
    rng = random.Random(seed)
    for _ in range(count):
        f, g = ([random_rat(rng, 5) for _ in range(rng.randint(1, 4))] for _ in range(2))
        f[-1], g[-1] = f[-1] or F(1), g[-1] or F(1)
        yield f, g


def sylvester_rows(f: list[F], g: list[F]) -> list[dict[int, F]]:
    """deg g shifts of f over deg f shifts of g: of full rank iff Res(f, g) != 0."""
    rf, rg = dict(enumerate(f)), dict(enumerate(g))
    return shifted_rows(rf, len(g) - 1) + shifted_rows(rg, len(f) - 1)


def has_full_rank(f: list[F], g: list[F]) -> bool:
    return rank(sylvester_rows(f, g)) == len(f) + len(g) - 2


def test_eliminate_matches_minor_and_cofactor_oracles():
    for rows in EDGE_CASES + list(random_matrices(3, 300)):
        before = [list(r) for r in rows]
        r = rank(rows)
        assert rows == before  # the input is left alone
        assert r == minor_rank(rows)
        if len(rows) == (len(rows[0]) if rows else 0):
            assert (cofactor_det(rows) != 0) == (r == len(rows))


def random_sparse_matrices(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
        cap = rng.choice([None, rng.randint(0, min(nrows, ncols))])
        yield random_matrix(rng, nrows, ncols, cap, density=rng.uniform(0.05, 0.3))


def test_eliminate_matches_dense_oracle_on_sparse_matrices():
    swaps = zero_columns = cancellations = 0
    for rows in EDGE_CASES + list(random_sparse_matrices(21, 60)):
        expected = dense_rank(rows)
        assert rank(rows) == expected
        # the inputs must exercise a row swap, a zero column and a nonzero
        # row cancelling to zero
        swaps += bool(rows and rows[0] and not rows[0][0] and any(r[0] for r in rows))
        zero_columns += any(not any(col) for col in zip(*rows))
        cancellations += sum(any(r) for r in rows) > expected
    assert swaps and zero_columns and cancellations


def test_eliminate_takes_sparse_dict_rows():
    for rows in EDGE_CASES + list(random_sparse_matrices(29, 60)):
        sparse = [{j: a for j, a in enumerate(r) if a} for r in rows]
        before = [dict(r) for r in sparse]
        assert rank(sparse) == dense_rank(rows)
        assert sparse == before  # the input rows are left alone


def test_eliminate_takes_any_sortable_column_keys():
    """Integer columns renamed to tuple keys, once in their own order and once
    shuffled, leave the rank as it is."""
    rng = random.Random(31)
    shuffled_order = 0
    for rows in EDGE_CASES + list(random_sparse_matrices(37, 60)):
        width = len(rows[0]) if rows else 0
        perm = rng.sample(range(width), width)
        shuffled_order += perm != sorted(perm)
        expected = dense_rank(rows)
        for key in (lambda j: (j // 3, j % 3), lambda j: (perm[j] % 2, perm[j])):
            assert rank([{key(j): a for j, a in enumerate(r) if a} for r in rows]) == expected
    assert shuffled_order > 50


def test_eliminate_matches_dense_oracle_on_ansatz_matrices(monkeypatch):
    matrices = []

    def capturing_rank(rows):
        # the ansatz hands in sparse rows keyed by its unknowns; densify them
        # over the sorted keys that occur
        keys = sorted({j for r in rows for j in r})
        matrices.append([[r.get(j, F(0)) for j in keys] for r in rows])
        return rank(rows)

    monkeypatch.setattr(extension, "rank", capturing_rank)
    rng = random.Random(34)
    big = lambda: F(rng.getrandbits(100) * rng.choice([-1, 1]), rng.getrandbits(100) | 1)
    classes = [ExtParams(F(0), F(1)), ExtParams(F(1, 2), F(-3)), ExtParams(big(), big()), ExtParams(big(), F(0))]
    for e in classes:
        assert end0T_dimension(e) == (6, 5, 11)
    assert len(matrices) == 2 * len(classes)
    for rows in matrices:
        assert rank(rows) == dense_rank(rows)


def test_dense_oracle_is_exact_on_int_rows():
    # in floats the update n - 1 - n * n / (n + 1) = -1/(n + 1) rounds to 0, and the rank to 1
    n = 10**20
    rows = [[n + 1, n], [n, n - 1]]
    assert dense_rank(rows) == rank(rows) == 2
    doubled = [[n + 1, n], [2 * n + 2, 2 * n]]
    assert dense_rank(doubled) == rank(doubled) == 1


def test_eliminate_edge_cases():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([{}, {}]) == 0
    assert rank([[F(0), F(1)], [F(1), F(0)]]) == 2
    assert rank([[F(1), F(2), F(3)], [F(2), F(4), F(6)]]) == 1


@pytest.mark.parametrize("rows", [
    [[0, 2], [0, 4]],
    [[0, 0, 0], [F(0), 3, 0]],
    [[0, 0], [0, 0]],  # rows made only of zeros
    [[F(0), F(1, 2), 0], [5, 0, 0], [0, 0, 0], [F(5, 3), F(1, 3), 0]],
    [[0, 7, 0, -2], [0, 0, 0, 0], [0, -14, 0, 4]],
])
def test_rank_drops_explicit_zeros_of_dict_rows(rows):
    """A dict row may hold explicit zeros: they are never taken as pivots, so
    the rank is that of the dense form (a zero pivot once divided by zero)."""
    with_zeros = [dict(enumerate(r)) for r in rows]
    assert rank(with_zeros) == rank(rows) == dense_rank(rows)
    assert with_zeros == [dict(enumerate(r)) for r in rows]  # the input is not modified


# -- the singleton pass ---------------------------------------------------------


def as_dicts(rows):
    return [{j: a for j, a in enumerate(r) if a} for r in rows]


def singleton_passes(rows) -> int:
    """How many rounds of clearing singleton columns a matrix offers: more
    than one means clearing a column left another row a singleton."""
    m, passes = as_dicts(rows), 0
    while cleared := {j for r in m if len(r) == 1 for j in r}:
        passes += 1
        m = [{j: a for j, a in r.items() if j not in cleared} for r in m]
    return passes


def singleton_heavy_matrices(seed: int, count: int, max_size: int):
    """Rows of zero to three nonzeros, most of them one, plus a few sums of
    two rows so that some matrices are rank deficient, in shuffled order."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, max_size), rng.randint(1, max_size)

        def row():
            cols = set(rng.sample(range(ncols), min(ncols, rng.choice([0, 1, 1, 1, 1, 2, 2, 3]))))
            return [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)) if j in cols else F(0)
                    for j in range(ncols)]

        rows = [row() for _ in range(nrows)]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([x + y for x, y in zip(a, b)])
        rng.shuffle(rows)
        yield rows


def test_singleton_pass_cascades():
    one, two = F(1), F(2)
    z = F(0)
    # clearing column 0 leaves row 1 a singleton in column 1, and clearing
    # that leaves row 2 a singleton in column 2
    chain = [[one, z, z], [two, F(3), z], [z, F(4), F(5)]]
    # the cascade stops at two proportional rows, which the elimination takes
    stalled = [[one, z, z, z], [one, one, z, z], [z, one, one, one], [z, two, two, two]]
    for rows, expected, passes in ((chain, 3, 3), (stalled, 3, 2)):
        assert singleton_passes(rows) == passes
        assert rank(rows) == rank(as_dicts(rows)) == expected == dense_rank(rows)


class NoDivision(F):
    def __truediv__(self, other):
        raise AssertionError("a singleton pivot needs no division")


def test_singleton_chain_needs_no_arithmetic():
    # a bidiagonal chain is cleared by the cascade alone, one column a round
    n = 40
    rows = [{k: NoDivision(k + 1), k + 1: NoDivision(-1)} for k in range(n)] + [{0: NoDivision(7)}]
    assert rank(rows) == n + 1


def test_singleton_pass_shared_column_and_zero_rows():
    z = F(0)
    # two singleton rows in one column count once
    same_column = [[z, F(2), z], [z, F(-5), z], [F(1), F(1), F(1)]]
    assert rank(same_column) == rank(as_dicts(same_column)) == 2 == minor_rank(same_column)
    assert rank([{0: F(1)}, {0: F(1)}]) == 1
    # all-zero rows, dense and dict, among singletons and alone
    assert rank([[z, z], [F(3), z], [z, z]]) == rank([{}, {0: F(3)}, {}]) == 1
    assert rank([[z, z], [z, z]]) == rank([{}, {}]) == 0
    # a single column: every nonzero row is a singleton
    assert rank([[F(4)], [z], [F(-1)]]) == 1


def test_singleton_pass_matches_oracles_and_leaves_rows_alone():
    cascades = shared = 0
    for k, rows in enumerate(singleton_heavy_matrices(43, 300, 12)):
        dense_before = [list(r) for r in rows]
        sparse = as_dicts(rows)
        sparse_before = [dict(r) for r in sparse]
        expected = dense_rank(rows)
        assert rank(rows) == rank(sparse) == expected
        if len(rows) <= 6 and len(rows[0]) <= 6:
            assert expected == minor_rank(rows)
        assert rows == dense_before and sparse == sparse_before
        cascades += singleton_passes(rows) > 1
        singles = [next(iter(r)) for r in sparse if len(r) == 1]
        shared += len(singles) > len(set(singles))
    # the seeded matrices must exercise cascades and shared singleton columns
    assert cascades > 30 and shared > 30


def test_clear_singletons_reads_only_the_pattern():
    """The pass gives the same count and residue keys when every entry is
    the placeholder True, and the rank is the count plus the residue's."""
    for rows in singleton_heavy_matrices(53, 300, 12):
        sparse = as_dicts(rows)
        before = [dict(r) for r in sparse]
        count, residue = _clear_singletons(sparse)
        pattern_count, pattern_residue = _clear_singletons([dict.fromkeys(r, True) for r in sparse])
        assert sparse == before
        assert (count, [r.keys() for r in residue]) == (pattern_count, [r.keys() for r in pattern_residue])
        assert all(len(r) > 1 for r in residue)
        assert rank(sparse) == count + rank(residue) == dense_rank(rows)


def test_singleton_pass_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    q = lambda c: sympy.Rational(c.numerator, c.denominator)
    for rows in singleton_heavy_matrices(47, 60, 25):
        assert rank(as_dicts(rows)) == sympy.Matrix([[q(c) for c in row] for row in rows]).rank()


def test_resultant_matches_sylvester_cofactor_oracle():
    for f, g in random_polys(5, 200):
        assert has_full_rank(f, g) == (cofactor_det(sylvester_matrix(f, g)) != 0)


def test_resultant_root_product_formula():
    # Res(a prod (x - r_i), b prod (x - s_j)) = a^n b^m prod (r_i - s_j), so
    # the Sylvester rows have full rank iff no r_i equals an s_j
    rng = random.Random(8)
    shared = 0
    for _ in range(100):
        rs = [F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
        ss = [F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
        a, b = (random_rat(rng, 4) or F(1) for _ in range(2))
        common = bool(set(rs) & set(ss))
        shared += common
        assert has_full_rank(poly_from_roots(a, rs), poly_from_roots(b, ss)) == (not common)
    assert 10 < shared < 90


def test_resultant_degenerate_inputs():
    assert shifted_rows({0: F(0), 1: F(2), 2: F(0), 3: F(5)}, 2) == [{1: 2, 3: 5}, {2: 2, 4: 5}]
    assert shifted_rows({}, 3) == [{}, {}, {}] and rank(shifted_rows({}, 3)) == 0
    assert has_full_rank([F(2)], [F(0), F(0), F(1)])  # constant f: Res = f0^deg g
    assert has_full_rank([F(3)], [F(5)])  # two constants: the empty matrix, Res = 1


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    q = lambda c: sympy.Rational(c.numerator, c.denominator)
    for rows in [*random_matrices(13, 150), *int_and_mixed_matrices(61, 60), *big_matrices(71, 10)]:
        assert rank(rows) == sympy_rank(rows)
    x = sympy.Symbol("x")
    for f, g in random_polys(17, 150):
        if len(f) < 2 or len(g) < 2:
            continue
        pf, pg = (sum(q(c) * x**k for k, c in enumerate(p)) for p in (f, g))
        assert has_full_rank(f, g) == (sympy.resultant(pf, pg, x) != 0)


# -- integer rows --------------------------------------------------------------


def sympy_rank(rows) -> int:
    sympy = pytest.importorskip("sympy")
    q = lambda c: sympy.Rational(F(c).numerator, F(c).denominator)
    return sympy.Matrix([[q(c) for c in r] for r in rows]).rank()


def int_and_mixed_matrices(seed: int, count: int):
    """Each seeded matrix (denominators 1 or 2) twice: doubled into ints, and
    with every integral entry an int and the others left as Fractions."""
    for rows in EDGE_CASES + list(random_matrices(seed, count)):
        yield [[int(2 * a) for a in r] for r in rows]
        yield [[int(a) if a.denominator == 1 else a for a in r] for r in rows]


def test_rank_takes_int_and_mixed_rows():
    mixed = 0
    for rows in int_and_mixed_matrices(53, 200):
        before = [list(r) for r in rows]
        sparse = as_dicts(rows)
        sparse_before = [dict(r) for r in sparse]
        assert rank(rows) == rank(sparse) == dense_rank(rows)
        assert rows == before and sparse == sparse_before
        assert all(type(a) is type(b) for r, s in zip(rows, before) for a, b in zip(r, s))
        mixed += len({type(a) for r in rows for a in r if a}) == 2
    assert mixed > 50


def big_matrices(seed: int, count: int):
    """Products of nrows x k and k x ncols factors (so of rank at most k) whose
    entries have 50-500 digits over as many, giving entries of 100-1,000."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        k, digits = rng.randint(0, min(nrows, ncols)), rng.randint(50, 500)
        entry = lambda: big_rat(rng, digits) if rng.random() < 0.7 else F(0)
        left = [[entry() for _ in range(k)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(k)]
        yield [[sum((left[i][t] * right[t][j] for t in range(k)), F(0)) for j in range(ncols)]
               for i in range(nrows)]


def test_rank_of_entries_of_100_to_1000_digits():
    deficient = 0
    sizes = set()
    for rows in big_matrices(67, 40):
        before = [list(r) for r in rows]
        expected = dense_rank(rows)
        assert rank(rows) == rank(as_dicts(rows)) == expected
        assert rows == before
        deficient += expected < min(len(rows), len(rows[0]))
        sizes.update(len(str(a.numerator)) // 100 for r in rows for a in r if a)
    # both ends of the digit range, and rank-deficient matrices among them
    assert deficient > 10 and {1, 9} <= sizes


def dense(rows: list[dict[int, F]]) -> list[list[F]]:
    width = 1 + max((j for r in rows for j in r), default=-1)
    return [[r.get(j, F(0)) for j in range(width)] for r in rows]


def test_quartic_sylvester_rows_with_planted_repeated_roots():
    for f, expected in planted_quartics(73, 4):
        rows = quartic_sylvester_rows(dict(enumerate(f)))
        before = [dict(row) for row in rows]
        assert rank(rows) == expected == dense_rank(dense(rows))
        assert rows == before


def test_planted_quartics_sympy_cross_check():
    for f, expected in planted_quartics(89, 1):
        rows = quartic_sylvester_rows(dict(enumerate(f)))
        assert rank(rows) == expected == sympy_rank(dense(rows))


class NoArithmetic(F):
    def fail(self, other):
        raise AssertionError("the elimination runs on integer rows")

    __add__ = __radd__ = __sub__ = __rsub__ = fail
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = fail


def test_elimination_does_no_fraction_arithmetic():
    """Each row is brought to integers once, from its entries' numerators and
    denominators; no update adds, multiplies or divides a Fraction."""
    eliminated = 0
    for rows in list(random_matrices(79, 100)) + list(big_matrices(83, 10)):
        guarded = [[NoArithmetic(a) for a in r] for r in rows]
        assert rank(guarded) == rank(as_dicts(guarded)) == dense_rank(rows)
        eliminated += singleton_passes(rows) == 0 and dense_rank(rows) > 1
    assert eliminated > 10


def widest_entry_of_rank(rows) -> tuple[int, int]:
    """rank(rows), and the bit length of the largest integer the elimination
    holds in its rows at any line of ``rank``, read by a trace function."""
    widest = 0

    def local(frame, event, arg):
        nonlocal widest
        for row in frame.f_locals.get("m") or ():
            widest = max([widest, *(abs(a).bit_length() for a in row.values() if type(a) is int)])
        return local

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is rank.__code__ else None)
    try:
        r = rank(rows)
    finally:
        sys.settrace(outer)
    return r, widest


@pytest.mark.parametrize("digits", [500, 1000])
def test_elimination_growth_on_the_limit_quartic(digits):
    """The Sylvester rows of the README's limit-family quartic rho1, whose
    coefficient i is (-1)^i (n + i)/(d + 2i) with n = 77...7 and
    d = 33...31 of this many digits, built from rho1's integer numerators
    over its denominator (three shifts of f over four of f').  Rows made
    primitive once and never divided by their content again hold entries
    of at most 26 times the input's bits, the largest coefficient's
    numerator and denominator bits together (25.97x to 26.00x at 500, 1,000
    and 4,000 digits).  Dividing each updated row by its content kept the
    rows at 9.0x, with 17.5x before the division."""
    n, d = int("7" * digits), int("3" * (digits - 1) + "1")
    rho = BiPoly({(i, 0): F((-1) ** i * (n + i), d + 2 * i) for i in range(5)})
    bits = max(c.numerator.bit_length() + c.denominator.bit_length() for *_, c in rho.terms())
    r, widest = widest_entry_of_rank(quartic_sylvester_rows(quartic_numerators(rho)))
    assert r == 7
    assert 25.5 * bits < widest <= 26 * bits


def limit_oo_fields(digits: int):
    """The two O+O fields of the console checks' limit family, at this many
    digits: nine Phi_1 coefficients that are fractions of unrelated numerators
    and denominators (Stable), and A = p_k/q_k, C = r_k/q_k, B = C - 2A at
    each degree k, which share the eigenvector (1, 1) (StrictlySemistable)."""
    rng = random.Random(digits)

    def big():
        return rng.randrange(10 ** (digits - 1), 10**digits)

    oo = DecomposableBundle(LineBundle(0, 0), LineBundle(0, 0))
    free = [BiPoly({(k, 0): F(big(), big()) for k in range(3)}) for _ in range(3)]
    p, r, q = ([big() for _ in range(3)] for _ in range(3))
    a, c = (BiPoly({(k, 0): F(x[k], q[k]) for k in range(3)}) for x in (p, r))
    return [(field(oo, *free), StabilityClass.STABLE, 3, 13.5),
            (field(oo, a, c - 2 * a, c), StabilityClass.STRICTLY_SEMISTABLE, 2, 6)]


@pytest.mark.parametrize("digits", [500, 1000])
def test_closed_form_growth_on_the_limit_eigenvector_quadratics(digits, monkeypatch):
    """The integers that higgs._share_a_root's closed form builds for the O+O
    limit family, from the quadratics it is handed (those of the three
    coefficient matrices, on the int numerators over the lcm of nine
    denominators): the normal n = p x q of the first two independent ones,
    then n.q of each member (span 3) or n1^2 and n0 n2 (the resultant).  No
    row is eliminated.  The widest stays within k times the input's bits,
    the largest coefficient's numerator and denominator bits together, with
    k = 13.5 for the Stable field, a member off the plane (13.48x at 500 and
    1,000 digits, 13.50x at 4,000), and k = 6 for the StrictlySemistable
    one, a plane with a zero resultant (5.99x at 500, 6.00x at 1,000 and
    4,000)."""
    calls = []
    real = higgs._share_a_root
    monkeypatch.setattr(higgs, "_share_a_root", lambda q: calls.append(q) or real(q))
    for f, verdict, want, k in limit_oo_fields(digits):
        calls.clear()
        assert stability_classify(f) is verdict
        (quads,) = calls
        coeffs = [c for x in f.entries()[:3] for *_, c in x.terms()]
        bits = max(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)
        (a, b, c), *rest = quads
        n = next(n for x, y, z in rest if any(n := (b * z - c * y, c * x - a * z, a * y - b * x)))
        dots = [n[0] * x + n[1] * y + n[2] * z for x, y, z in quads]
        held = [*n, *dots] if any(dots) else [*n, n[1] * n[1], n[0] * n[2]]
        assert (3 if any(dots) else 2, len(quads)) == (want, 3)
        widest = max(abs(v).bit_length() for v in held)
        assert 0.99 * k * bits < widest <= k * bits
