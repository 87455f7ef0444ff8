"""Exact arithmetic substrate.

Everything downstream is built from four value types:

* ``Rat`` - arbitrary-precision rationals (``fractions.Fraction``; always
  stored gcd-reduced with a positive denominator, zero is 0/1),
* :class:`BiPoly` - bivariate polynomials in the affine chart coordinates
  ``(z1, z2)`` with ``Rat`` coefficients and non-negative exponents (the
  Laurent values of ``_laurent`` take arithmetic and printing, not evaluation); stored as
  ``int`` numerators over one shared positive ``int`` denominator, so the
  kernels (products, sums, evaluation) run on integers and only the
  accessors build ``Rat`` values,
* :class:`PolyMat2` - 2x2 holders of ``BiPoly`` entries (no matrix arithmetic),
* :class:`RatFn` - a quotient of two ``BiPoly`` (denominator nonzero); it is
  what :func:`conjugate2` returns entrywise, serves only its callers (no
  library procedure conjugates) and carries no arithmetic.

Square roots of rationals are exact too, at polynomial cost: :func:`exact_sqrt`
returns an :class:`EtaValue` ``coef * sqrt(radicand)`` whose radicand has no
square factor p^2 with p < 1000, and is squarefree when its part with no prime
below 1000 is under 10^9; :func:`rational_sqrt` is its first step.

All arithmetic is polynomial: determinants, and the one 2x2 product
(``_mul2``) behind :func:`conjugate2` and :func:`commutator2`, stay inside
``BiPoly``; every other procedure of the library works on the entries.
A ``RatFn`` is only normalized (on integer numerators), compared by
cross-multiplication, printed, or scaled by 1/den when den is a constant.
All values are immutable after construction and all operations are pure
functions, so everything here is safe to share between threads, and so is
the one zero ``_ZERO`` that a zero factor returns at once; a zero summand
returns the other side, and a scalar is its constant built directly.

Canonical monomial order is graded lexicographic with ``z1 > z2``; it fixes
printing and JSON serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import SingularAutomorphism

Rat = Fraction

Term = tuple[int, int]
Scalar = Union[int, Fraction]

NEG_INF = -math.inf


def _as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _grlex_key(term: Term) -> tuple[int, int]:
    # graded lex, z1 > z2: compare total degree first, then the z1 exponent
    i, j = term
    return (i + j, i)


class BiPoly:
    """Bivariate polynomial with exact rational coefficients.

    Stored as a sparse map ``(i, j) -> numerator`` of nonzero ``int``
    numerators over one positive ``int`` denominator ``_den``, reduced so
    that gcd(``_den``, all numerators) = 1; so equal polynomials have equal
    storage.  ``z1^i z2^j`` is the monomial with ``int`` exponents ``(i, j)``,
    never negative outside ``_laurent``, whose values ``evaluate`` refuses.
    Coefficients leave as ``Fraction``.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Term, Scalar] | None = None):
        clean: dict[Term, Fraction] = {}
        den = 1
        if terms:
            for (i, j), c in terms.items():
                if type(i) is not int or type(j) is not int:
                    raise TypeError(f"exponents must be integers, got ({i!r}, {j!r})")
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in monomial ({i}, {j})")
                c = _as_rat(c)
                if c:
                    clean[(i, j)] = c
                    den = math.lcm(den, c.denominator)
        # over the lcm of the denominators the numerators are already coprime to it
        self._terms = {t: c.numerator * (den // c.denominator) for t, c in clean.items()}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return _ZERO

    @classmethod
    def const(cls, c: Scalar) -> "BiPoly":
        return _operand(c if isinstance(c, (int, Fraction)) else _as_rat(c))

    @classmethod
    def from_univariate(cls, coeffs: Iterable[Scalar], axis: int) -> "BiPoly":
        """Polynomial ``sum coeffs[k] * z_axis^k``."""
        return cls({((k, 0) if axis == 1 else (0, k)): c for k, c in enumerate(coeffs)})

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        for (i, j) in sorted(self._terms, key=_grlex_key, reverse=True):
            yield i, j, Fraction(self._terms[(i, j)], self._den)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._terms.get((i, j), 0), self._den)

    def bidegree(self) -> tuple[float, float]:
        """(max z1-exponent, max z2-exponent); (-inf, -inf) for zero."""
        if not self._terms:
            return (NEG_INF, NEG_INF)
        return (
            max(i for i, _ in self._terms),
            max(j for _, j in self._terms),
        )

    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        return Fraction(self._terms[max(self._terms, key=_grlex_key)], self._den)

    # -- arithmetic --------------------------------------------------------

    def _sum(self, other: "BiPoly", sign: int) -> "BiPoly":
        """self + sign * other over the lcm of the two denominators."""
        if not other._terms:
            return self
        if not self._terms:
            return other if sign == 1 else -other
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        res = {t: c * m1 for t, c in self._terms.items()} if m1 != 1 else dict(self._terms)
        get = res.get
        for t, c in other._terms.items():
            res[t] = get(t, 0) + c * m2
        return _normalized(res, d1 * m1)

    def __add__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        out = BiPoly.__new__(BiPoly)
        out._terms = {t: -c for t, c in self._terms.items()}
        out._den = self._den
        return out

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self._sum(other, -1)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other._sum(self, -1)

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        res: dict[Term, int] = {}
        get = res.get
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                t = (i1 + i2, j1 + j2)
                res[t] = get(t, 0) + c1 * c2
        return _normalized(res, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        # a constant equals its Fraction value, so it hashes as that value does
        if self._terms.keys() <= {(0, 0)}:
            return hash(self.coeff(0, 0))
        return hash((self._den, frozenset(self._terms.items())))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, z1: Scalar, z2: Scalar) -> Fraction:
        """Value at (z1, z2) = (a/b, c/d), summed in integers: every term is
        brought over den * b^hi1 * d^hi2, where hi1 and hi2 are the largest
        exponents.  Polynomials only: a Laurent value raises."""
        z1, z2 = _as_rat(z1), _as_rat(z2)
        if not self._terms:
            return Fraction(0)
        a, b, c, d = z1.numerator, z1.denominator, z2.numerator, z2.denominator
        hi1, hi2 = self.bidegree()
        total = sum(n * a**i * b ** (hi1 - i) * c**j * d ** (hi2 - j)
                    for (i, j), n in self._terms.items())
        return Fraction(total, self._den * b**hi1 * d**hi2)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, j, c in self.terms():
            mono = "*".join(
                ([f"z1^{i}" if i != 1 else "z1"] if i else [])
                + ([f"z2^{j}" if j != 1 else "z2"] if j else [])
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"BiPoly({self})"


def _operand(x) -> BiPoly | None:
    """x as a BiPoly: itself, or the constant of an int or Fraction built from
    its numerator and denominator (``_ZERO`` for zero); None for any other type."""
    if type(x) is BiPoly:
        return x
    if not isinstance(x, (int, Fraction)):
        return None
    return _normalized({(0, 0): x.numerator}, x.denominator) if x else _ZERO


def _normalized(terms: dict[Term, int], den: int) -> BiPoly:
    """The BiPoly of these integer numerators over den > 0, zeros dropped and the
    gcd with den divided out; no storage is written later, so ``_ZERO`` is shared."""
    if not all(terms.values()):
        terms = {t: c for t, c in terms.items() if c}
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {t: c // g for t, c in terms.items()}
            den //= g
    out = BiPoly.__new__(BiPoly)
    out._terms = terms
    out._den = den
    return out


def _over_lcm(*polys: BiPoly) -> list[dict[Term, int]]:
    """Each polynomial's ``{term: int numerator}`` over the lcm of their denominators."""
    den = math.lcm(*(p._den for p in polys))
    scaled = ((p._terms, den // p._den) for p in polys)
    return [{t: c * m for t, c in terms.items()} for terms, m in scaled]


_ZERO = _normalized({}, 1)
Z1 = BiPoly({(1, 0): 1})
Z2 = BiPoly({(0, 1): 1})
ONE = BiPoly.const(1)


class RatFn:
    """Quotient of two bivariate polynomials.

    Normalization brings numerator and denominator to integer coefficients
    over the lcm of their denominators, divides both by the gcd of all
    those integers and makes the denominator's leading coefficient
    positive; no multivariate gcd is attempted.  Equality is decided by
    cross-multiplication, so equal values always compare equal regardless
    of representation.  Only a constant denominator divides out.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_bipoly(num)
        den = ONE if den is None else _coerce_bipoly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = BiPoly.zero(), ONE
            return
        n, d = _over_lcm(num, den)
        g = math.gcd(*n.values(), *d.values())
        g = -g if d[max(d, key=_grlex_key)] < 0 else g
        self.num, self.den = (_normalized({t: c // g for t, c in x.items()}, 1) for x in (n, d))

    def as_bipoly(self) -> BiPoly:
        """num / den for a constant den; ValueError for any other."""
        c = self.den.coeff(0, 0)
        if self.den != c:
            raise ValueError(f"{self} has a non-constant denominator")
        return self.num * (1 / c)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, BiPoly)):
            other = RatFn(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # equality is by cross-multiplication, which no cheap structural hash
    # can respect without a full multivariate gcd (excluded by design)
    __hash__ = None

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn({self})"


def _coerce_bipoly(x) -> BiPoly:
    p = _operand(x)
    if p is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")
    return p


Entry = Union[BiPoly, RatFn]


class PolyMat2:
    """2x2 matrix of polynomials, held with no arithmetic of its own.

    The one with RatFn entries that :func:`conjugate2` returns supports only
    entry access, equality, ``is_zero`` and ``to_bipoly``.
    """

    __slots__ = ("_e",)

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("PolyMat2 needs a 2x2 array of entries")
        self._e = tuple(
            tuple(x if type(x) is RatFn else _coerce_bipoly(x) for x in row) for row in rows
        )

    @classmethod
    def zero(cls) -> "PolyMat2":
        return _ZERO_MAT

    @classmethod
    def identity(cls) -> "PolyMat2":
        return cls([[1, 0], [0, 1]])

    @classmethod
    def trace_free(cls, a: Entry, b: Entry, c: Entry) -> "PolyMat2":
        """Matrix (a b; c -a)."""
        out = cls.__new__(cls)
        a, b, c, neg_a = (x if type(x) is RatFn else _coerce_bipoly(x) for x in (a, b, c, -a))
        out._e = ((a, b), (c, neg_a))
        return out

    def entry(self, i: int, j: int) -> Entry:
        return self._e[i][j]

    def is_zero(self) -> bool:
        return all(not x for row in self._e for x in row)

    def is_trace_free(self) -> bool:
        return not (self._e[0][0] + self._e[1][1])

    def to_bipoly(self) -> "PolyMat2":
        """Every entry as a BiPoly; ValueError for a RatFn entry whose
        denominator is not a constant."""
        return PolyMat2([[x.as_bipoly() if type(x) is RatFn else x for x in r] for r in self._e])

    def __eq__(self, other):
        if not isinstance(other, PolyMat2):
            return NotImplemented
        # a RatFn entry compares with a BiPoly entry by cross-multiplication
        return self._e == other._e

    def __hash__(self):
        # hashable exactly when every entry is (entries are BiPoly in all
        # library paths that store matrices in hashed containers)
        return hash(self._e)

    def __str__(self) -> str:
        return "[[{}, {}], [{}, {}]]".format(
            self._e[0][0], self._e[0][1], self._e[1][0], self._e[1][1]
        )

    __repr__ = __str__


_ZERO_MAT = PolyMat2([[0, 0], [0, 0]])


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------


def _mul2(x, y):
    """The product of two 2x2 tuples of entries, as a tuple of rows."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def commutator2(x: PolyMat2, y: PolyMat2) -> PolyMat2:
    """XY - YX."""
    xy, yx = _mul2(x._e, y._e), _mul2(y._e, x._e)
    return PolyMat2([[p - q for p, q in zip(r, s)] for r, s in zip(xy, yx)])


def det2(x: PolyMat2) -> BiPoly:
    """Determinant of a polynomial matrix."""
    return x.entry(0, 0) * x.entry(1, 1) - x.entry(0, 1) * x.entry(1, 0)


def conjugate2(phi: PolyMat2, psi: PolyMat2) -> PolyMat2:
    """psi . phi . psi^{-1} for polynomial matrices, exactly, with RatFn entries.

    Each entry is the matching entry of psi . phi . adj(psi) over det(psi).
    Trace and determinant are preserved identically.  Raises
    SingularAutomorphism when det(psi) vanishes identically.
    """
    d = det2(psi)
    if not d:
        raise SingularAutomorphism("conjugating matrix has identically zero determinant")
    (a, b), (c, e) = psi._e
    raw = _mul2(_mul2(psi._e, phi._e), ((e, -b), (-c, a)))
    return PolyMat2([[RatFn(x, d) for x in row] for row in raw])


# ---------------------------------------------------------------------------
# exact square roots
# ---------------------------------------------------------------------------


# Trial division runs over the primes below _B: those up to 31 and the numbers
# prime to them all.  A cofactor below _B**3 with none of them is 1, p, pq or
# p^2, and one isqrt tells p^2 apart.
_B = 1000
_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_PRIMES = [*_SMALL, *(n for n in range(32, _B) if math.gcd(math.prod(_SMALL), n) == 1)]


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s^2 * m (sign carried by m) by trial division and one isqrt; n is nonzero.

    m has no square factor p^2 with p < _B, and |m| is 1 or not a square; m
    is squarefree whenever the cofactor left after trial division is below
    _B**3.  A larger cofactor that is not a square goes into m whole: no
    method is known to find its square part faster than factoring it.
    """
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, m = 1, 1
    for p in _PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
    r = math.isqrt(n)
    if r * r == n:
        return s * r, sign * m
    return s, sign * m * n


@dataclass(frozen=True)
class EtaValue:
    """Exact value coef * sqrt(radicand).

    Rational values have radicand 1, and any other radicand is not a square;
    negative radicands encode imaginary square roots.  coef = 0 always pairs
    with radicand 1.  The radicand need not be squarefree (see
    :func:`exact_sqrt`), so a number may have more than one representation;
    ``==`` compares representations.
    """

    coef: Fraction
    radicand: int

    def __post_init__(self):
        if not self.coef and self.radicand != 1:
            object.__setattr__(self, "radicand", 1)

    def is_rational(self) -> bool:
        return self.radicand == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.coef

    def __neg__(self) -> "EtaValue":
        return EtaValue(-self.coef, self.radicand)

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coef)
        return f"{self.coef}*sqrt({self.radicand})"


def rational_sqrt(q: Fraction) -> Fraction | None:
    """sqrt(q) when it is rational, else None: sqrt(num/den) = sqrt(num*den)/den."""
    if q < 0:
        return None
    n = q.numerator * q.denominator
    root = math.isqrt(n)
    return Fraction(root, q.denominator) if root * root == n else None


def exact_sqrt(q: Fraction) -> EtaValue:
    """The principal square root of q as coef * sqrt(radicand), exactly.

    A square or a negated square costs one isqrt (:func:`rational_sqrt`); any
    other goes through :func:`_squarefree_decompose`, whose radicand is
    squarefree below 10^9 and free of p^2 for p < 1000 everywhere.
    """
    root = rational_sqrt(abs(q))
    if root is not None:
        return EtaValue(root, 1 if q >= 0 else -1)
    s, m = _squarefree_decompose(q.numerator * q.denominator)
    return EtaValue(Fraction(s, q.denominator), m)
