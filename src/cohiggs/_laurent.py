"""Laurent monomials for the chart transitions of ``extension``.

A Laurent polynomial is a ``BiPoly`` whose exponents may be negative; the
``BiPoly`` arithmetic works on it unchanged.  ``monomial`` is the only code
that creates a negative exponent: ``BiPoly``'s public constructors and the
JSON decoder reject one, so these values never leave ``extension``.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import BiPoly


def monomial(i: int, j: int, c=1) -> BiPoly:
    """c * z1^i * z2^j for any integers i, j."""
    c = Fraction(c)
    out = BiPoly.__new__(BiPoly)
    out._terms = {(i, j): c.numerator} if c else {}
    out._den = c.denominator
    return out


def inv_monomial(f: BiPoly) -> BiPoly:
    """Inverse of a single-term Laurent polynomial."""
    terms = list(f.terms())
    if len(terms) != 1:
        raise ValueError("only monomials are invertible here")
    (i, j, c), = terms
    return monomial(-i, -j, 1 / c)


def regular(f: BiPoly, *, z1_sign: int, z2_sign: int) -> bool:
    """True iff f is polynomial in the target chart coordinates.

    z1_sign = +1 requires all z1 exponents >= 0 (the target chart keeps z1
    affine); -1 requires <= 0 (the target chart uses 1/z1).  Same for z2.
    """
    return all(i * z1_sign >= 0 and j * z2_sign >= 0 for i, j, _ in f.terms())
