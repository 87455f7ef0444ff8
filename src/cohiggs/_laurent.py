"""Laurent monomials, in which the chart transitions of ``extension`` are
derived by conjugation to check its closed forms against.

A Laurent polynomial is a ``BiPoly`` whose exponents may be negative; the
``BiPoly`` arithmetic and printing work on it unchanged, but ``evaluate``
raises on it.  ``monomial`` is the only code that creates a negative
exponent, through ``exactalg._normalized`` (which alone writes ``BiPoly``'s
storage): ``BiPoly``'s public constructors and the JSON decoder reject one,
so these values never reach the library's inputs or outputs.
"""

from __future__ import annotations

from .exactalg import BiPoly, _as_rat, _normalized


def monomial(i: int, j: int, c=1) -> BiPoly:
    """c * z1^i * z2^j for any integers i, j."""
    c = _as_rat(c)
    return _normalized({(i, j): c.numerator}, c.denominator)
