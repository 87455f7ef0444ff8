"""Exact rank over the rationals, eliminated on integer rows.

One forward elimination serves every exact linear-algebra question in the
package: the dimension counts of the extension ansatz, and the root
questions of ``higgs`` and ``spectral``, which ask whether Sylvester-type
rows are of full rank.  Pivoting is by first nonzero entry over the sorted
columns, where a column is any sortable key.  Rows are held sparsely, as
``{column: entry}`` dicts of their nonzero entries (``extension`` keys its
forms by ``(comp, i, j)``; a dense list row is keyed by position).

A singleton pass comes first (the first step of structured Gaussian
elimination): each column that holds a one-entry row counts into the rank
and is deleted from every row, until no such row is left.  It reads only
which entries are present, so the extension ansatz runs it once per twist
and shape and ranks only what it leaves of each class.  Then each row is
scaled to a primitive integer row: times the lcm of its denominators (an
entry is an ``int`` or ``Fraction``), over its numerators' gcd.  An update sets
row <- (p/g)*row - (f/g)*pivot_row, where p is the pivot, f the row's
entry in its column and g = gcd(p, f), and divides the new row by its
content (Knuth, TAOCP vol. 2, 4.6.1), so no ``Fraction`` is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Union

# a dense row, or the {column: entry} dict of a row's entries (sortable keys)
Row = Union[list[Fraction], dict[Any, Fraction]]


def _content_free(row: dict[Any, int]) -> dict[Any, int]:
    """The integer row over the gcd of its entries."""
    c = gcd(*row.values())
    return {j: a // c for j, a in row.items()} if c > 1 else row


def _primitive(row: dict) -> dict[Any, int]:
    """The row times the lcm of its denominators, over the gcd of the numerators."""
    d = lcm(*(a.denominator for a in row.values()))
    return _content_free({j: a.numerator * (d // a.denominator) for j, a in row.items()})


def _clear_singletons(rows: list[dict]) -> tuple[int, list[dict]]:
    """How many columns the singleton pass clears, and the nonempty rows it
    leaves: it reads only which entries are present, and edits no row."""
    count, rows = 0, [row for row in rows if row]
    while cleared := {j for row in rows if len(row) == 1 for j in row}:
        count += len(cleared)
        # a row inside the cleared columns goes, and one that meets them is rebuilt
        rows = [{j: a for j, a in row.items() if j not in cleared} if not cleared.isdisjoint(row)
                else row for row in rows if not row.keys() <= cleared]
    return count, rows


def rank(rows: list[Row]) -> int:
    """Rank of the matrix with these rows; the rows passed in are not modified."""
    m = [row if type(row) is dict and all(row.values()) else {j: a for j, a in
         (row.items() if type(row) is dict else enumerate(row)) if a} for row in rows]
    singletons, m = _clear_singletons(m)
    m = [_primitive(row) for row in m]
    r = 0
    # only a column that holds a nonzero entry can hold a pivot
    for col in sorted({j for row in m for j in row}):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if col in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        # the pivot column cancels exactly, so it is popped, not updated
        rest = [(j, b) for j, b in m[r].items() if j != col]
        for i in range(r + 1, len(m)):
            row = m[i]
            if col in row:
                f = row.pop(col)
                g = gcd(pv, f)
                s, f = pv // g, f // g
                row = {j: s * a for j, a in row.items()} if s != 1 else row
                for j, b in rest:
                    a = row.get(j, 0) - f * b
                    if a:
                        row[j] = a
                    else:
                        del row[j]
                m[i] = _content_free(row)
        r += 1
    return singletons + r
