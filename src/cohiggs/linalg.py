"""Exact rank over the rationals.

One forward elimination serves every exact linear-algebra question in the
package: the dimension counts of the extension ansatz, and the root
questions of ``higgs`` and ``spectral``, which ask whether Sylvester-type
rows are of full rank.  Pivoting is by first nonzero entry; exact
arithmetic makes numerical pivot selection irrelevant.

Rows are held sparsely, as ``{column: entry}`` dicts of their nonzero
entries, where a column is any sortable key (taken in sorted order), so a
row update costs the pivot row's nonzeros rather than the full width.  The
ansatz systems are about 97% zeros; ``extension`` hands in its forms keyed
by ``(comp, i, j)``, and a dense list row is filtered into one by position.

Most ansatz rows hold a single nonzero entry (58 of 102 rows at twist
(2, 0), 74 of 96 at (0, 2)).  Such a row is a pivot that only clears its
column, with no arithmetic, so before eliminating, a singleton pass
(the first step of structured Gaussian elimination) counts each column
that holds a singleton row into the rank, deletes those columns from
every row and drops the rows left empty, until no singleton is left.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Union

# a dense row, or the {column: entry} dict of a row's nonzero entries (sortable keys)
Row = Union[list[Fraction], dict[Any, Fraction]]


def rank(rows: list[Row]) -> int:
    """Rank of the matrix with these rows; the rows passed in are not modified."""
    m = [dict(row) if type(row) is dict else {j: a for j, a in enumerate(row) if a}
         for row in rows]
    singletons = 0
    while cleared := {j for row in m if len(row) == 1 for j in row}:
        singletons += len(cleared)
        # the rows inside the cleared columns would be left empty
        m = [row for row in m if not row.keys() <= cleared]
        for row in m:
            for j in cleared.intersection(row):
                del row[j]
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
        for row in m[r + 1 :]:
            if col in row:
                f = row.pop(col) / pv
                for j, b in rest:
                    a = row.get(j, 0) - f * b
                    if a:
                        row[j] = a
                    else:
                        del row[j]
        r += 1
    return singletons + r
