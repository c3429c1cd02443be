"""Integer Smith normal form and first homology of a symbol.

All arithmetic is exact over Python ints.  The relation matrices of
symbols are sparse: a pair's row touches its own generator and the fiber,
and the commutator rows of the abelianization vanish.  So the Smith form
is a sparse elimination, :func:`_eliminate`.  Rows are ``{column: entry}``
dicts and each column keeps the set of rows that use it.
:func:`first_homology` hands it the relators' exponent sums in that form
directly, never writing the matrix out; :func:`smith_normal_form` checks
a dense matrix and converts its rows.  The pivot is the entry of least
absolute value, ties going to the least fill-in (Markowitz 1957), which
keeps both the entries and the number of nonzeros small, and then to the
first entry in row order.  The search compares |v| alone and works out
the fill-in only for an entry whose |v| ties or beats the best so far; it
stops early only at |v| = 1 with no fill-in.  The rule is kept as it is
because the pivot order fixes every intermediate coefficient, and two
cheaper-looking searches measured, per-row cached keys and a restart
searching only the pivot's row or column (which chose other pivots), cost
more than the rescans they save.  Row operations clear the pivot's column
and column operations its row; a row update touches a column's row set
only where an entry appears or vanishes.  Both keep the least absolute
remainder, at most |p|/2, where the floor remainder can reach |p| - 1
(a tie, |r| = |p|/2, keeps the floor one).  So the pivot after a
remainder is at most half the last, the Euclid variant with the fewest
steps (Knuth, TAOCP vol. 2, 4.5.3; Havas and Majewski 1997 for
matrices).  After a nonzero remainder the search starts again, over only
the rows the step changed (all rows when that is most of them): those
the row operations updated, and after column operations the pivot's row
as well.  The pivot was the least |v| of all entries, every other row is
unchanged, and a remainder of at most half the pivot exists, so each
entry tying for the new least |v| lies in a searched row, and the search
returns the pivot a full one would, fill-in read from the live column
counts.  After a diagonal entry the search visits every row.  What is
left is a diagonal, and one closing pass over its entries other than 1
(a 1 divides every entry) replaces each pair (a, b) by (gcd, lcm), an
equivalent diagonal, until the entries form a divisor chain.

>>> smith_normal_form([[2, 0], [0, 3]])
[1, 6]
>>> smith_normal_form([[2, 4], [4, 8]])
[2, 0]
"""

from __future__ import annotations

from math import gcd

from ._record import Record
from .presentations import _exponent_sums, pi1
from .symbols import Orientability, SeifertSymbol


def _pivot(rows, cols, among):
    """Entry of least |v|, then least fill-in (row nnz - 1)(col nnz - 1).

    Searches the rows ``among``, indices in row order; entries that tie on
    both go to the first in row order.
    """
    best = 0
    for i in among:
        row = rows[i]
        others = len(row) - 1
        for j, v in row.items():
            if v < 0:
                v = -v
            if v > best > 0:
                continue
            fill = others * (len(cols[j]) - 1)
            if v == best and fill >= best_fill:
                continue
            if v == 1 and fill == 0:
                return i, j
            best, best_fill, at = v, fill, (i, j)
    return at


def smith_normal_form(matrix) -> list[int]:
    """Diagonal of the Smith normal form, d1 | d2 | ... | dr, zeros last.

    Returns min(rows, cols) non-negative integers.  Row and column
    operations are unimodular throughout, so the product of the nonzero
    entries equals |det| for square input of full rank.  Every entry must
    be an int; a bool, float or string raises ValueError.
    """
    dense = [list(row) for row in matrix]
    for row in dense:
        if not {int}.issuperset(map(type, row)):
            v = next(v for v in row if type(v) is not int)
            raise ValueError(f"matrix entries must be integers, got {v!r}")
    n = len(dense[0]) if dense else 0
    if any(len(row) != n for row in dense):
        raise ValueError("matrix rows must all have the same length")
    return _eliminate([{j: v for j, v in enumerate(row) if v} for row in dense], n)


def _eliminate(sparse: list[dict[int, int]], n: int) -> list[int]:
    """The Smith diagonal of rows given as ``{column: nonzero entry}``
    dicts over n columns; the dicts are used up.  Columns ascend in each
    dict, as in a dense row, because pivot ties go to the first entry.

    Returns min(len(sparse), n) entries, as :func:`smith_normal_form`.
    """
    size = min(len(sparse), n)
    rows: dict[int, dict[int, int]] = {}
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, entries in enumerate(sparse):
        if entries:
            rows[i] = entries
            for j in entries:
                cols[j].add(i)

    diag = []
    changed = rows   # the rows the last step changed; all rows after a diagonal entry
    while rows:
        # search all rows when the step changed most of them: listing those
        # would cost more than it saves
        among = rows if 2 * len(changed) > len(rows) else sorted(rows.keys() & changed)
        pi, pj = _pivot(rows, cols, among)
        prow = rows[pi]
        p = prow[pj]
        items = list(prow.items())
        targets = cols[pj] - {pi}
        for i in targets:
            row = rows[i]
            q, r = divmod(row[pj], p)
            if 2 * abs(r) > abs(p):
                q += 1
            # |row[pj]| >= |p|, so q != 0 and a new entry is never zero
            for j, v in items:
                w = row.get(j)
                if w is None:
                    row[j] = -q * v
                    cols[j].add(i)
                elif w := w - q * v:
                    row[j] = w
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        if len(cols[pj]) > 1:
            changed = targets
            continue
        # the pivot column is zero off the pivot, so column operations
        # change only the pivot row
        for j in [j for j in prow if j != pj]:
            w = prow[j] % p
            if 2 * abs(w) > abs(p):
                w -= p
            if w:
                prow[j] = w
            else:
                del prow[j]
                cols[j].discard(pi)
        if len(prow) > 1:
            changed = targets | {pi}
            continue
        diag.append(abs(p))
        del rows[pi]
        cols[pj].clear()
        changed = rows

    # a 1 divides every entry and stays a 1
    rest = [d for d in diag if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            if rest[j] % rest[i]:
                g = gcd(rest[i], rest[j])
                rest[i], rest[j] = g, rest[i] * rest[j] // g
    return [1] * (len(diag) - len(rest)) + rest + [0] * (size - len(diag))


class AbelianGroupStructure(Record):
    """Finitely generated abelian group: free rank plus torsion chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError("torsion coefficients must form a divisor chain")

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "trivial"


def first_homology(symbol: SeifertSymbol) -> AbelianGroupStructure:
    """H1 of the fibered space: abelianized fundamental group.

    >>> str(first_homology(SeifertSymbol(0, Orientability.O1, ())))
    'Z'
    """
    pres = pi1(symbol)
    invariants = _eliminate(_exponent_sums(pres), len(pres.generators))
    rank = sum(1 for d in invariants if d)
    free = len(pres.generators) - rank
    torsion = tuple(d for d in invariants if d > 1)
    return AbelianGroupStructure(free, torsion)
