"""Integer Smith normal form and first homology of a symbol.

All arithmetic is exact over Python ints; matrices are small (rows and
columns each a few dozen at most for any symbol this library builds), so
the classic elimination with a minimal-absolute-value pivot is plenty.

>>> smith_normal_form([[2, 0], [0, 3]])
[1, 6]
>>> smith_normal_form([[2, 4], [4, 8]])
[2, 0]
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .presentations import abelianize, pi1
from .symbols import Orientability, SeifertSymbol


def smith_normal_form(matrix) -> list[int]:
    """Diagonal of the Smith normal form, d1 | d2 | ... | dr, zeros last.

    Returns min(rows, cols) non-negative integers.  Row and column
    operations are unimodular throughout, so the product of the nonzero
    entries equals |det| for square input of full rank.
    """
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("matrix rows must all have the same length")
    size = min(m, n)

    t = 0
    while t < size:
        # smallest nonzero entry of the trailing block becomes the pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]

        while True:
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            pivot = a[t][t]
            # clear the pivot column; a leftover remainder is a smaller
            # pivot, promote it and start over
            smaller = None
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        smaller = i
            if smaller is not None:
                a[t], a[smaller] = a[smaller], a[t]
                continue
            cleared = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // pivot
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        cleared = False
                        break
            if not cleared:
                continue
            # divisibility repair: the pivot must divide the whole block
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % pivot:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        t += 1

    diag = [abs(a[i][i]) for i in range(size)]
    nonzero = [d for d in diag if d]
    # belt and braces: enforce the divisor chain even if elimination left
    # it intact already
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            if nonzero[j] % nonzero[i]:
                g = gcd(nonzero[i], nonzero[j])
                nonzero[i], nonzero[j] = g, nonzero[i] * nonzero[j] // g
    return nonzero + [0] * (size - len(nonzero))


@dataclass(frozen=True)
class AbelianGroupStructure:
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
    invariants = smith_normal_form(abelianize(pres) or [[0] * len(pres.generators)])
    if not pres.generators:
        return AbelianGroupStructure(0, ())
    rank = sum(1 for d in invariants if d)
    free = len(pres.generators) - rank
    torsion = tuple(d for d in invariants if d > 1)
    return AbelianGroupStructure(free, torsion)
