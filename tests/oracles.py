"""Independent oracles the suite checks the library against.

Each oracle recomputes its answer from first principles, blind to how
the library gets there: equivalence is decided by searching the actual
move graph, Smith invariants come from minor gcds, descriptor laws are
read straight off the folded tables.  Keeping them apart
from the package means a bug cannot hide behind shared code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from seifert import SeifertSymbol

Pairs = tuple[tuple[int, int], ...]


def _canonical(symbol: SeifertSymbol) -> tuple[int, str, Pairs]:
    return (symbol.genus, symbol.orientability.value,
            tuple(sorted((pr.q, pr.p) for pr in symbol.pairs)))


def _successors(pairs: Pairs, pair_cap: int, p_cap: int) -> set[Pairs]:
    """Pair multisets one move away.

    Moves: insert or delete a (1,0) pair; shift any pair's p by +-q,
    compensating the sum either by inserting (1,-+1) or by deleting an
    existing (1,+-1).  The deletion variants are the inverses of the
    insertion variants, so reachability is symmetric.
    """
    out = set()
    listed = list(pairs)
    if len(listed) < pair_cap:
        out.add(tuple(sorted(listed + [(1, 0)])))
    for idx, (q, p) in enumerate(listed):
        rest = listed[:idx] + listed[idx + 1:]
        if (q, p) == (1, 0):
            out.add(tuple(sorted(rest)))
        for sign in (1, -1):
            shifted = (q, p + sign * q)
            if abs(shifted[1]) > p_cap:
                continue
            if len(listed) < pair_cap:
                out.add(tuple(sorted(rest + [shifted, (1, -sign)])))
            if (1, sign) in rest:
                reduced = list(rest)
                reduced.remove((1, sign))
                out.add(tuple(sorted(reduced + [shifted])))
    return out


def moves_connect(a: SeifertSymbol, b: SeifertSymbol, max_depth: int = 6) -> bool:
    """Bounded-depth bidirectional search over the move graph.

    Moves never touch genus or class, and every move preserves the sum
    of p/q exactly (the compensating (1,+-1) cancels each shift), so
    symbols differing in any of those are unreachable at every depth
    and the search is skipped for them.
    """
    sa, sb = _canonical(a), _canonical(b)
    if sa[:2] != sb[:2]:
        return False
    if (sum(Fraction(p, q) for q, p in sa[2])
            != sum(Fraction(p, q) for q, p in sb[2])):
        return False
    if sa == sb:
        return True

    all_pairs = sa[2] + sb[2]
    q_max = max([q for q, _ in all_pairs] + [1])
    p_cap = max([abs(p) for _, p in all_pairs] + [0]) + max_depth * q_max
    pair_cap = max(len(sa[2]), len(sb[2])) + max_depth

    sides = [({sa[2]}, {sa[2]}), ({sb[2]}, {sb[2]})]  # (frontier, visited)
    spent = 0
    while spent < max_depth and sides[0][0] and sides[1][0]:
        grow = 0 if len(sides[0][0]) <= len(sides[1][0]) else 1
        frontier, visited = sides[grow]
        other_visited = sides[1 - grow][1]
        level = set()
        for state in frontier:
            for nxt in _successors(state, pair_cap, p_cap):
                if nxt in visited:
                    continue
                if nxt in other_visited:
                    return True
                level.add(nxt)
        visited |= level
        sides[grow] = (level, visited)
        spent += 1
    return False


def _det(rows: list[list[int]]) -> int:
    # Laplace expansion; the suite only asks for sizes up to 4
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * v * _det(minor)
    return total


def exact_det(matrix) -> int:
    rows = [list(map(int, row)) for row in matrix]
    if len(rows) != len(rows[0]):
        raise ValueError("determinant needs a square matrix")
    return _det(rows)


def snf_minor_gcd(matrix) -> list[int]:
    """Smith invariants as quotients of k x k minor gcds."""
    a = [list(map(int, row)) for row in matrix]
    m, n = len(a), len(a[0])
    size = min(m, n)
    invariants: list[int] = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for rows_idx in combinations(range(m), k):
            for cols_idx in combinations(range(n), k):
                sub = [[a[i][j] for j in cols_idx] for i in rows_idx]
                g = gcd(g, _det(sub))
        if g == 0:
            invariants.extend([0] * (size + 1 - k))
            return invariants
        invariants.append(g // prev)
        prev = g
    return invariants


def folded_law_scan(descriptor) -> tuple[bool, str | None, tuple | None]:
    """(ok, law, witness) of the folded descriptor laws, scanned naively.

    Laws in order: trivial identity datum; epsilon a homomorphism;
    beta_bar a homomorphism; theta2_bar(i, gh) = epsilon(h) *
    theta2_bar(beta_bar(h)(i), g) + theta2_bar(i, h) mod 1; beta_bar
    keeps each (q, p).  The first failing (g, h[, i]) is the witness.
    """
    eps, perm, rot = descriptor.epsilon, descriptor.beta_bar, descriptor.theta2_bar
    table = descriptor.group.table
    m, n = len(table), len(descriptor.base.pairs)
    if eps[0] != 1 or list(perm[0]) != list(range(n)) or any(v % 1 for v in rot[0]):
        return False, "identity", (0,)
    pairs_gh = [(g, h) for g in range(m) for h in range(m)]
    for g, h in pairs_gh:
        if eps[table[g][h]] != eps[g] * eps[h]:
            return False, "epsilon", (g, h)
    for g, h in pairs_gh:
        if any(perm[table[g][h]][i] != perm[g][perm[h][i]] for i in range(n)):
            return False, "beta_bar", (g, h)
    for g, h in pairs_gh:
        for i in range(n):
            drift = (rot[table[g][h]][i] - eps[h] * rot[g][perm[h][i]] - rot[h][i])
            if drift % 1:
                return False, "theta2_bar", (g, h, i)
    pairs = descriptor.base.pairs
    for g in range(m):
        for i in range(n):
            if pairs[perm[g][i]] != pairs[i]:
                return False, "pairs", (g, i)
    return True, None, None
