"""Independent oracles the suite checks the library against.

Each oracle recomputes its answer from first principles, blind to how
the library gets there: equivalence is decided by searching the actual
move graph, Smith invariants come from minor gcds, group and map laws
are checked on every triple or pair, action and descriptor laws are
read straight off the tables, structure reports are recomputed from the
action tables without building a group, the image group of an action
is built by composing its data pair by pair, and the descriptors of a
cyclic group are counted in closed form.  Keeping them apart
from the package means a bug cannot hide behind shared code.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod

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


def naive_associative(table) -> bool:
    """(gh)k == g(hk) for every triple of a multiplication table."""
    m = len(table)
    return all(table[table[g][h]][k] == table[g][table[h][k]]
               for g in range(m) for h in range(m) for k in range(m))


def group_check(table) -> str | None:
    """The message a table's group check gives, or None for a group, read entry by entry.

    Faults in order: the table, then each row as it comes, not a tuple;
    no rows; a row of the wrong length, then its first entry that is not
    an int (``type``, so not ``True`` or ``1.0``) in [0, m); then for each
    index i, the identity at (0, i) and (i, 0), row i and column i each
    a permutation; then (x*s)*y == x*(s*y) for s over the greedy
    generators (each the least element that right products of the ones
    before it do not reach from 0), x and then y in order.
    """
    if type(table) is not tuple:
        return f"multiplication table must be a tuple, got {type(table).__name__}"
    m = len(table)
    if m == 0:
        return "a group needs at least the identity element"
    for row in table:
        if type(row) is not tuple:
            return f"table row must be a tuple, got {type(row).__name__}"
        if len(row) != m:
            return "multiplication table must be square"
        for v in row:
            if type(v) is not int or v < 0 or v >= m:
                return f"table entry {v!r} is not an integer in [0, {m})"
    for i in range(m):
        if table[0][i] != i or table[i][0] != i:
            return "index 0 must be the identity"
        if sorted(table[i]) != list(range(m)):
            return f"row {i} is not a permutation"
        if sorted(table[x][i] for x in range(m)) != list(range(m)):
            return f"column {i} is not a permutation"
    gens, reached = [], {0}
    for g in range(m):
        if g in reached:
            continue
        gens.append(g)
        while True:
            new = {table[x][s] for x in reached for s in gens} - reached
            if not new:
                break
            reached |= new
    for s in gens:
        for x in range(m):
            for y in range(m):
                if table[table[x][s]][y] != table[x][table[s][y]]:
                    return f"associativity fails at ({x},{s},{y})"
    return None


def naive_homomorphism(source, target, images) -> bool:
    """f(gh) == f(g)f(h) for every pair of source elements (tables)."""
    m = len(source)
    return all(images[source[g][h]] == target[images[g]][images[h]]
               for g in range(m) for h in range(m))


def law_scan(spec) -> tuple[bool, str | None, tuple | None]:
    """(ok, law, witness) of the action laws, scanned naively.

    Laws in order: trivial identity datum; alpha multiplicative; theta1(gh)
    = theta1(g) + alpha(g) * theta1(h) mod 1; beta(gh) = beta(g) o beta(h);
    theta2(i, gh) = theta2(beta(h)(i), g) + alpha(g) * theta2(i, h) mod 1;
    beta keeps each (q, p).  Each law runs over every (g, h) before the
    next, and the first failing (g, h[, i]) is the witness.
    """
    alpha, theta1, beta, theta2 = spec.alpha, spec.theta1, spec.beta, spec.theta2
    table = spec.group.table
    m, n = len(table), len(spec.symbol.pairs)
    if theta1[0] % 1 or alpha[0] != 1 or list(beta[0]) != list(range(n)) or any(
            v % 1 for v in theta2[0]):
        return False, "identity", (0,)
    pairs_gh = [(g, h) for g in range(m) for h in range(m)]
    for g, h in pairs_gh:
        if alpha[table[g][h]] != alpha[g] * alpha[h]:
            return False, "alpha", (g, h)
    for g, h in pairs_gh:
        if (theta1[table[g][h]] - theta1[g] - alpha[g] * theta1[h]) % 1:
            return False, "theta1", (g, h)
    for g, h in pairs_gh:
        if any(beta[table[g][h]][i] != beta[g][beta[h][i]] for i in range(n)):
            return False, "beta", (g, h)
    for g, h in pairs_gh:
        for i in range(n):
            if (theta2[table[g][h]][i] - theta2[g][beta[h][i]] - alpha[g] * theta2[h][i]) % 1:
                return False, "theta2", (g, h, i)
    pairs = spec.symbol.pairs
    for g in range(m):
        for i in range(n):
            if pairs[beta[g][i]] != pairs[i]:
                return False, "pairs", (g, i)
    return True, None, None


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


def image_group(spec) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(table, images) of the image of g -> datum(g), built by brute force.

    A datum is (alpha, theta1, beta, theta2), and data compose by the laws
    :func:`law_scan` states: datum(g) o datum(h) = (alpha(g) * alpha(h),
    theta1(g) + alpha(g) * theta1(h), beta(g) o beta(h),
    i -> theta2(beta(h)(i), g) + alpha(g) * theta2(i, h)), rotations mod 1.
    The elements are the distinct data, the identity's first, at index 0;
    ``images[g]`` is the index of datum(g), and each table entry is the
    index of a composite, looked up among the data (KeyError if the data
    are not closed).
    """
    m, n = len(spec.group.table), len(spec.symbol.pairs)
    data = [(spec.alpha[g], spec.theta1[g], tuple(spec.beta[g]), tuple(spec.theta2[g]))
            for g in range(m)]
    index = {d: k for k, d in enumerate(dict.fromkeys(data))}

    def compose(a, b):
        return (a[0] * b[0], (a[1] + a[0] * b[1]) % 1, tuple(a[2][j] for j in b[2]),
                tuple((a[3][b[2][i]] + a[0] * b[3][i]) % 1 for i in range(n)))

    table = tuple(tuple(index[compose(a, b)] for b in index) for a in index)
    return table, tuple(index[d] for d in data)


def tau_scan(spec) -> tuple[bool, str | None, tuple | None] | None:
    """(ok, condition, witness) of the covering-translation test, scanned naively.

    None when the test does not apply: the symbol is not of class o1 with
    its pairs doubled in blocks (pair i equal to pair i+n), or some alpha
    is -1; the spec is assumed to pass the laws.  Conditions in order,
    each over every element and all 2n indices before the next: theta1 in
    {0, 1/2}; beta(g) commutes with the swap sigma(i) = i+n mod 2n;
    theta2(sigma(i), g) = -theta2(i, g) mod 1.  The first failing (g[, i])
    is the witness.
    """
    pairs = spec.symbol.pairs
    n2 = len(pairs)
    n = n2 // 2
    if (spec.symbol.orientability.value != "o1" or n2 % 2 or pairs[:n] != pairs[n:]
            or any(a != 1 for a in spec.alpha)):
        return None
    m = len(spec.group.table)
    for g in range(m):
        if spec.theta1[g] not in (0, Fraction(1, 2)):
            return False, "half-rotation", (g,)
    sigma = [(i + n) % n2 for i in range(n2)]
    for g in range(m):
        for i in range(n2):
            if spec.beta[g][sigma[i]] != sigma[spec.beta[g][i]]:
                return False, "sigma-equivariance", (g, i)
    for g in range(m):
        for i in range(n2):
            if (spec.theta2[g][sigma[i]] + spec.theta2[g][i]) % 1:
                return False, "meridian-antisymmetry", (g, i)
    return True, None, None


def structure_scan(spec) -> tuple[str, int, bool]:
    """(route, shadow_order, embedding_ok) of a valid action, scanned naively.

    The route is covering-translation when :func:`tau_scan` passes,
    fiber-rotation for other alpha = 1 actions and orientation-mixed
    otherwise.  shadow_order counts the distinct (alpha, beta, theta2)
    rows.  embedding_ok asks that distinct elements have distinct product
    coordinates (theta1 * n mod n, shadow), n the least common denominator
    of theta1, when alpha is identically 1, and distinct full data
    otherwise.
    """
    m = len(spec.group.table)
    shadows = [(spec.alpha[g], tuple(spec.beta[g]), tuple(spec.theta2[g])) for g in range(m)]
    if any(a != 1 for a in spec.alpha):
        coords = [(spec.theta1[g],) + shadows[g] for g in range(m)]
        return "orientation-mixed", len(set(shadows)), len(set(coords)) == m
    rotation = lcm(*(t.denominator for t in spec.theta1))
    coords = [(int(spec.theta1[g] * rotation) % rotation, shadows[g]) for g in range(m)]
    tau = tau_scan(spec)
    route = "covering-translation" if tau and tau[0] else "fiber-rotation"
    return route, len(set(shadows)), len(set(coords)) == m


def _cycle_types(k: int, m: int):
    """The cycle types of the permutations of k points whose order divides m.

    Each is a dict {cycle length l: count a_l}, with sum(l * a_l) = k and
    every l dividing m; the type of the identity is {1: k}.
    """
    def parts(rest, largest):
        if rest == 0:
            yield {}
            return
        for l in range(min(rest, largest), 0, -1):
            if m % l == 0:
                for a in range(rest // l, 0, -1):
                    for tail in parts(rest - a * l, l - 1):
                        yield {l: a, **tail}
    return list(parts(k, k))


def _permutations_of_type(k: int, cycle_type: dict) -> int:
    """How many permutations of k points have this cycle type: k!/prod(l^a_l a_l!)."""
    return factorial(k) // prod(l ** a * factorial(a) for l, a in cycle_type.items())


def cyclic_descriptor_count(base, m: int, N: int) -> int:
    """Valid descriptors over base for the cyclic group Z/m, every
    theta2_bar entry in (1/N)Z/Z, counted in closed form.

    The data of the generator, (e, pi, r) = (epsilon(1), beta_bar(1),
    theta2_bar row of 1), fix the descriptor: the folded law at (k, 1)
    gives row(k + 1)[i] = e * row(k)[pi(i)] + r[i].  It is valid exactly
    when e^m = 1, pi^m = 1, pi keeps each (q, p), and row(m) = 0: the
    sum over j < m of e^j * r[pi^j(i)] vanishes mod 1 at every i.  On a
    cycle of pi of length l that sum is c times one linear form of the
    cycle's l entries, c = m/l if e^l = 1 and c = 0 otherwise, so the
    cycle admits N^(l-1) * gcd(c, N) rows (gcd(0, N) = N).  Permutations
    of one class of k equal pairs are summed by cycle type, with
    :func:`_permutations_of_type` of them for each.  Brown, *Cohomology
    of Groups*, GTM 87, section III.1: Z^1 of a cyclic group is the
    kernel of the norm map.
    """
    classes = Counter((pr.q, pr.p) for pr in base.pairs).values()
    total = 0
    for e in (1, -1) if m % 2 == 0 else (1,):
        def rows(l):
            return N ** (l - 1) * gcd(m // l if e ** l == 1 else 0, N)
        total += prod(sum(_permutations_of_type(k, t) * prod(rows(l) ** a for l, a in t.items())
                          for t in _cycle_types(k, m))
                      for k in classes)
    return total
