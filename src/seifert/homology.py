"""Integer Smith normal form, and first homology of a symbol in closed form.

All arithmetic is exact over Python ints.  First homology is read off
the pairs (H. Seifert, "Topologie dreidimensionaler gefaserter Räume",
Acta Math. 60, 1933; P. Orlik, *Seifert Manifolds*, LNM 291, 1972).  Let
D_1, D_2, ... be the invariant factors of diag(q_1, ..., q_n), largest
first, with D_k = 1 past the last one over 1, and E the sum of the p/q.
For class o1 of genus g, H1 = Z^(2g) + C + Z/D_3 + ... + Z/D_n, with
C = Z when E = 0 and C = Z/|D_1 D_2 E| otherwise.  For class n2 with k
crosscaps, H1 = Z^(k-1) + Z/(2^(2-m) D_1) + Z/(2^m D_2) + Z/D_3 + ... +
Z/D_n, with m = 0 when D_1 E is odd and m = 1 otherwise.  The 1s drop
out and the rest is a divisor chain.  Why: localize the relation matrix
of :func:`~seifert.presentations.pi1` at a prime l.  A pair with l not
dividing q writes its generator as a multiple of the fiber; of the pairs
with l | q, all but the two of largest valuation split off Z/l^v(q); what
is left is a 2x2 block of the surface relator (and, for n2, of 2t = 0)
whose entries carry l^v(D_1) E.

D_1 E is the integer sum of p (D_1 / q), added up over a tree of lcms
(:func:`~seifert.symbols._scaled_sum`, which ``total_sum`` uses too), so
no fraction is formed.  The D_k come from a coprime base of the q:
pairwise coprime b > 1, every q a product of their powers.  D_k is the
product of b^e over the base, e the k-th largest exponent of b over the
q, so no q is ever factored; a q may have thousands of digits.  The base
is built by halving the distinct q (:func:`_coprime_base`), as in D. J.
Bernstein, "Factoring into coprimes in essentially linear time"
(J. Algorithms 54, 2005), though with a simpler merge (:func:`_merge`):
the bases of the two halves meet only where they share a factor,
remainder trees find where, and the merge halves the elements that meet
until few are left.  Those, and a block of at most ``_BLOCK`` q, go to
the leaf, factor refinement by gcds (:func:`_refine`), in which each
value crosses the base once: a base element that divides it is divided
out in place, all its powers at once, and one that meets it otherwise
is refined with the part of the value made of its primes alone, the
rest of the value going on.  Nothing goes in again, and the leaf divides
only by elements of the base.  With this leaf, ``_BLOCK`` = 64 and
``_DIRECT`` = 1024 measured fastest of the sizes tried
(``BENCH_h1_leaf.json``), so every symbol of up to 64 distinct q is one
leaf.  Each base element carries the multiset of its exponents through
the same merges, so no q is scanned against the base afterwards.  The
chain of D_k gets, from each b, the power of rank k: an exponent that c
of the q share fills c indices in a row, after the larger exponents.  A
chain of fewer than ``_TREE`` = 16 powers is multiplied in turn, a
longer one by a product tree, so that long products stay balanced.

The Smith normal form of a matrix, :func:`smith_normal_form`, is a
sparse elimination, :func:`_eliminate`.  Rows are ``{column: entry}``
dicts and each column keeps the set of rows that use it.  The pivot is
the entry of least absolute value, ties going to the least fill-in
(Markowitz 1957), which keeps both the entries and the number of
nonzeros small, and then to the first entry in row order.  The search
compares |v| alone and works out the fill-in only for an entry whose |v|
ties or beats the best so far; it stops early only at |v| = 1 with no
fill-in.  The rule is kept as it is because the pivot order fixes every
intermediate coefficient, and two cheaper-looking searches measured,
per-row cached keys and a restart searching only the pivot's row or
column (which chose other pivots), cost more than the rescans they save.
Row operations clear the pivot's column and column operations its row; a
row update touches a column's row set only where an entry appears or
vanishes.  Both keep the least absolute remainder, at most |p|/2, where
the floor remainder can reach |p| - 1 (a tie, |r| = |p|/2, keeps the
floor one).  So the pivot after a remainder is at most half the last,
the Euclid variant with the fewest steps (Knuth, TAOCP vol. 2, 4.5.3;
Havas and Majewski 1997 for matrices).  After a nonzero remainder the
search starts again, over only the rows the step changed (all rows when
that is most of them): those the row operations updated, and after
column operations the pivot's row as well.  The pivot was the least |v|
of all entries, every other row is unchanged, and a remainder of at most
half the pivot exists, so each entry tying for the new least |v| lies in
a searched row, and the search returns the pivot a full one would,
fill-in read from the live column counts.  After a diagonal entry the
search visits every row.  What is left is a diagonal, and one closing
pass over its entries other than 1 (a 1 divides every entry) replaces
each pair (a, b) by (gcd, lcm), an equivalent diagonal, until the
entries form a divisor chain.

>>> smith_normal_form([[2, 0], [0, 3]])
[1, 6]
>>> smith_normal_form([[2, 4], [4, 8]])
[2, 0]
"""

from __future__ import annotations

from math import gcd, prod

from ._record import Record, _built, _decimal
from .presentations import _check_genus
from .symbols import Orientability, SeifertSymbol, _scaled_sum


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
        parts.extend(f"Z/{_decimal(d)}" for d in self.torsion)
        return " x ".join(parts) if parts else "trivial"


def _product_tree(xs: list[int]) -> list[list[int]]:
    """Levels of the product tree over the nonempty ``xs``, leaves first.

    Each level multiplies adjacent pairs of the one below, an odd last
    entry moving up as it is, so entry i of level k is the product of
    leaves i * 2**k up to (i + 1) * 2**k; the last level is [product].
    """
    levels = [xs]
    while len(xs) > 1:
        xs = [xs[i] * xs[i + 1] for i in range(0, len(xs) - 1, 2)] + xs[len(xs) - len(xs) % 2:]
        levels.append(xs)
    return levels


def _product(xs: list[int]) -> int:
    return _product_tree(xs)[-1][0]


def _sharing(xs: list[int], p: int) -> list[int]:
    """The ``xs`` that have a factor in common with p.

    A remainder tree: p is reduced modulo each node of the product tree
    over the xs, root first, so the gcd at a leaf x takes p mod x.
    """
    rests = [p]
    for level in reversed(_product_tree(xs)):
        rests = [rests[i // 2] % v for i, v in enumerate(level)]
    return [x for x, r in zip(xs, rests) if gcd(x, r) > 1]


def _plus(ec: dict[int, int], ey: dict[int, int], k: int = 1) -> dict[int, int]:
    """The exponent map ec + k ey, a new dict."""
    total = dict(ec)
    for j, e in ey.items():
        total[j] = total.get(j, 0) + k * e
    return total


def _refine(items: list[tuple[int, dict[int, int]]]) -> dict[int, dict[int, int]]:
    """A coprime base of the values of ``items``, pairs of an int y over 1
    and its exponent map ``{key: e}``: each b mapped to its own map, so
    that for every key the product of y**e over the items equals the
    product of b**e over the base.

    Factor refinement (E. Bach, J. Driscoll and J. Shallit, "Factor
    refinement", J. Algorithms 15, 1993), one item at a time, each
    crossing the base once.  A base element c that divides y is divided
    out of it as often as it goes, k times, and takes k times y's map.
    Where c still meets what is left, g = gcd(c, y) > 1, the part y_c of
    y made of c's primes leaves y, and c gives way to the refinement of
    g, c/g and y_c/g alone, g with the maps of both.  Those pieces are
    made of c's primes, so the rest of the base and the rest of y are
    coprime to them; nothing goes in again.
    """
    base: dict[int, dict[int, int]] = {}
    for y, ey in items:
        met = []
        for c in base:
            g = gcd(c, y)
            if g == 1:
                continue
            if g == c:
                k = 0
                while not y % c:   # c**k, by powers c, c**2, c**4, ...
                    p, j = c, 1
                    while not y % p:
                        y //= p
                        k += j
                        p, j = p * p, 2 * j
                base[c] = _plus(base[c], ey, k)
                g = gcd(c, y)
            if g > 1:
                part = 1
                while g > 1:   # y_c, whose primes are c's: the exponent doubles
                    part *= g
                    y //= g
                    g = gcd(y, part)
                met.append((c, part))
            if y == 1:
                break
        for c, part in met:
            ec = base.pop(c)
            g = gcd(c, part)
            # g goes in first, so that the others divide out its powers:
            # c = 2**9 and y_c = 2 take one step, not eight
            pieces = ((g, _plus(ec, ey)), (c // g, ec), (part // g, ey))
            base.update(_refine([(v, e) for v, e in pieces if v > 1]))
        if y > 1:
            base[y] = ey
    return base


def _refined(items: list[tuple[int, dict[int, int]]]) -> dict[int, dict[int, int]]:
    """The coprime base of the values of ``items``, pairs of a value and
    the multiset ``{e: count}`` of its exponents over the q, each base
    element with the multiset of its own.

    A q has its exponents in one value alone (a q of a block is its own
    value, exponent 1) or in the pairwise coprime values of its side of a
    merge, so a base element b divides at most one value v of each q.
    Where v has exponent e and b**f is the power of b in v, b has e * f.
    """
    base = {}
    for b, parts in _refine([(v, {i: 1}) for i, (v, _) in enumerate(items)]).items():
        exponents: dict[int, int] = {}
        for i, f in parts.items():
            for e, count in items[i][1].items():
                exponents[e * f] = exponents.get(e * f, 0) + count
        base[b] = exponents
    return base


# refinement takes alone a block of at most this many distinct q, and a
# merge of families whose sizes multiply to at most _DIRECT; measured
# against 16/64, 32/256, 128/1024 and 128/4096 (BENCH_h1_leaf.json)
_BLOCK = 64
_DIRECT = 1024


def _coprime_base(count: dict[int, int]) -> dict[int, dict[int, int]]:
    """A coprime base of the q over 1 that ``count`` maps to their
    multiplicities: each b mapped to ``{e: how many q have exponent e}``.

    Halves the q and merges the bases of the halves.  Remainder trees
    pick out the elements of each base that share a factor with the
    other; the rest passes through, and :func:`_merge` takes the others.
    """
    qs = list(count)
    if len(qs) <= _BLOCK:
        return _refined([(q, {1: count[q]}) for q in qs])
    half = len(qs) // 2
    left = _coprime_base({q: count[q] for q in qs[:half]})
    right = _coprime_base({q: count[q] for q in qs[half:]})
    near_left = set(_sharing(list(left), _product(list(right))))
    if not near_left:
        return left | right
    near_right = set(_sharing(list(right), _product(list(near_left))))
    base = {b: e for b, e in left.items() if b not in near_left}
    base.update((b, e) for b, e in right.items() if b not in near_right)
    base.update(_merge({b: left[b] for b in near_left}, {b: right[b] for b in near_right}))
    return base


def _merge(xs: dict[int, dict[int, int]], ys: dict[int, dict[int, int]]
           ) -> dict[int, dict[int, int]]:
    """The coprime base of two families, each pairwise coprime and each
    element with its exponent multiset, in which every element shares a
    factor with some element of the other family.

    Halves the larger family, say xs = x1 + x2, and merges x1 with the ys
    that meet it first.  The base elements that divide the product of x1
    are coprime to x2 and to the other ys, so they are final; the others,
    each the part of one y coprime to x1, join the other ys, and those of
    them that meet x2 merge with it.  Each element of x2 meets one of
    them, as its common factor with a y outlives x1, so both merges keep
    the condition.  So a y goes only into the halves that it meets, and
    a chain or a star of meeting elements takes a number of steps about
    proportional to its size, not to its square.
    """
    if len(xs) < len(ys):
        xs, ys = ys, xs
    if len(xs) * len(ys) <= _DIRECT:
        return _refined([*xs.items(), *ys.items()])
    keys = list(xs)
    x1, x2 = keys[:len(keys) // 2], keys[len(keys) // 2:]
    p1 = _product(x1)
    y1 = set(_sharing(list(ys), p1))
    base = _merge({x: xs[x] for x in x1}, {y: ys[y] for y in y1})
    final = set(_sharing(list(base), p1))
    rest = {b: base.pop(b) for b in list(base) if b not in final}
    rest.update((y, e) for y, e in ys.items() if y not in y1)
    near = set(_sharing(list(rest), _product(x2)))
    base.update((b, e) for b, e in rest.items() if b not in near)
    base.update(_merge({x: xs[x] for x in x2}, {b: rest[b] for b in near}))
    return base


# a chain of fewer powers than this is multiplied in turn (math.prod)
_TREE = 16


def _invariant_factors(count: dict[int, int]) -> list[int]:
    """The invariant factors over 1 of diag(q), largest first, each q over
    1 taken as often as ``count`` says.

    D_k is the product over the coprime base of b**e, e the k-th largest
    exponent of b over the q.
    """
    chains: list[list[int]] = []
    for b, exponents in _coprime_base(count).items():
        k = 0
        for e in sorted(exponents, reverse=True):
            end = k + exponents[e]
            if end > len(chains):
                chains += [[] for _ in range(end - len(chains))]
            p = b ** e
            for chain in chains[k:end]:
                chain.append(p)
            k = end
    return [prod(chain) if len(chain) < _TREE else _product(chain) for chain in chains]


def first_homology(symbol: SeifertSymbol) -> AbelianGroupStructure:
    """H1 of the fibered space, in closed form from its pairs.

    A genus over ``presentations.MAX_GENUS`` is refused, as ``pi1`` does.

    >>> from seifert import parse_symbol
    >>> str(first_homology(parse_symbol("(0,o1|)")))
    'Z'
    >>> str(first_homology(parse_symbol("(1,n2|(2,1))")))
    'Z/8'
    >>> str(first_homology(parse_symbol("(0,o1|(2,1),(2,1),(2,1),(3,1))")))
    'Z/2 x Z/22'
    """
    _check_genus(symbol)
    count: dict[int, int] = {}
    for pr in symbol.pairs:
        count[pr.q] = count.get(pr.q, 0) + 1
    count.pop(1, None)
    d = _invariant_factors(count)
    d1, d2 = (d + [1, 1])[:2]
    scaled = _scaled_sum(symbol.pairs)[1]
    torsion = d[:1:-1]   # D_n, ..., D_3
    if symbol.orientability is Orientability.O1:
        free = 2 * symbol.genus + (scaled == 0)   # C = Z when E = 0
        torsion.append(abs(d2 * scaled))          # else C = Z/|D_1 D_2 E|
    else:
        m = 1 - scaled % 2   # 0 when D_1 E is odd
        free = symbol.genus - 1
        torsion += [d2 << m, d1 << (2 - m)]
    return _built(AbelianGroupStructure, free, tuple(t for t in torsion if t > 1))
