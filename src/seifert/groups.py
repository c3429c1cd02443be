"""Finite groups as explicit multiplication tables.

A group of order m is a tuple of m rows of m element indices with the
identity at index 0; ``table[g][h]`` is the product g*h.  Constructing
a ``FiniteGroup`` from a table validates the whole structure: tuples of
int entries in range, Latin square and identity in O(m^2), then
associativity by Light's test over a generating set S found by greedy
closure, (x*s)*y == x*(s*y) for all x, y and every s in S, in
O(m^2 |S|).  The elements s passing it are closed under products, and
every element is a product of generators, so it decides associativity
exactly.  Each step works on whole rows: one type set and one range
check per row, and for Light's test one tuple compare per (x, s), row
x*s against row x read at the entries of row s.  Only a row that fails
is walked entry by entry, to name its first bad entry or (x, s, y).
(Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
2005.)  :func:`cyclic_group` and
:func:`direct_product` build groups by construction (Z/n, and the
product of two groups, each a ``FiniteGroup`` and so a group) and skip
the check.  :func:`is_homomorphism` reads the same set S: f(g*s) =
f(g)*f(s) over G x S extends to all pairs by induction on word length.

Text format: the order on the first line, then one table row per line as
space separated indices.  Constructor strings build standard groups:
``cyclic:n`` and ``product:spec1,spec2`` (specs nest to any depth; the
reader keeps its open products on a stack, not in recursion), of order
at most ``MAX_CONSTRUCTOR_ORDER``.  The group built from the last text
read is kept, keyed by the text stripped of surrounding space, so a
process reading many documents over one named group builds it once; the
group keeps that text, and the document writer writes it in place of
the table.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter

from ._record import Record, _built


def _picker(indices: tuple[int, ...]):
    """The map row -> tuple(row[j] for j in indices) as one call.

    ``itemgetter`` gives it for two or more indices; for one it returns
    a bare item, and it takes no empty index list.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        j, = indices
        return lambda row: (row[j],)
    return lambda row: ()


class FiniteGroup(Record):
    table: tuple[tuple[int, ...], ...]

    # the stripped text group_from_constructor built this group from, kept
    # in the instance __dict__ outside the fields, so equality and hash stay
    # by table; None for any other group
    _constructor = None

    def __post_init__(self):
        table = self.table
        if type(table) is not tuple:
            raise ValueError(f"multiplication table must be a tuple, got {type(table).__name__}")
        m = len(table)
        if m == 0:
            raise ValueError("a group needs at least the identity element")
        entries = set(range(m))
        for row in table:
            if type(row) is not tuple:
                raise ValueError(f"table row must be a tuple, got {type(row).__name__}")
            if len(row) != m:
                raise ValueError("multiplication table must be square")
            # type, not isinstance: True and 1.0 are not table entries
            if set(map(type, row)) != {int} or not entries.issuperset(row):
                v = next(v for v in row if type(v) is not int or v not in entries)
                raise ValueError(f"table entry {v!r} is not an integer in [0, {m})")
        for i, column in enumerate(zip(*table)):
            if table[0][i] != i or table[i][0] != i:
                raise ValueError("index 0 must be the identity")
            if len(set(table[i])) != m:
                raise ValueError(f"row {i} is not a permutation")
            if len(set(column)) != m:
                raise ValueError(f"column {i} is not a permutation")
        for s in self.generators:
            times_s = _picker(table[s])
            for x, row in enumerate(table):
                if table[row[s]] != times_s(row):
                    y = next(y for y, sy in enumerate(table[s]) if table[row[s]][y] != row[sy])
                    raise ValueError(f"associativity fails at ({x},{s},{y})")

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Greedy generating set: each new generator is the least element
        not yet reached by right multiplication from the identity, so
        every element is a product of generators.

        >>> group_from_constructor("product:cyclic:12,product:cyclic:2,cyclic:6").generators
        (1, 6, 12)
        """
        table, gens, reached = self.table, [], {0}
        for g in range(self.order):
            if g in reached:
                continue
            gens.append(g)
            frontier = set(reached)
            while frontier:
                frontier = {table[x][s] for x in frontier for s in gens} - reached
                reached |= frontier
        return tuple(gens)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inverse(self, g: int) -> int:
        return self.table[g].index(0)

    def element_order(self, g: int) -> int:
        k, acc = 1, g
        while acc != 0:
            acc = self.table[acc][g]
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with element k at index k.

    >>> cyclic_group(3).table
    ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    """
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    # row i is (i + j) % n for j = 0..n-1: the identity row turned by i
    r = tuple(range(n))
    return _built(FiniteGroup, tuple(r[i:] + r[:i] for i in range(n)))


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product; (i, j) lives at index i*|b| + j.

    Row (i, j) is row j of b shifted into block x, for each x of row i of
    a in turn, the blocks joined.  Block x is the indices x*|b| to
    x*|b| + |b| - 1, and row j of b shifted into it is one ``_picker``
    call on it, so every row is built by C-level copies and all cells
    share the ints of the blocks.
    """
    nb = b.order
    blocks = [tuple(range(x * nb, x * nb + nb)) for x in a.elements()]
    shifted = [list(map(_picker(b_row), blocks)) for b_row in b.table]
    return _built(FiniteGroup, tuple(tuple(chain.from_iterable(map(row.__getitem__, a_row)))
                                     for a_row in a.table for row in shifted))


# the largest order of a cyclic:/product: group: a table of 2048^2 cells
# takes about 40 MB and a twentieth of a second to build
MAX_CONSTRUCTOR_ORDER = 2048

# the one integer grammar: a table entry or order, a command-line integer
# and every integer of a symbol.  An optional '-' and ASCII digits: int()
# reads other Unicode digits too, so the pattern spells out [0-9], not \d
_INTEGER = re.compile(r"-?[0-9]+")
# constructor text splits into these tokens and single characters; joined
# back they give the text, so an error quotes the rest from a token on
_CONSTRUCTOR_TOKEN = re.compile(r"product:|cyclic:[0-9]*|.", re.DOTALL)


def parse_group_text(text: str) -> FiniteGroup:
    """Read the order-then-rows text format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty group file")
    if not _INTEGER.fullmatch(lines[0].strip()):
        raise ValueError(f"group file: bad order line {lines[0]!r}")
    try:
        m = int(lines[0])
    except ValueError:   # more digits than the interpreter converts
        raise ValueError("group file: order has too many digits") from None
    if len(lines) != m + 1:
        raise ValueError(f"group file: expected {m} table rows, got {len(lines) - 1}")
    table = []
    for ln in lines[1:]:
        entries = ln.split()
        if not all(map(_INTEGER.fullmatch, entries)):
            raise ValueError(f"group file: bad table row {ln!r}")
        try:
            table.append(tuple(map(int, entries)))
        except ValueError:   # more digits than the interpreter converts
            raise ValueError("group file: a table entry has too many digits") from None
    return FiniteGroup(tuple(table))


def group_from_constructor(spec: str) -> FiniteGroup:
    """Build a group from ``cyclic:n`` / ``product:spec1,spec2`` text.

    n is ASCII digits.  A group of order over ``MAX_CONSTRUCTOR_ORDER``
    is refused: the text is read twice, first for the orders alone, so
    every error is raised before any table is built.  The group keeps
    the stripped text, which the document writer writes in place of the
    table.  The last group built is kept: a call with the same stripped
    text returns that same object.
    """
    return _constructed(spec.strip())


# one entry: a process reading many documents over one group builds it
# once, and the memo holds at most one table of MAX_CONSTRUCTOR_ORDER^2
# cells; a text that raises is not stored
@lru_cache(maxsize=1)
def _constructed(text: str) -> FiniteGroup:
    _read_constructor(text, _bounded_order, lambda a, b: _bounded_order(a * b))
    group = _read_constructor(text, cyclic_group, direct_product)
    group.__dict__["_constructor"] = text
    return group


def _bounded_order(order: int) -> int:
    """The order of a group the constructor text may build, in the pass
    that reads the orders alone."""
    if order > MAX_CONSTRUCTOR_ORDER:
        raise ValueError(f"group order {order} is over the limit of {MAX_CONSTRUCTOR_ORDER}")
    if order < 1:
        cyclic_group(order)   # raises the error building would, at the same token
    return order


def _read_constructor(spec: str, cyclic, product):
    """The constructor text with ``cyclic:n`` read as cyclic(n) and
    ``product:a,b`` as product(a, b).

    A loop over the open products, so nesting depth costs no recursion;
    each entry is [the token where the product starts, its first operand
    once read].
    """
    tokens = _CONSTRUCTOR_TOKEN.findall(spec) + [""]  # "" marks the end
    open_products: list[list] = []
    k = 0
    while True:
        token = tokens[k]
        if token == "product:":
            open_products.append([k, None])
            k += 1
            continue
        if not token.startswith("cyclic:"):
            raise ValueError(f"unknown group constructor {''.join(tokens[k:])!r}")
        if token == "cyclic:":
            raise ValueError(f"cyclic: expects an integer in {''.join(tokens[k:])!r}")
        try:
            order = int(token[len("cyclic:"):])
        except ValueError:   # more digits than the interpreter converts
            raise ValueError("cyclic: order has too many digits") from None
        group = cyclic(order)
        k += 1
        while open_products and open_products[-1][1] is not None:
            group = product(open_products.pop()[1], group)
        if not open_products:
            break
        if tokens[k] != ",":
            rest = "".join(tokens[open_products[-1][0]:])
            raise ValueError(f"product: expects two operands in {rest!r}")
        open_products[-1][1] = group
        k += 1
    if tokens[k]:
        raise ValueError(f"trailing text in group constructor: {''.join(tokens[k:])!r}")
    return group


class GroupMap(Record):
    """A map between groups given by the image of every source element."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.order:
            raise ValueError("need one image per source element")
        for v in self.images:
            if not 0 <= v < self.target.order:
                raise ValueError(f"image {v} out of range")


def is_homomorphism(f: GroupMap) -> bool:
    """f(gh) = f(g)f(h) for all pairs, decided over G x S.

    f sends the identity to the identity and f(g*s) = f(g)*f(s) for every
    g and every generator s; by induction on the length of a word in the
    generators, that is f(gh) = f(g)f(h) for every h.
    """
    source, images, target = f.source.table, f.images, f.target.table
    return images[0] == 0 and all(images[source[g][s]] == target[images[g]][images[s]]
                                  for g in f.source.elements() for s in f.source.generators)


def is_injective(f: GroupMap) -> bool:
    return len(set(f.images)) == f.source.order
