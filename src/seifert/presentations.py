"""Fundamental group presentations read off a Seifert symbol.

Generators follow a fixed naming order: handle generators a1, b1, ...,
then the crosscap generators x (and y when the crosscap count is even),
then one c per listed pair, then the regular fiber t.  Relator words are
stored with commutators expanded, so ``[a, t]`` appears as
``a t a^-1 t^-1``.  The class n2 templates split on the parity of
``g = genus - 1``, the handle count of the orientable base the symbol
double covers.

A word is a tuple of (generator index, exponent) syllables, freely
reduced at the syllable level; :func:`word` builds one from raw
syllables.  The templates write distinct names and reduced words by
construction, so :func:`pi1` and :func:`orbifold_pi1` build their
presentations without the checks a ``Presentation(...)`` call runs.
Text export writes each relator in ``c1^2*t`` form, and
:func:`abelianize` writes the exponent sums as a dense matrix.
:func:`~seifert.homology.first_homology` reads H1 off the pairs in
closed form; these presentations, abelianized and put in Smith normal
form, are its oracle in the tests.
"""

from __future__ import annotations

from ._record import Record, _built
from .symbols import Orientability, SeifertSymbol

Syllable = tuple[int, int]


def word(*syllables: Syllable) -> tuple[Syllable, ...]:
    """Merge adjacent same-generator syllables and drop zero exponents.

    >>> word((0, 1), (0, 1), (1, -1), (1, 1))
    ((0, 2),)
    """
    out: list[Syllable] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


def _commutator(a: int, b: int) -> tuple[Syllable, ...]:
    # reduced as it stands: every caller passes a != b
    return ((a, 1), (b, 1), (a, -1), (b, -1))


class Presentation(Record):
    """Finitely presented group: generator names and relator words."""

    generators: tuple[str, ...]
    relators: tuple[tuple[Syllable, ...], ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        for rel in self.relators:
            for i, (gen, exp) in enumerate(rel):
                if not 0 <= gen < len(self.generators):
                    raise ValueError(f"relator uses unknown generator {gen}")
                if exp == 0:
                    raise ValueError("zero exponent in relator")
                if i and rel[i - 1][0] == gen:
                    raise ValueError("relator is not freely reduced")

    def format_word(self, rel: tuple[Syllable, ...]) -> str:
        if not rel:
            return "1"
        parts = []
        for gen, exp in rel:
            name = self.generators[gen]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    def export_text(self) -> str:
        """Generator list on the first line, then one relator per line."""
        lines = [" ".join(self.generators)]
        lines.extend(self.format_word(rel) for rel in self.relators)
        return "\n".join(lines)


def _named(count: int, stem: str) -> list[str]:
    return [f"{stem}{i + 1}" for i in range(count)]


def _assemble(generators: list[str], relators: list[tuple[Syllable, ...]]) -> Presentation:
    # The surface relator degenerates to the empty word for (0,o1|); empty
    # relators say nothing and are dropped.  The names are distinct and
    # every word is reduced by construction, so nothing is re-checked.
    return _built(Presentation, tuple(generators), tuple(r for r in relators if r))


def _handle_names(handles: int) -> list[str]:
    names = []
    for i in range(handles):
        names.append(f"a{i + 1}")
        names.append(f"b{i + 1}")
    return names


# the largest genus read off: a presentation has up to 2 * genus + n + 1
# generators, and pi1 of (10000,o1|) takes about 50 ms and 15 MB, linear
# in the genus.  first_homology does not build a presentation but refuses
# the same genera, so that h1 and pi1 take the same symbols
MAX_GENUS = 10000


def _check_genus(symbol: SeifertSymbol):
    """Refuse a genus over ``MAX_GENUS``."""
    if symbol.genus > MAX_GENUS:
        raise ValueError(f"genus {symbol.genus} is over the limit of {MAX_GENUS}")


def _fibered_pi1(symbol: SeifertSymbol, handles: int, crosscaps: list[str]) -> Presentation:
    """Generators a1, b1, ..., the crosscap generators, c1..cn, t.

    The fiber t commutes with the handle and c generators, x conjugates
    it to its inverse, y commutes with it, each pair imposes
    ``cj^qj t^pj`` and the base surface imposes its boundary word.  A
    genus over ``MAX_GENUS`` is refused before any name is built.
    """
    _check_genus(symbol)
    n = len(symbol.pairs)
    names = _handle_names(handles) + crosscaps + _named(n, "c") + ["t"]
    x = 2 * handles
    c0 = x + len(crosscaps)
    t = len(names) - 1
    relators = [_commutator(k, t) for k in [*range(x), *range(c0, t)]]
    surface = [(c0 + j, 1) for j in range(n)]
    for i in range(handles):
        surface.extend(_commutator(2 * i, 2 * i + 1))
    if crosscaps:
        relators.append(word((x, 1), (t, 1), (x, -1), (t, 1)))   # x t x^-1 = t^-1
    if len(crosscaps) == 2:
        relators.append(_commutator(x + 1, t))                   # y t y^-1 = t
        surface.extend(word((x, 1), (x + 1, 1), (x, -1), (x + 1, 1)))
    elif crosscaps:
        surface.append((x, -2))
    relators += [word((c0 + j, pr.q), (t, pr.p)) for j, pr in enumerate(symbol.pairs)]
    relators.append(word(*surface))
    return _assemble(names, relators)


def pi1_nonorientable(symbol: SeifertSymbol) -> Presentation:
    """Fundamental group of a class n2 symbol.

    With ``g = genus - 1`` handles on the covered base, the generators are
    a1, b1, ..., x (plus y when g is odd), c1..cn, t.
    """
    if symbol.orientability is not Orientability.N2:
        raise ValueError("pi1_nonorientable expects a class n2 symbol")
    g = symbol.genus - 1
    return _fibered_pi1(symbol, g // 2, ["x", "y"] if g % 2 else ["x"])


def pi1_orientable(symbol: SeifertSymbol) -> Presentation:
    """Fundamental group of a class o1 symbol.

    Generators a1, b1, ..., ag, bg, c1..cn, t; the fiber is central and
    the base imposes ``c1..cn [a1,b1]..[ag,bg]``.
    """
    if symbol.orientability is not Orientability.O1:
        raise ValueError("pi1_orientable expects a class o1 symbol")
    return _fibered_pi1(symbol, symbol.genus, [])


def pi1(symbol: SeifertSymbol) -> Presentation:
    """Fundamental group of a symbol of either class."""
    if symbol.orientability is Orientability.N2:
        return pi1_nonorientable(symbol)
    return pi1_orientable(symbol)


def orbifold_pi1(symbol: SeifertSymbol) -> Presentation:
    """Base orbifold group: the fiber quotiented away.

    The :func:`pi1` presentation with every t syllable deleted: t itself
    is the last generator, fiber commutators and the crosscap relators
    collapse to the empty word and are dropped, each filling relator
    loses its t tail and the surface relator is unchanged.
    """
    pres = pi1(symbol)
    t = len(pres.generators) - 1
    return _assemble(list(pres.generators[:t]),
                     [word(*(s for s in rel if s[0] != t)) for rel in pres.relators])


def abelianize(presentation: Presentation) -> list[list[int]]:
    """Exponent-sum matrix, one row per relator, one column per generator."""
    rows = []
    for rel in presentation.relators:
        row = [0] * len(presentation.generators)
        for gen, exp in rel:
            row[gen] += exp
        rows.append(row)
    return rows
