"""Finite group actions on a fibered space in extended product form.

The data of an action of a finite group G is a set of element tables,
one entry per element g, each of one of four kinds: a rotation in Q/Z,
a sign +-1, a permutation of the n boundary indices, or a row of n
rotations.  An extended product action spec has

* ``theta1(g)``, a rotation: the turn of the trivially fibered part,
* ``alpha(g)``, a sign: whether g preserves the fiber orientation,
* ``beta(g)``, a permutation of the filled boundary fibers,
* ``theta2(i, g)``, a row of rotations: the meridian turn at index i,

and a projected descriptor has the sign ``epsilon``, the permutation
``beta_bar`` and the rotation row ``theta2_bar``.  Each type lists its
tables by kind once, in field order (``_tables``); one shape check, one
document reader and one writer serve both.  The reader checks
everything the checked constructor does, so what it reads is not checked
again, and refuses a field its record does not name.
Every file it reads, a document or the group table file one names, is
read through ``_read``: a file that cannot be read or is not UTF-8 is
bad input, and the message names the file.

Composition is the left action convention, phi(gh) = phi(g) o phi(h),
which forces the cocycle laws checked by :func:`validate_action_spec`
(stated once, in ``_COMPONENT_LAWS``):

    (a)  alpha(gh) = alpha(g) * alpha(h)
    (b)  theta1(gh) = theta1(g) + alpha(g) * theta1(h)      (mod 1)
    (c)  beta(gh) = beta(g) o beta(h)
    (d)  theta2(i, gh) = theta2(beta(h)(i), g) + alpha(g) * theta2(i, h)
    (e)  beta(g) may send i to j only if pair i equals pair j

plus triviality of the identity element's datum.  Rotation numbers are
exact fractions in [0, 1), the type of every public field, document and
report.  The checks read them as integers mod N, N a multiple of a
spec's rotation denominators: each spec keeps that integer view of its
data, and the law scan, the covering-translation test and the structure
report of :mod:`seifert.structure` all read it.  A descriptor's view is
the one of its lift, built from its own tables at any N (its ``_view``
alone doubles an odd N where epsilon is -1).  A record is law-scanned at
its own pairs' indices, a descriptor at its base's: the first n of its
lift's 2n.  Every record holds that view from birth: a record the package
derives (a read document, a projection, a lift) is built from it by one
builder, ``_from_view``, and the shape check of a record a caller
constructs stores it, N the lcm of its Fractions' denominators, once
every check has passed.  :func:`lift_action`
builds the Fraction spec once, when first called, and the spec keeps the
descriptor's view and the passing report.  v -> v*N is exact and keeps
the order of [0, 1), so every verdict and witness is the one the
fractions give.  Laws (a) to (d) are decided over G x S, S the group's
generating set, and law (e) over S alone; the witness of a failure is
the first one a scan of all pairs names, in a fixed order, so it does
not depend on S.  Each law is decided a generator at a time: the datum
of s gives one composer (for beta and theta2 an itemgetter over
beta(s)), and each element's datum takes one call of it.  A spec or
descriptor is law-scanned once: the report is kept on the frozen object,
and every function that needs valid data reads it.

A document has few distinct rotation values and repeats them across
its tables, so the boundary handles each distinct value once: the
reader parses each distinct rotation text of a document once, to a
pair reduced mod 1, and reads every table row into integers mod N by
one lookup per entry; the builder makes Fraction(v, N) once per
distinct integer v; and the writer prints the checked Fractions as
they are, with no copy, joining whole rows into the layout of
``json.dumps(..., indent=2)``.  A group named by a constructor text is
built once per process for every document that names it (see
:func:`~seifert.groups.group_from_constructor`), and the writer writes
it back by that text, so a projection or lift of a document over a
named group names it too; an inline or file table is checked at every
read and written inline.

The covering-translation machinery works on symbols whose pair list is
doubled in blocks, pairs i and i+n equal for i < n: exactly the
symbols :func:`~seifert.symbols.orientable_double_cover` writes, one
convention for cover, check, project and lift.  The translation is
modeled on boundary data as the index swap sigma(i) = i + n together
with inversion of the fiber and meridian coordinates.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, ne
from pathlib import Path

from ._record import Record, _built
from .groups import FiniteGroup, _picker, group_from_constructor, parse_group_text
from .symbols import (Orientability, SeifertPair, SeifertSymbol, orientable_double_cover,
                      parse_symbol)


class ExtendedProductActionSpec(Record):
    """One finite action in extended product form; tables index by element.

    ``theta2[g][i]`` is the meridian rotation of element g at boundary
    index i (0-based).  File documents store the transpose, see
    :func:`parse_action_spec_text`.
    """

    symbol: SeifertSymbol
    group: FiniteGroup
    theta1: tuple[Fraction, ...]
    alpha: tuple[int, ...]
    beta: tuple[tuple[int, ...], ...]
    theta2: tuple[tuple[Fraction, ...], ...]

    # the element tables in field order, by kind (module docstring)
    _tables = {"theta1": "rotation", "alpha": "sign", "beta": "permutation",
               "theta2": "rotation rows"}

    def __post_init__(self):
        _check_records(self)
        _check_tables(self)

    @staticmethod
    def _view(mod, theta1, alpha, beta, theta2) -> tuple[int, tuple[tuple, ...]]:
        """(N, per-element datum (alpha, theta1*N, beta row, theta2*N row)),
        from the tables in field order, rotations as integers mod N."""
        return mod, tuple(zip(alpha, theta1, beta, theta2))

    @cached_property
    def _law_report(self) -> ValidationReport:
        return _scan_laws(self.group, self._int_view, self.symbol.pairs, _SPEC_LAWS)


def _rotations(kinds, tables, f) -> list:
    """The element tables, in field order with these kinds, with f
    applied to every rotation entry; the other tables as they are."""
    return [tuple(map(f, table)) if kind == "rotation"
            else tuple(tuple(map(f, row)) for row in table) if kind == "rotation rows"
            else table for kind, table in zip(kinds, tables)]


class _Fractions(dict):
    """v -> Fraction(v, N), each made at the first lookup of its v."""

    def __init__(self, mod: int):
        self.mod = mod

    def __missing__(self, v):
        return self.setdefault(v, Fraction(v, self.mod))


def _from_view(cls, symbol, group, mod: int, *tables):
    """The record of cls whose tables, in field order, are ``tables`` with
    each rotation entry an integer v read as v/N, for any N >= 1.

    The one home for building a record from an integer view: the read
    document, the projection and the lift.  Each distinct v becomes one
    ``Fraction(v, N)``, the record is built through ``_built`` (the
    caller has established its shape, with 0 <= v < N) and holds the
    integer view of these tables, as a checked record holds its own.
    """
    fields = _rotations(cls._tables.values(), tables, _Fractions(mod).__getitem__)
    record = _built(cls, symbol, group, *fields)
    record.__dict__["_int_view"] = cls._view(mod, *tables)
    return record


def _check_records(data):
    """The symbol and group fields of a spec or descriptor (its first two)
    are those records, before any of their fields is read."""
    symbol_field, symbol, group = data._fields[0], data._values[0], data.group
    if type(symbol) is not SeifertSymbol:
        raise ValueError(f"{symbol_field} must be a SeifertSymbol, got {type(symbol).__name__}")
    if type(group) is not FiniteGroup:
        raise ValueError(f"group must be a FiniteGroup, got {type(group).__name__}")


def _check_tables(data):
    """Shape check of the element tables of a spec or descriptor, which
    then stores their integer view in it, N the lcm of their rotations'
    denominators.

    ``type(data)._tables`` names them, in field order, with their kinds;
    all lengths are checked before any value.  Tables and their rows
    must be tuples: a list neither hashes nor equals the tuples the law
    scan compares it with.  Signs and permutation entries must be ints:
    ``True`` and ``1.0`` compare equal to 1 but would be written as
    documents that cannot be read back.
    """
    symbol_field, n, order = data._fields[0], len(data._values[0].pairs), data.group.order
    indices, denominators = list(range(n)), set()
    kinds, tables = data._tables, [getattr(data, name) for name in data._tables]
    for (name, kind), table in zip(kinds.items(), tables):
        if type(table) is not tuple:
            raise ValueError(f"{name} must be a tuple, got {type(table).__name__}")
        if len(table) != order:
            unit = "entries" if kind in ("rotation", "sign") else "rows"
            raise ValueError(f"{name} has {len(table)} {unit}, group order is {order}")
    for (name, kind), table in zip(kinds.items(), tables):
        for entry in table:
            if kind in ("permutation", "rotation rows") and type(entry) is not tuple:
                raise ValueError(f"{name} row must be a tuple, got {type(entry).__name__}")
            if kind == "sign":
                if type(entry) is not int or entry not in (1, -1):
                    raise ValueError(f"{name} values must be +1 or -1, got {entry}")
            elif kind == "permutation":
                if (len(entry) != n or sorted(entry) != indices
                        or not all(type(v) is int for v in entry)):
                    raise ValueError(f"{name} row {entry} is not a permutation of {n} indices")
            else:
                if kind == "rotation rows" and len(entry) != n:
                    raise ValueError(f"{name} row has {len(entry)} entries, "
                                     f"{symbol_field} has {n} pairs")
                for v in entry if kind == "rotation rows" else (entry,):
                    # [0, 1) on the integers: a Fraction's denominator is positive
                    if not isinstance(v, Fraction) or not 0 <= v.numerator < v.denominator:
                        raise ValueError(f"{name}: rotation numbers must be fractions "
                                         f"in [0,1), got {v!r}")
                    denominators.add(v.denominator)
    mod = lcm(*denominators)
    tables = _rotations(kinds.values(), tables, lambda v: v.numerator * (mod // v.denominator))
    data.__dict__["_int_view"] = data._view(mod, *tables)


class ValidationReport(Record):
    """Outcome of a law check; ``law`` and ``witness`` name the failure."""

    ok: bool
    law: str | None
    witness: tuple | None
    message: str

    def __bool__(self):
        return self.ok


_PASS = ValidationReport(True, None, None, "all laws hold")


# law -> (reported name, message); the scan fills in g, h, gh, i, value, want
_SPEC_LAWS = {
    "identity": ("identity", "the identity element must act by the trivial datum"),
    "alpha": ("alpha", "alpha({gh}) != alpha({g})*alpha({h})"),
    "theta1": ("theta1", "theta1({gh}) = {value}, law gives {want}"),
    "beta": ("beta", "beta({gh}) is not beta({g}) o beta({h})"),
    "theta2": ("theta2", "theta2({i},{gh}) = {value}, law gives {want}"),
    "pairs": ("pairs", "beta({g}) moves pair {i} onto a different (q,p)"),
}


def _beta_law(b, mod):
    pick = _picker(b[2])
    return lambda a: pick(a[2])


def _theta2_law(b, mod):
    pick, reduced = _picker(b[2]), mod.__rmod__
    turns = {1: b[3], -1: tuple(-v for v in b[3])}
    return lambda a: tuple(map(reduced, map(add, pick(a[3]), turns[a[0]])))


# Laws (a) to (d), one per datum component, in the order they are checked:
# built from the integer datum b of h, a composer maps the integer datum a
# of g to component k of the datum of gh, rotations mod N.
_COMPONENT_LAWS = (
    ("alpha", lambda b, mod: lambda a: a[0] * b[0]),
    ("theta1", lambda b, mod: lambda a: (a[1] + a[0] * b[1]) % mod),
    ("beta", _beta_law),
    ("theta2", _theta2_law),
)


def _scan_laws(group: FiniteGroup, view: tuple, pairs: tuple, laws: dict) -> ValidationReport:
    """Identity, then laws (a) to (d) over G x S, then (e) over S.

    Reads an integer view (N, data) at the indices of the record's own
    ``pairs``, for a descriptor its base's: the first n of its lift's 2n.
    Stops at the first failure; ``laws`` names it and words its message.
    The witness is the first one a scan of all (g, h), each law before
    the next, would name, so reports do not depend on S.  A rotation in
    a message is Fraction(v, N).
    """
    def fail(law, witness, **values):
        name, message = laws[law]
        return ValidationReport(False, name, witness, message.format(**values))

    n = len(pairs)
    mod, data = view
    # every law reads beta and theta2 rows cut to the n indices.  A lift's
    # beta rows commute with the index swap and its theta2 rows are
    # antisymmetric, as are the rows its composers give: a law holds at all
    # 2n indices exactly where it holds at the first n, same first witness
    fronts = [(a, t, p[:n], r[:n]) for a, t, p, r in data]
    if fronts[0] != (1, 0, tuple(range(n)), (0,) * n):
        return fail("identity", (0,))
    table, generators = group.table, group.generators

    # Each law reads only its own component and those of earlier laws,
    # and the sub-data (alpha), (alpha, theta1), (beta) and (alpha, beta,
    # theta2) each compose associatively with the trivial datum as
    # identity.  So if the laws before k hold on all of G x G, law k
    # holding for every g and every generator s extends to every h by
    # induction on the word length of h.  Hence the first law that fails
    # on G x S is the first law the scan over all (g, h) fails, and that
    # scan, run for it alone, names the witness.  Law k is decided a
    # generator at a time: one composer per s, and the component k of
    # every g*s against it applied to every g.
    for k, (law, composer) in enumerate(_COMPONENT_LAWS):
        component = [front[k] for front in fronts]
        if not any(any(map(ne, map(component.__getitem__, map(itemgetter(s), table)),
                           map(composer(fronts[s], mod), data)))
                   for s in generators):
            continue
        composers = [composer(b, mod) for b in fronts]
        g, h = next((g, h) for g, a in enumerate(data)
                    for h, compose in enumerate(composers) if component[table[g][h]] != compose(a))
        gh = table[g][h]
        got, want = component[gh], composers[h](data[g])
        if law == "theta2":
            i = next(i for i in range(len(got)) if got[i] != want[i])
            return fail(law, (g, h, i), gh=gh, i=i, value=Fraction(got[i], mod),
                        want=Fraction(want[i], mod))
        if law == "theta1":
            got, want = Fraction(got, mod), Fraction(want, mod)
        return fail(law, (g, h), g=g, h=h, gh=gh, value=got, want=want)
    # laws (a) to (d) hold, so beta is a homomorphism and the elements whose
    # beta keeps every pair form a subgroup.  Each generator is the least
    # element outside the subgroup the earlier ones generate, so the least
    # element that moves a pair is a generator: scanning the generators
    # names the (g, i) witness a scan of all of G would name
    doubled = pairs + pairs   # a lift's index j >= n carries pair j - n
    for g in generators:
        perm = fronts[g][2]
        # one tuple compare per generator; only a failing row is walked
        if tuple(map(doubled.__getitem__, perm)) != pairs:
            i = next(i for i in range(n) if doubled[perm[i]] != pairs[i])
            return fail("pairs", (g, i), g=g, i=i)
    return _PASS


def validate_action_spec(spec: ExtendedProductActionSpec) -> ValidationReport:
    """Check the identity datum and the cocycle laws (a) to (e).

    Structure (table sizes, value ranges) is enforced at construction, so
    this checks only the laws, in a fixed order, returning the first
    failure with its witness.  The scan runs on the first call for a
    spec object; later calls return the report kept on it.
    """
    return spec._law_report


def _require_valid(spec: ExtendedProductActionSpec):
    report = validate_action_spec(spec)
    if not report:
        raise ValueError(f"spec fails validation at law {report.law}: {report.message}")


class GluingMatrix(Record):
    """Exponent matrix [[x, p], [y, q]] of a solid torus filling.

    Determinant x*q - p*y = 1; x is the least non-negative solution,
    which lies in [0, q) whenever the pair is normalized.
    """

    x: int
    y: int
    pair: SeifertPair

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.x, self.pair.p), (self.y, self.pair.q))

    def inverse_rotation(self, fiber: Fraction, meridian: Fraction) -> tuple[Fraction, Fraction]:
        """Apply the inverse matrix to a rotation vector in (Q/Z)^2."""
        q, p = self.pair.q, self.pair.p
        return ((q * fiber - p * meridian) % 1,
                (-self.y * fiber + self.x * meridian) % 1)


def gluing_matrix(pair: SeifertPair) -> GluingMatrix:
    """Canonical filling matrix for one pair.

    >>> gluing_matrix(SeifertPair(3, 1)).matrix()
    ((0, 1), (-1, 3))
    >>> gluing_matrix(SeifertPair(5, 2)).matrix()
    ((1, 2), (2, 5))
    """
    q, p = pair.q, pair.p
    if q == 1:
        return GluingMatrix(1, 0, pair)
    # q > 1 forces p != 0; solutions are spaced |p| apart in x
    x = pow(q, -1, abs(p))
    y = (x * q - 1) // p
    return GluingMatrix(x, y, pair)


class TorusMapData(Record):
    """Rotation of a filled solid torus: longitude, meridian, sign."""

    longitude: Fraction
    meridian: Fraction
    sign: int


def induced_solid_torus_action(spec: ExtendedProductActionSpec,
                               boundary_index: int, element: int) -> TorusMapData:
    """Conjugate one boundary datum through the filling.

    The boundary torus map (theta1, theta2, alpha) at index i lands in the
    solid torus glued at beta(g)(i); the rotation vector transforms by the
    inverse of that pair's gluing matrix and the sign is untouched.
    Invalid specs and out-of-range indices are rejected.
    """
    _require_valid(spec)
    n = len(spec.symbol.pairs)
    if not 0 <= boundary_index < n:
        raise ValueError(f"boundary index must be in 0..{n - 1}" if n
                         else f"symbol {spec.symbol} has no boundary pairs")
    if not 0 <= element < spec.group.order:
        raise ValueError(f"group element must be in 0..{spec.group.order - 1}")
    target = spec.beta[element][boundary_index]
    glue = gluing_matrix(spec.symbol.pairs[target])
    longitude, meridian = glue.inverse_rotation(
        spec.theta1[element], spec.theta2[element][boundary_index])
    return TorusMapData(longitude, meridian, spec.alpha[element])


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, s, t) with a*s + b*t = g
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def obstruction_witness(b: int, orbit_numbers) -> list[int] | None:
    """Solve b = sum(b_i * orbit_i) over the integers, or report None.

    Solvable exactly when gcd of the orbit numbers divides b; the witness
    comes from chaining the extended Euclid identity.  The gcd of no
    orbit numbers is 0, so with none only b = 0 is solvable.

    >>> obstruction_witness(1, [2, 3])
    [-1, 1]
    >>> obstruction_witness(3, [4, 6]) is None
    True
    >>> obstruction_witness(0, [])
    []
    """
    orbits = list(orbit_numbers)
    if any(o < 1 for o in orbits):
        raise ValueError("orbit numbers must be positive")
    g, coeffs = 0, []
    for o in orbits:
        g, s, t = _egcd(g, o)
        coeffs = [c * s for c in coeffs] + [t]
    if not g:
        return None if b else []
    if b % g:
        return None
    scale = b // g
    return [c * scale for c in coeffs]


def beta_orbit_numbers(spec: ExtendedProductActionSpec) -> tuple[int, ...]:
    """Sizes of the boundary-index orbits under all of beta, sorted.

    Invalid specs are rejected.
    """
    _require_valid(spec)
    # beta is a homomorphism, so the images of i under all of G are its orbit
    orbits = {frozenset(perm[i] for perm in spec.beta) for i in range(len(spec.symbol.pairs))}
    return tuple(sorted(len(orbit) for orbit in orbits))


class TauReport(Record):
    """Outcome of the covering-translation commutation test."""

    ok: bool
    condition: str | None
    witness: tuple | None
    message: str

    def __bool__(self):
        return self.ok


_TAU_PASS = TauReport(True, None, None, "commutes with the covering translation")


def _block_base(symbol: SeifertSymbol) -> SeifertSymbol:
    """The class n2 base whose :func:`orientable_double_cover` is symbol."""
    if symbol.orientability is not Orientability.O1:
        raise ValueError("covering-translation checks need a class o1 symbol")
    base = SeifertSymbol(symbol.genus + 1, Orientability.N2, symbol.pairs[:len(symbol.pairs) // 2])
    if orientable_double_cover(base) != symbol:
        raise ValueError("symbol pair list is not doubled in blocks (pair i must equal pair i+n)")
    return base


def check_tau_commuting(spec: ExtendedProductActionSpec) -> TauReport:
    """Does the action data commute with the covering translation?

    The symbol must be block doubled, the action must preserve fiber
    orientation (alpha identically +1) and pass the laws; all three are
    preconditions and raise.
    The three commutation conditions are then checked exactly, on the
    integer view: every theta1 lies in {0, 1/2} (2 * theta1 is 0 mod N),
    every beta commutes with sigma, and theta2 is negated by sigma.
    """
    n = len(_block_base(spec.symbol).pairs)
    if any(a != 1 for a in spec.alpha):
        raise ValueError("commutation requires a fiber-orientation-preserving action (alpha == +1)")
    _require_valid(spec)
    mod, data = spec._int_view
    for g, (_, t, _, _) in enumerate(data):
        if 2 * t % mod:
            return TauReport(False, "half-rotation", (g,),
                             f"theta1({g}) = {spec.theta1[g]} is not 0 or 1/2")
    # sigma is an involution, so each condition at i >= n is the one at
    # i - n: the first failure is always at some i < n
    for g, perm in enumerate(spec.beta):
        for i in range(n):
            if perm[i + n] != (perm[i] + n) % (2 * n):
                return TauReport(False, "sigma-equivariance", (g, i),
                                 f"beta({g}) does not commute with the index swap at {i}")
    for g, (_, _, _, row) in enumerate(data):
        for i in range(n):
            if row[i + n] != -row[i] % mod:
                return TauReport(False, "meridian-antisymmetry", (g, i),
                                 f"theta2({i + n},{g}) is not -theta2({i},{g})")
    return _TAU_PASS


class ProjectedActionDescriptor(Record):
    """Action data folded onto the nonorientable-base quotient.

    ``epsilon`` records the fiber behavior (+1 rotation-free lift, -1 the
    half-turn lift), ``beta_bar`` permutes the n folded boundary indices
    and ``theta2_bar`` keeps the meridian rotation of the representative
    index i < n.
    """

    base: SeifertSymbol
    group: FiniteGroup
    epsilon: tuple[int, ...]
    beta_bar: tuple[tuple[int, ...], ...]
    theta2_bar: tuple[tuple[Fraction, ...], ...]

    _tables = {"epsilon": "sign", "beta_bar": "permutation", "theta2_bar": "rotation rows"}

    def __post_init__(self):
        _check_records(self)
        _check_n2_base(self.base)
        _check_tables(self)

    @staticmethod
    def _view(mod, epsilon, beta_bar, fronts) -> tuple[int, tuple[tuple, ...]]:
        """The integer view of the lift (see :func:`lift_action`), from the
        tables in field order, theta2_bar as integers mod N, any N; the
        lift turns the fiber by 1/2 where epsilon is -1, so there an odd
        N is doubled, here and nowhere else."""
        if mod % 2 and -1 in epsilon:
            mod, fronts = 2 * mod, [tuple(2 * v for v in front) for front in fronts]
        n, data = len(beta_bar[0]), []
        for sign, perm, front in zip(epsilon, beta_bar, fronts):
            kept, crossed = perm, tuple(j + n for j in perm)
            turn, row = (0, kept + crossed) if sign == 1 else (mod // 2, crossed + kept)
            data.append((1, turn, row, front + tuple(-v % mod for v in front)))
        return mod, tuple(data)

    @cached_property
    def _law_report(self) -> ValidationReport:
        return _scan_laws(self.group, self._int_view, self.base.pairs, _DESCRIPTOR_LAWS)

    @cached_property
    def _lifted(self) -> ExtendedProductActionSpec:
        # read by lift_action only, once the scan of this view has passed,
        # so the spec keeps this view object and the report and is not
        # scanned again; its shape holds: 0 <= v < N, beta rows copy beta_bar's
        mod, data = self._int_view
        alpha, turns, beta, rows = zip(*data)
        spec = _from_view(ExtendedProductActionSpec, orientable_double_cover(self.base),
                          self.group, mod, turns, alpha, beta, rows)
        spec.__dict__.update(_int_view=self._int_view, _law_report=_PASS)
        return spec


def _check_n2_base(base: SeifertSymbol):
    if base.orientability is not Orientability.N2:
        raise ValueError("descriptor base symbol must be class n2")


# The spec laws, read on the descriptor's integer lift, named by its fields.
# There alpha is identically +1, the theta1 law is the epsilon law, and
# the theta2 law at i < n is the folded theta2_bar law.
_DESCRIPTOR_LAWS = {
    "identity": _SPEC_LAWS["identity"],
    "theta1": ("epsilon", "epsilon({gh}) != epsilon({g})*epsilon({h})"),
    "beta": ("beta_bar", "beta_bar({gh}) is not beta_bar({g}) o beta_bar({h})"),
    "theta2": ("theta2_bar", "theta2_bar({i},{gh}) = {value}, law gives {want}"),
    "pairs": ("pairs", "beta_bar({g}) moves pair {i} onto a different (q,p)"),
}


def validate_descriptor(descriptor: ProjectedActionDescriptor) -> ValidationReport:
    """Cocycle laws for folded data.

    epsilon and beta_bar must be homomorphisms, theta2_bar obeys the
    folded law theta2_bar(i, gh) = epsilon(h) * theta2_bar(beta_bar(h)(i), g)
    + theta2_bar(i, h), and beta_bar respects the (q, p) values.  These
    are the laws of :func:`validate_action_spec` on the lift, checked on
    its integer view; like a spec, a descriptor is scanned once.
    """
    return descriptor._law_report


def project_action(spec: ExtendedProductActionSpec) -> ProjectedActionDescriptor:
    """Fold a commuting action through the covering translation.

    Requires :func:`check_tau_commuting` to pass.  The base symbol is the
    block half of the doubled symbol, epsilon reads off theta1, beta_bar
    folds indices mod n and theta2_bar keeps the representative rows.

    An action whose every element crosses the two blocks at every index
    or at none, matching its epsilon, folds to a descriptor that passes
    :func:`validate_descriptor`; outputs of :func:`lift_action` always
    have that shape.  The fold is many-to-one, and other commuting
    actions fold too: some to a valid descriptor whose lift is a
    different action (one that turns the fiber by a half and never
    crosses the blocks), some to data that breaks the descriptor laws.
    Validate the result before relying on it.
    """
    tau = check_tau_commuting(spec)
    if not tau:
        raise ValueError(f"action does not commute with the covering translation: {tau.message}")
    base = _block_base(spec.symbol)
    n = len(base.pairs)
    mod, data = spec._int_view
    epsilon = tuple(1 if t == 0 else -1 for t in spec.theta1)
    beta_bar = tuple(tuple(j % n for j in perm[:n]) for perm in spec.beta)
    # shape holds: a beta_bar row is a permutation, as beta(i) = beta(j) mod n,
    # i != j < n, would give beta(j) = beta(i + n) by sigma-equivariance
    return _from_view(ProjectedActionDescriptor, base, spec.group, mod, epsilon, beta_bar,
                      tuple(row[:n] for _, _, _, row in data))


def lift_action(descriptor: ProjectedActionDescriptor) -> ExtendedProductActionSpec:
    """Build the canonical commuting action over a folded descriptor.

    The doubled symbol is the base's orientable double cover.  Elements
    with epsilon = -1 lift with fiber rotation 1/2 and cross the two
    blocks; elements with epsilon = +1 preserve each block.  theta2 is
    extended antisymmetrically.  The result always passes
    :func:`validate_action_spec` and :func:`check_tau_commuting`, and
    :func:`project_action` recovers the descriptor exactly.
    The descriptor is law-scanned on the integer view of this lift; the
    Fraction spec is built from that view once, on the first call.
    """
    report = validate_descriptor(descriptor)
    if not report:
        raise ValueError(f"descriptor fails validation: {report.message}")
    return descriptor._lifted


# ---------------------------------------------------------------------------
# document format

# an optional sign, ASCII digits, and an optional '/' and ASCII digits
_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_fraction_text(text) -> Fraction:
    """Exact fraction from an int or 'a/b' string; decimals rejected."""
    return Fraction(*_fraction_terms(text))


def _fraction_terms(text) -> tuple[int, int]:
    """(numerator, denominator) as :func:`parse_fraction_text` reads them,
    not reduced; the denominator is positive."""
    if isinstance(text, bool):
        raise ValueError(f"not a fraction: {text!r}")
    if isinstance(text, int):
        return text, 1
    if isinstance(text, float):
        raise ValueError(f"decimal fractions are not accepted: {text!r}")
    match = _FRACTION.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a fraction: {text!r} (use integers or 'a/b')")
    numerator, denominator = match.groups(default="1")
    try:
        numerator, denominator = int(numerator), int(denominator)
    except ValueError:   # more digits than the interpreter converts
        raise ValueError("fraction has too many digits") from None
    if denominator == 0:
        raise ValueError(f"zero denominator in fraction {text!r}")
    return numerator, denominator


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _group_from_field(value, base_dir: Path | None) -> FiniteGroup:
    if isinstance(value, str):
        return group_from_constructor(value)
    if isinstance(value, dict):
        # exactly one form: a key of the other, or any other key, is not dropped unread
        if value.keys() == {"file"}:
            path = Path(_string(value["file"], "group file"))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return parse_group_text(_read(path, "group file ")[0])
        if value.keys() != {"order", "table"}:
            raise ValueError(f"group object needs 'order' and 'table' or 'file' alone, "
                             f"got keys {list(value)}")
        order = value["order"]
        table = value["table"]
        # JSON true/false and decimals are not integers here (type, not isinstance)
        if type(order) is not int:
            raise ValueError(f"group order must be an integer, got {order!r}")
        if not isinstance(table, list):
            raise ValueError("group table must be a list of rows")
        if len(table) != order:
            raise ValueError(f"group table has {len(table)} rows, order says {order}")
        for row in table:
            if not isinstance(row, list):
                raise ValueError(f"group table row {row!r} is not a list")
        return FiniteGroup(tuple(tuple(row) for row in table))
    raise ValueError("group field must be a constructor string or an object")


def _field(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"missing field {name!r}")
    return doc[name]


def _read_tables(doc: dict, kinds: dict, order: int, n: int) -> tuple[int, list]:
    """(N, the element tables of a document in field order, indexed by
    element, each rotation entry an integer v mod N standing for v/N).

    N is the lcm of the rotations' reduced denominators.  A document
    repeats its few rotation values many times, so each distinct rotation
    text is read once per call, to a pair (v, d) reduced mod 1, and a
    table row is then one lookup per entry.  Only strings are read once:
    ``True``, ``1`` and ``1.0`` hash alike, so any other entry meets
    :func:`parse_fraction_text`'s reading itself, and an error is the
    first one a reading entry by entry meets.
    """
    terms = {}   # rotation entry -> (v, d), 0 <= v < d coprime

    def read(entries):
        if set(map(type, entries)) <= {str}:
            entries = dict.fromkeys(entries)
        for text in entries:
            if type(text) is not str or text not in terms:
                num, den = _fraction_terms(text)
                common = gcd(num, den)
                terms[text] = (num // common % (den // common), den // common)

    tables = []
    # the 1-based indices of a permutation row; zero_based[v] is v - 1
    indices, zero_based = set(range(1, n + 1)), tuple(range(-1, n))
    for name, kind in kinds.items():
        raw = _field(doc, name)
        if kind != "rotation rows" and (not isinstance(raw, list) or len(raw) != order):
            entry = "fraction" if kind == "rotation" else kind
            raise ValueError(f"{name} must list one {entry} per group element ({order})")
        if kind == "rotation":
            read(raw)
            tables.append(raw)
        elif kind == "sign":
            # type, not isinstance, and before the values: True equals 1
            if not (set(map(type, raw)) <= {int} and set(raw) <= {1, -1}):
                v = next(v for v in raw if type(v) is not int or v not in (1, -1))
                raise ValueError(f"{name} entries must be 1 or -1, got {v!r}")
            tables.append(tuple(raw))
        elif kind == "permutation":
            # one set compare per row; only a failing row is walked
            for g, row in enumerate(raw):
                if not isinstance(row, list) or len(row) != n:
                    raise ValueError(f"{name} row {g} must have {n} entries")
                if set(map(type, row)) <= {int} and set(row) == indices:
                    continue
                if any(type(v) is not int or not 1 <= v <= n for v in row):
                    raise ValueError(f"{name} row {g}: entries are 1-based indices in 1..{n}")
                v = next(v for k, v in enumerate(row) if v in row[:k])
                raise ValueError(f"{name} row {g}: index {v} repeats, "
                                 f"entries are a permutation of 1..{n}")
            tables.append(tuple(tuple(map(zero_based.__getitem__, row)) for row in raw))
        else:
            # one row per boundary index, one entry per element: the transpose
            if not isinstance(raw, list) or len(raw) != n:
                got = len(raw) if isinstance(raw, list) else raw
                raise ValueError(f"{name} must list {n} boundary rows, got {got!r}")
            for i, row in enumerate(raw):
                if not isinstance(row, list) or len(row) != order:
                    raise ValueError(f"{name} row {i} must have one entry per group element ({order})")
            columns = list(zip(*raw)) if n else [()] * order
            read(list(chain.from_iterable(columns)))
            tables.append(columns)
    mod = lcm(*{den for _, den in terms.values()})
    value = {text: num * (mod // den) for text, (num, den) in terms.items()}.__getitem__
    return mod, _rotations(kinds.values(), tables, value)


class _GivenTwice(ValueError):
    """A field given twice, told apart from the decoder's own ValueError."""


def _object(pairs: list) -> dict:
    """A JSON object of the document; a field given twice is bad input."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        names = [name for name, _ in pairs]
        name = next(name for k, name in enumerate(names) if names.index(name) < k)
        raise _GivenTwice(f"field {name!r} is given twice")
    return obj


def _parse_document(text: str, base_dir: Path | None, cls):
    """The record of cls a document holds, checked as its constructor
    checks it; a field cls does not name is refused last."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed document: {exc}") from None
    except _GivenTwice:
        raise
    except ValueError:   # a number with more digits than the interpreter converts
        raise ValueError("malformed document: a number has too many digits") from None
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object with named fields")
    symbol = parse_symbol(_string(_field(doc, "symbol"), "symbol"))
    group = _group_from_field(_field(doc, "group"), base_dir)
    # _read_tables checks all that _check_tables does; a descriptor's
    # constructor also checks its base
    mod, tables = _read_tables(doc, cls._tables, group.order, len(symbol.pairs))
    if cls is ProjectedActionDescriptor:
        _check_n2_base(symbol)
    extra = [name for name in doc if name not in ("symbol", "group", *cls._tables)]
    if extra:
        raise ValueError(f"unknown field{'s' * (len(extra) > 1)} {', '.join(map(repr, extra))}")
    return _from_view(cls, symbol, group, mod, *tables)


def parse_action_spec_text(text: str, base_dir: Path | None = None) -> ExtendedProductActionSpec:
    """Parse an action-spec document (JSON object, exact fractions)."""
    return _parse_document(text, base_dir, ExtendedProductActionSpec)


def parse_descriptor_text(text: str, base_dir: Path | None = None) -> ProjectedActionDescriptor:
    """Parse a projected-descriptor document (JSON object)."""
    return _parse_document(text, base_dir, ProjectedActionDescriptor)


def _read(path, what: str = "") -> tuple[str, Path]:
    """(text, directory) of a file; unreadable, not UTF-8 or a path with a
    NUL byte, a ValueError names it."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8"), p.parent
    except (OSError, ValueError) as exc:   # UnicodeDecodeError is a ValueError
        raise ValueError(f"cannot read {what}{p}: {exc}") from None


def load_action_spec(path) -> ExtendedProductActionSpec:
    return parse_action_spec_text(*_read(path))


def load_descriptor(path) -> ProjectedActionDescriptor:
    return parse_descriptor_text(*_read(path))


def _json_list(texts, indent: str, quote: str = "") -> str:
    """``json.dumps(..., indent=2)`` of a list, written at this indent, of
    the item texts (each wrapped in quote), joined a whole row at a time."""
    inner = "\n" + indent + "  "
    body = (quote + "," + inner + quote).join(texts)
    return f"[{inner}{quote}{body}{quote}\n{indent}]" if body else "[]"


def _format_document(symbol: SeifertSymbol, data) -> str:
    """The document of a spec or descriptor over symbol.

    The text of ``json.dumps(document, indent=2) + "\n"``: key order, the
    group by the constructor text it was built from or else as an inline
    table, then the tables, the boundary-indexed rotation rows (the
    transpose of theta2) and the 1-based permutation rows.  Symbols,
    constructor texts, ints and fractions print with no character JSON
    escapes.
    """
    group = data.group
    # a text that builds a group holds only letters, digits, ':' and ','
    if group._constructor is not None:
        group_text = f'"{group._constructor}"'
    else:
        rows = _json_list((_json_list(map(str, row), "      ") for row in group.table), "    ")
        group_text = f'{{\n    "order": {group.order},\n    "table": {rows}\n  }}'
    fields = [f'"symbol": "{symbol}"', f'"group": {group_text}']
    one_based = [str(j + 1) for j in range(len(symbol.pairs))]
    for name, kind in data._tables.items():
        table = getattr(data, name)
        if kind == "rotation":
            text = _json_list(map(str, table), "  ", '"')
        elif kind == "sign":
            text = _json_list(map(str, table), "  ")
        elif kind == "permutation":
            text = _json_list((_json_list(map(one_based.__getitem__, row), "    ")
                               for row in table), "  ")
        else:
            text = _json_list((_json_list(map(str, column), "    ", '"')
                               for column in zip(*table)), "  ")
        fields.append(f'"{name}": {text}')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def format_action_spec(spec: ExtendedProductActionSpec) -> str:
    """Serialize back to the document format; a group built from a
    constructor text is written as that text, any other as its table."""
    return _format_document(spec.symbol, spec)


def format_descriptor(descriptor: ProjectedActionDescriptor) -> str:
    return _format_document(descriptor.base, descriptor)
