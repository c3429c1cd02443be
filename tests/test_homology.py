"""Smith normal form and first homology."""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import given
import hypothesis.strategies as st

import seifert.homology
import seifert.presentations
from seifert import (
    AbelianGroupStructure,
    Orientability,
    SeifertPair,
    SeifertSymbol,
    abelianize,
    first_homology,
    normalize,
    orientable_double_cover,
    parse_symbol,
    pi1,
    pi1_orientable,
    smith_normal_form,
    total_sum,
)
from budget import needs_alarm, time_budget
from oracles import exact_det, snf_minor_gcd
from strategies import seifert_symbols


@pytest.mark.parametrize("matrix, expected", [
    ([[1, 0], [0, 1]], [1, 1]),
    ([[2, 0], [0, 3]], [1, 6]),
    ([[2, 4], [4, 8]], [2, 0]),
    ([[0, 0], [0, 0]], [0, 0]),
    ([[6]], [6]),
    ([[2, 0, 1], [0, 2, 1], [1, 1, 0]], [1, 1, 4]),
    ([[3, 0], [0, 5], [0, 0]], [1, 15]),
    ([], []),
    ([[]], []),
    ([[0, 0, 0]], [0]),
    ([[4], [6], [-10]], [2]),
    ([(2, 4), (4, 8)], [2, 0]),
    # pivot 4 leaves 2 in its column; pivot 2 then leaves 1 in its row
    ([[4, 0], [6, 7]], [1, 28]),
])
def test_snf_fixed_cases(matrix, expected):
    assert smith_normal_form(matrix) == expected


def test_snf_reads_rows_from_a_generator():
    assert smith_normal_form(row for row in [[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form(iter([])) == []


def test_snf_leaves_its_input_unchanged():
    for matrix in [[[4, 0], [6, 7]], *seeded_matrices()]:
        copy = [list(row) for row in matrix]
        smith_normal_form(matrix)
        assert matrix == copy


def test_snf_matches_minor_gcd_oracle_on_fixed_cases():
    for matrix in [
        [[2, 0], [0, 3]],
        [[2, 4], [4, 8]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[2, 0, 1], [0, 2, 1], [1, 1, 0]],
    ]:
        assert smith_normal_form(matrix) == snf_minor_gcd(matrix)


def test_snf_rejects_ragged_input():
    with pytest.raises(ValueError, match="same length"):
        smith_normal_form([[1, 2], [3]])


def test_snf_rejects_non_integer_entries():
    for matrix in ([[2.7, 0], [0, 3]], [["4", "6"]], [[True, 0]], [[Fraction(2), 1]]):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            smith_normal_form(matrix)


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def small_matrices(draw, max_side=5, square=False):
    rows = draw(st.integers(min_value=1, max_value=max_side))
    cols = rows if square else draw(st.integers(min_value=1, max_value=max_side))
    return [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]


@given(small_matrices())
def test_snf_agrees_with_minor_gcds(m):
    assert smith_normal_form(m) == snf_minor_gcd(m)


@given(small_matrices(square=True))
def test_snf_divisor_chain_and_determinant(m):
    inv = smith_normal_form(m)
    for a, b in zip(inv, inv[1:]):
        assert b == 0 if a == 0 else b % a == 0
    assert prod(inv) == abs(exact_det(m))


@st.composite
def permuted_copies(draw):
    """A matrix and a copy with rows and columns permuted, some rows negated."""
    m = draw(small_matrices(max_side=8))
    rows = draw(st.permutations(range(len(m))))
    cols = draw(st.permutations(range(len(m[0]))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(m), max_size=len(m)))
    return m, [[sign * m[i][j] for j in cols] for i, sign in zip(rows, signs)]


@given(permuted_copies())
def test_snf_invariant_under_permutation_and_negation(pair):
    m, copy = pair
    assert smith_normal_form(copy) == smith_normal_form(m)


# -- differential test against sympy ---------------------------------------

def sympy_invariants(matrix) -> list[int]:
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    return [abs(int(d)) for d in invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)]


def seeded_symbol(rng, cls, pairs, genus):
    chosen = []
    for _ in range(pairs):
        q = rng.randint(2, 12)
        chosen.append(SeifertPair(q, rng.choice([p for p in range(-30, 31) if gcd(p, q) == 1])))
    return SeifertSymbol(genus, cls, tuple(chosen))


def seeded_matrices():
    rng = random.Random(2018)
    for density in (0.15, 1.0):
        for _ in range(12):
            rows, cols = rng.randint(1, 30), rng.randint(1, 30)
            yield [[rng.randint(-9, 9) if rng.random() < density else 0
                    for _ in range(cols)] for _ in range(rows)]


def seeded_relation_symbols():
    rng = random.Random(1957)
    for _ in range(10):
        cls = rng.choice((Orientability.O1, Orientability.N2))
        yield seeded_symbol(rng, cls, rng.randint(0, 60), rng.randint(1, 3))
    # a 60-pair cover: where a divisibility repair inside the elimination
    # loop swells the entries until H1 never finishes
    n2 = seeded_symbol(random.Random(30), Orientability.N2, 30, 2)
    yield orientable_double_cover(n2)


def seeded_relation_matrices():
    for symbol in seeded_relation_symbols():
        yield abelianize(pi1(symbol))


def ladder(n):
    """(2,o1|(2,1),(3,1),...,(n+1,1)): n pairs of coprime orders."""
    return parse_symbol("(2,o1|" + ",".join(f"({k},1)" for k in range(2, n + 2)) + ")")


def test_snf_matches_sympy():
    for matrix in [*seeded_matrices(), *seeded_relation_matrices()]:
        assert smith_normal_form(matrix) == sympy_invariants(matrix)


# -- narrowed pivot searches ------------------------------------------------

@contextmanager
def checked_pivots():
    """Check each narrowed pivot search against a full one on the same state.

    Yields the set of restarts seen: "column" after a remainder in the
    pivot's column, whose search leaves out the pivot's row, and "row"
    after a remainder in the pivot's row, whose search includes it.  Each
    remainder is a least absolute one, so a narrowed search's pivot is at
    most half the last pivot.
    """
    search = seifert.homology._pivot
    seen = set()
    last = last_v = None

    def checked(rows, cols, among):
        nonlocal last, last_v
        at = search(rows, cols, among)
        v = abs(rows[at[0]][at[1]])
        if among is not rows:
            assert list(among) == sorted(among)
            assert at == search(rows, cols, rows)
            assert 2 * v <= last_v
            seen.add("row" if last[0] in among else "column")
        last, last_v = at, v
        return at

    with mock.patch.object(seifert.homology, "_pivot", checked):
        yield seen


def test_restart_finds_the_full_search_pivot():
    # the fixed case that restarts on both branches, beside two rows the
    # steps leave alone, so that neither restart searches all rows
    with checked_pivots() as seen:
        assert smith_normal_form([[4, 0], [6, 7]]) == [1, 28]
        assert smith_normal_form(
            [[4, 0, 0, 0], [6, 7, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]]) == [1, 1, 5, 140]
    assert seen == {"column", "row"}
    # pivot 4 over 7 in its column, then in its row: the floor remainder 3
    # is more than half the pivot, the least absolute one -1 is not
    with checked_pivots() as seen:
        assert smith_normal_form([[4], [7]]) == [1]
        assert smith_normal_form([[4, 7, 0], [0, 0, 5]]) == [1, 5]
    assert seen == {"column", "row"}
    with checked_pivots() as seen:
        for matrix in seeded_relation_matrices():
            smith_normal_form(matrix)
    assert seen == {"column", "row"}


@st.composite
def sparse_matrices(draw, max_side=12):
    """Mostly zero matrices: at most a third of the cells drawn nonzero."""
    rows = draw(st.integers(min_value=1, max_value=max_side))
    cols = draw(st.integers(min_value=1, max_value=max_side))
    m = [[0] * cols for _ in range(rows)]
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                      st.integers(min_value=-30, max_value=30))
    for i, j, v in draw(st.lists(cells, max_size=rows * cols // 3 + 1)):
        m[i][j] = v
    return m


@given(sparse_matrices())
def test_restart_finds_the_full_search_pivot_on_sparse_matrices(m):
    with checked_pivots():
        smith_normal_form(m)


# -- no coefficient swell --------------------------------------------------

@needs_alarm
def test_ladder_h1_without_coefficient_swell():
    # dense pivoting with a divisibility repair inside the loop swells on
    # these: from 3.9 s to over a minute each.  Floor remainders took 70 s
    # on the n = 800 shuffle of a fresh Random(80), for the Euclid steps
    rng = random.Random(80)
    with time_budget(10):
        for n in (41, 44, 49, 60, 80, 200, 400, 800, 1000):
            symbol = ladder(n)
            h = first_homology(symbol)
            assert h.free_rank == 4
            assert prod(h.torsion) == abs(total_sum(symbol)) * prod(p.q for p in symbol.pairs)
            matrix = abelianize(pi1(symbol))
            # the diagonal of the unshuffled matrix, as first_homology read it
            rank = len(matrix[0]) - h.free_rank
            diagonal = [1] * (rank - len(h.torsion)) + list(h.torsion)
            diagonal += [0] * (min(len(matrix), len(matrix[0])) - rank)
            for draw in [rng, random.Random(80)] if n == 800 else [rng]:
                rows = draw.sample(matrix, len(matrix))
                cols = draw.sample(range(len(matrix[0])), len(matrix[0]))
                assert smith_normal_form([[row[j] for j in cols] for row in rows]) == diagonal


@needs_alarm
def test_h1_of_many_or_long_orders_stays_fast():
    # about 1.4 s on a 2-vCPU Xeon; the elimination took over a minute on
    # the first, and a leaf that rescans its base after every split and
    # takes all the q at once took 13 s
    rng = random.Random(4000)
    long_orders = SeifertSymbol(0, Orientability.O1, tuple(
        SeifertPair(rng.randrange(10 ** 3999, 10 ** 4000), 1) for _ in range(50)))
    symbols = [ladder(16000), long_orders]
    with time_budget(10):
        groups = [first_homology(symbol) for symbol in symbols]
    for symbol, h in zip(symbols, groups):
        assert h.free_rank == 2 * symbol.genus
        assert prod(h.torsion) == total_sum(symbol) * prod(p.q for p in symbol.pairs)


# -- homology of symbols ---------------------------------------------------

def test_structure_formatting():
    assert str(AbelianGroupStructure(0, ())) == "trivial"
    assert str(AbelianGroupStructure(1, ())) == "Z"
    assert str(AbelianGroupStructure(2, (2,))) == "Z^2 x Z/2"
    assert str(AbelianGroupStructure(0, (2, 4))) == "Z/2 x Z/4"


def test_structure_validation():
    with pytest.raises(ValueError, match="free rank"):
        AbelianGroupStructure(-1, ())
    with pytest.raises(ValueError, match=">= 2"):
        AbelianGroupStructure(0, (1,))
    with pytest.raises(ValueError, match="divisor chain"):
        AbelianGroupStructure(0, (4, 2))


@pytest.mark.parametrize("text, rank, torsion", [
    ("(0,o1|)", 1, ()),
    ("(0,o1|(2,1),(2,1))", 0, (4,)),
    ("(1,n2|(2,1))", 0, (8,)),
    ("(1,o1|)", 3, ()),
    ("(2,n2|)", 1, (2, 2)),
])
def test_h1_fixed_cases(text, rank, torsion):
    h = first_homology(parse_symbol(text))
    assert (h.free_rank, tuple(h.torsion)) == (rank, torsion)


def test_h1_golden_case_against_oracle():
    # recompute the doubled-lens case from its relator matrix directly
    matrix = abelianize(pi1_orientable(parse_symbol("(0,o1|(2,1),(2,1))")))
    invariants = [d for d in snf_minor_gcd(matrix) if d > 1]
    assert invariants == [4]


def dense_h1(symbol):
    """H1 through the public route: the relation matrix written out dense,
    then checked and converted by smith_normal_form."""
    pres = pi1(symbol)
    invariants = smith_normal_form(abelianize(pres))
    rank = sum(1 for d in invariants if d)
    return AbelianGroupStructure(len(pres.generators) - rank, tuple(d for d in invariants if d > 1))


def test_h1_equals_the_dense_route():
    symbols = list(seeded_relation_symbols())
    symbols += [orientable_double_cover(s) for s in symbols if s.orientability is Orientability.N2]
    symbols += [ladder(n) for n in range(1, 101)]
    for symbol in symbols:
        assert first_homology(symbol) == dense_h1(symbol), symbol


@given(seifert_symbols(max_pairs=4))
def test_h1_stable_under_normalization(s):
    assert first_homology(s) == first_homology(normalize(s).expand())


# -- the closed form against the elimination -------------------------------

def random_symbol(rng, cls, pairs, max_q, genus):
    """Pairs (q, p) with q in 1..max_q and p coprime to q in [-3q, 3q]."""
    chosen = []
    for _ in range(pairs):
        q = rng.randint(1, max_q)
        p = rng.randint(-3 * q, 3 * q)
        while gcd(p, q) != 1:
            p = rng.randint(-3 * q, 3 * q)
        chosen.append(SeifertPair(q, p))
    return SeifertSymbol(genus, cls, tuple(chosen))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_equals_the_elimination_on_random_symbols(seed):
    rng = random.Random(seed)
    for _ in range(300):
        cls = rng.choice((Orientability.O1, Orientability.N2))
        genus = rng.randint(0 if cls is Orientability.O1 else 1, 3)
        symbol = random_symbol(rng, cls, rng.randint(0, 7), rng.choice((6, 30, 200)), genus)
        assert first_homology(symbol) == dense_h1(symbol), symbol


def test_closed_form_equals_the_elimination_on_large_orders():
    rng = random.Random(12)
    for _ in range(12):
        for cls, lowest in ((Orientability.O1, 0), (Orientability.N2, 1)):
            genus = rng.randint(lowest, 3)
            symbol = random_symbol(rng, cls, rng.randint(10, 40), 10 ** 12, genus)
            assert first_homology(symbol) == dense_h1(symbol), symbol


@pytest.mark.parametrize("text, rank, torsion", [
    ("(0,o1|)", 1, ()),                          # no pairs
    ("(2,n2|)", 1, (2, 2)),                      # no pairs: E = 0, m = 1
    ("(1,o1|(1,3),(1,-1))", 2, (2,)),            # q = 1 only: C = Z/|E|
    ("(0,o1|(1,1))", 0, ()),                     # q = 1 only, |E| = 1: the sphere
    ("(1,n2|(1,2))", 0, (2, 2)),                 # q = 1 only, E even: m = 1
    ("(1,n2|(1,1))", 0, (4,)),                   # q = 1 only, E odd: m = 0
    ("(0,o1|(3,1),(3,-1))", 1, ()),              # E = 0 for o1: C = Z
    ("(1,o1|(3,1),(3,-1),(5,2))", 2, (18,)),     # D_1 = 15, D_2 = 3, D_1 E = 6
    ("(1,o1|(3,1),(3,-1),(3,1))", 2, (3, 3)),    # D_3 = 3 before |D_1 D_2 E| = 3
    ("(1,n2|(3,1),(3,-1))", 0, (6, 6)),          # E = 0 for n2: m = 1
    ("(1,n2|(2,1),(2,1))", 0, (4, 4)),           # D_1 E = 2 even: m = 1
    ("(1,n2|(2,1))", 0, (8,)),                   # one pair, D_1 E = 1 odd: m = 0
    ("(0,o1|(7,3))", 0, (3,)),                   # one pair: Z/|p|
    ("(0,o1|(2,1),(2,1),(2,1),(3,1))", 0, (2, 22)),
])
def test_closed_form_edge_cases(text, rank, torsion):
    symbol = parse_symbol(text)
    h = first_homology(symbol)
    assert (h.free_rank, h.torsion) == (rank, torsion)
    assert h == dense_h1(symbol)


def test_h1_builds_no_presentation():
    expected = dense_h1(ladder(60))
    with mock.patch.object(seifert.presentations, "_fibered_pi1", side_effect=AssertionError), \
            mock.patch.object(seifert.homology, "_eliminate", side_effect=AssertionError):
        assert first_homology(ladder(60)) == expected


def coprime_base_cases():
    rng = random.Random(16)
    yield list(range(2, 300))                                          # the ladder's q
    yield [2] * 50 + [4] * 3                                           # equal q
    yield [rng.randint(2, 10 ** 4) for _ in range(200)]
    yield [rng.randint(2, 10 ** 12) for _ in range(60)]
    # powers and products of a few primes: long chains of meeting elements
    yield [rng.choice((2, 3, 5, 7)) ** rng.randint(1, 4) * rng.choice((11, 13, 1))
           for _ in range(80)]
    yield [6, 10, 15, 35, 77, 143]
    # a star: the product of 81 primes meets each of those in the other half
    primes = [p for p in range(2, 420) if all(p % d for d in range(2, p))]
    yield primes + [prod(primes)]
    # a chain: p_i r_i in one half meets r_i p_(i+1) in the other
    p, r = primes[:41], primes[41:]
    yield [p[i] * r[i] for i in range(40)] + [r[i] * p[i + 1] ** 2 for i in range(40)]
    # meetings inside the leaf: c divides y and what is left of y still
    # shares a prime with c, or c and y only share some primes
    yield [12, 18]
    yield [4, 6, 9]
    yield [2, 8 * 3, 27]
    yield [6, 12]
    yield [12, 6 ** 3 * 2]
    # y a power of a base element times a new prime, the power found by
    # doubling: one division per power would take 2000 steps here
    yield [6, 6 ** 5 * 7]
    yield [35, 35 ** 3 * 11, 11 ** 2]
    yield [2, 2 ** 2000 * 3]
    # 63, 64 and 65 distinct q: one leaf, and the first size that halves;
    # largest first, so that the leaf meets more than it divides
    yield list(range(64, 1, -1))
    yield list(range(65, 1, -1))
    yield list(range(66, 1, -1))


@pytest.mark.parametrize("qs", coprime_base_cases())
def test_coprime_base(qs):
    count = {}
    for q in qs:
        count[q] = count.get(q, 0) + 1
    base = seifert.homology._coprime_base(count)
    elements = sorted(base)
    assert all(gcd(a, b) == 1 for i, a in enumerate(elements) for b in elements[i + 1:])
    assert min(elements) > 1
    # every q is the product of the base's powers that its exponents give,
    # and each base element's exponent multiset is the one read off the q
    exponents = {b: {} for b in elements}
    for q in count:
        rest = q
        for b in elements:
            e = 0
            while rest % b == 0:
                rest //= b
                e += 1
            if e:
                exponents[b][e] = exponents[b].get(e, 0) + count[q]
        assert rest == 1, q
    assert exponents == base
    invariants = seifert.homology._invariant_factors(count)
    diagonal = [[q if i == j else 0 for j in range(len(qs))] for i, q in enumerate(qs)]
    assert invariants[::-1] == [d for d in smith_normal_form(diagonal) if d > 1]


@given(st.lists(st.integers(2, 60) | st.integers(2, 10 ** 6), min_size=1, max_size=80))
def test_invariant_factors_are_the_smith_form_of_the_diagonal(qs):
    count = {}
    for q in qs:
        count[q] = count.get(q, 0) + 1
    diagonal = [[q if i == j else 0 for j in range(len(qs))] for i, q in enumerate(qs)]
    expected = [d for d in smith_normal_form(diagonal) if d > 1]
    assert seifert.homology._invariant_factors(count)[::-1] == expected


def test_long_chains_multiply_through_the_tree():
    # the 16 odd primes below 59 twice each, and 2 to the powers 17, 16,
    # ..., 1, 1: D_1 and D_2 multiply 17 powers each, past the cut-off
    # below which a chain is multiplied in turn, and D_3 ... D_18 one power
    # of 2 each, in the order of the exponents
    odd = [p for p in range(3, 60) if all(p % d for d in range(2, p))]
    qs = odd * 2 + [2 ** k for k in range(17, 0, -1)] + [2]
    homology = seifert.homology
    assert homology._TREE == 16
    with mock.patch.object(homology, "_product", wraps=homology._product) as tree, \
            mock.patch.object(homology, "prod", wraps=prod) as in_turn:
        factors = homology._invariant_factors({q: qs.count(q) for q in qs})
    assert [len(chain) for (chain,), _ in tree.call_args_list] == [17, 17]
    assert in_turn.call_count == 16
    assert factors == ([2 ** 17 * prod(odd), 2 ** 16 * prod(odd)]
                       + [2 ** k for k in range(15, 0, -1)] + [2])
    symbol = SeifertSymbol(0, Orientability.O1, tuple(SeifertPair(q, 1) for q in qs))
    assert first_homology(symbol) == dense_h1(symbol)
