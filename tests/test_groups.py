"""Multiplication-table groups, constructors, and map checking."""

import random

import pytest

import oracles

from seifert import (
    FiniteGroup,
    GroupMap,
    cyclic_group,
    direct_product,
    group_from_constructor,
    is_homomorphism,
    is_injective,
    parse_group_text,
)


def test_cyclic_tables():
    assert cyclic_group(1).table == ((0,),)
    assert cyclic_group(2).table == ((0, 1), (1, 0))
    z4 = cyclic_group(4)
    assert z4.mul(3, 2) == 1
    assert z4.inverse(3) == 1
    assert [z4.element_order(k) for k in range(4)] == [1, 4, 2, 4]


def test_table_validation():
    with pytest.raises(ValueError, match="at least the identity"):
        FiniteGroup(())
    with pytest.raises(ValueError, match="square"):
        FiniteGroup(((0, 1), (1,)))
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup(((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="not a permutation"):
        FiniteGroup(((0, 1), (1, 1)))
    # rows and columns are checked index by index: column 1 fails before row 2
    with pytest.raises(ValueError, match="^column 1 is not a permutation$"):
        FiniteGroup(((0, 1, 2, 3), (1, 2, 3, 0), (2, 1, 1, 0), (3, 0, 0, 1)))
    # the smallest non-associative Latin square with identity
    with pytest.raises(ValueError, match="associativity fails"):
        FiniteGroup((
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        ))


def test_direct_product_shapes():
    assert direct_product(cyclic_group(2), cyclic_group(1)).table == cyclic_group(2).table
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert sorted(klein.element_order(g) for g in klein.elements()) == [1, 2, 2, 2]


def test_z2_x_z3_is_cyclic_of_order_six():
    mixed = direct_product(cyclic_group(2), cyclic_group(3))
    z6 = cyclic_group(6)
    assert mixed.table != z6.table
    assert (sorted(mixed.element_order(g) for g in mixed.elements())
            == sorted(z6.element_order(g) for g in z6.elements()))


def test_product_indexing_is_row_major():
    mixed = direct_product(cyclic_group(2), cyclic_group(3))
    # (1,1) * (1,2) = (0,0)
    assert mixed.mul(1 * 3 + 1, 1 * 3 + 2) == 0


def test_group_text_round_trip():
    text = "3\n0 1 2\n1 2 0\n2 0 1\n"
    assert parse_group_text(text) == cyclic_group(3)
    assert parse_group_text("\n  3\n0 1 2  \n\n1 2 0\n 2 0 1") == cyclic_group(3)


def test_group_text_diagnostics():
    with pytest.raises(ValueError, match="empty group file"):
        parse_group_text("\n  \n")
    with pytest.raises(ValueError, match="bad order line"):
        parse_group_text("three\n0 1 2")
    with pytest.raises(ValueError, match="expected 2 table rows"):
        parse_group_text("2\n0 1")
    with pytest.raises(ValueError, match="bad table row"):
        parse_group_text("2\n0 1\n1 x")
    # entries are an optional '-' and ASCII digits, nothing int() would also take
    for text in ("2\n0 1\n1 +0", "2\n0 1_0\n1 0", "2\n0 \u0661\n1 0"):
        with pytest.raises(ValueError, match="bad table row"):
            parse_group_text(text)
    for text in ("+2\n0 1\n1 0", "\u0662\n0 1\n1 0", "2_0\n"):
        with pytest.raises(ValueError, match="bad order line"):
            parse_group_text(text)
    assert parse_group_text(" 2 \n 0  1\n1\t0 ").order == 2


def test_constructor_strings():
    assert group_from_constructor("cyclic:4") == cyclic_group(4)
    assert group_from_constructor("product:cyclic:2,cyclic:3") == direct_product(
        cyclic_group(2), cyclic_group(3))
    nested = group_from_constructor("product:product:cyclic:2,cyclic:2,cyclic:2")
    assert nested.order == 8


def test_constructor_diagnostics():
    with pytest.raises(ValueError, match="unknown group constructor"):
        group_from_constructor("dihedral:4")
    with pytest.raises(ValueError, match="cyclic: expects an integer"):
        group_from_constructor("cyclic:x")
    with pytest.raises(ValueError, match="trailing text"):
        group_from_constructor("cyclic:2,cyclic:3")
    with pytest.raises(ValueError, match="two operands"):
        group_from_constructor("product:cyclic:2")
    for text in ("cyclic:\u0663", "cyclic:\u00b2", "product:cyclic:2,cyclic:\u0663"):
        with pytest.raises(ValueError, match="cyclic: expects an integer"):
            group_from_constructor(text)
    with pytest.raises(ValueError, match="trailing text in group constructor: '\u0663'"):
        group_from_constructor("cyclic:3\u0663")


def test_map_checking():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    ident = GroupMap(z4, z4, (0, 1, 2, 3))
    assert is_homomorphism(ident) and is_injective(ident)

    collapse = GroupMap(z4, z4, (0, 0, 0, 0))
    assert is_homomorphism(collapse) and not is_injective(collapse)

    parity = GroupMap(z4, z2, (0, 1, 0, 1))
    assert is_homomorphism(parity) and not is_injective(parity)

    shift = GroupMap(z4, z4, (1, 2, 3, 0))
    assert not is_homomorphism(shift)


def test_map_validation():
    z2 = cyclic_group(2)
    with pytest.raises(ValueError, match="one image per source"):
        GroupMap(z2, z2, (0,))
    with pytest.raises(ValueError, match="out of range"):
        GroupMap(z2, z2, (0, 5))


def dihedral_table(n: int) -> tuple[tuple[int, ...], ...]:
    """D_n with r^k s^e at index e*n + k."""
    def mul(x, y):
        (e1, k1), (e2, k2) = divmod(x, n), divmod(y, n)
        return (e1 ^ e2) * n + (k1 + (-1) ** e1 * k2) % n
    return tuple(tuple(mul(x, y) for y in range(2 * n)) for x in range(2 * n))


def relabel(rng, table):
    """The same group under a seeded relabelling that keeps 0 the identity."""
    m = len(table)
    perm = [0] + rng.sample(range(1, m), m - 1)
    out = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return tuple(tuple(row) for row in out)


def intercalate_switch(rng, table):
    """Flip one 2x2 subsquare a b / b a off row and column 0, or None.

    The result is still a Latin square with identity 0, usually not a
    group.
    """
    m = len(table)
    for _ in range(200 if m > 2 else 0):
        r1, r2 = rng.sample(range(1, m), 2)
        c1 = rng.randrange(1, m)
        a, b = table[r1][c1], table[r2][c1]
        c2 = table[r2].index(a)
        if c2 != 0 and table[r1][c2] == b:
            out = [list(row) for row in table]
            out[r1][c1], out[r1][c2], out[r2][c1], out[r2][c2] = b, a, a, b
            return tuple(tuple(row) for row in out)
    return None


def seeded_tables(rng):
    tables = [cyclic_group(m).table for m in (1, 2, 3, 4, 6, 8, 9, 12)]
    tables += [group_from_constructor(text).table for text in (
        "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4", "product:cyclic:3,cyclic:3",
        "product:product:cyclic:2,cyclic:2,cyclic:2", "product:cyclic:2,cyclic:6")]
    tables += [dihedral_table(n) for n in (3, 4, 5, 6)]
    return tables + [relabel(rng, t) for t in tables if len(t) > 2]


def closure(table, gens):
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [table[x][s] for x in frontier for s in gens if table[x][s] not in reached]
        reached.update(frontier)
    return reached


def test_generators():
    assert cyclic_group(1).generators == ()
    assert all(cyclic_group(m).generators == (1,) for m in (2, 5, 64))
    assert group_from_constructor(
        "product:cyclic:12,product:cyclic:2,cyclic:6").generators == (1, 6, 12)
    for table in seeded_tables(random.Random(5101)):
        group = FiniteGroup(table)
        assert closure(table, group.generators) == set(group.elements())


def test_associativity_agrees_with_naive_scan():
    # Light's test over the generators against every triple, on groups
    # and on Latin squares one intercalate away from a group
    rng = random.Random(5102)
    verdicts = []
    for table in seeded_tables(rng):
        for square in [table] + [intercalate_switch(rng, table) for _ in range(6)]:
            if square is None:
                continue
            try:
                FiniteGroup(square)
                accepted = True
            except ValueError as exc:
                assert str(exc).startswith("associativity fails at (")
                accepted = False
            assert accepted == oracles.naive_associative(square)
            verdicts.append(accepted)
    assert verdicts.count(False) >= 50 and verdicts.count(True) >= 30


def test_direct_product_is_componentwise():
    # the table read off the definition, (i, j)(k, l) = (ik, jl) at i*|b| + j
    rng = random.Random(5104)
    factors = [FiniteGroup(t) for t in seeded_tables(rng) if len(t) <= 8]
    for _ in range(40):
        a, b = rng.choice(factors), rng.choice(factors)
        nb = b.order
        product = direct_product(a, b)
        assert product.table == tuple(
            tuple(a.mul(g // nb, h // nb) * nb + b.mul(g % nb, h % nb)
                  for h in range(a.order * nb)) for g in range(a.order * nb))


def test_homomorphism_agrees_with_pair_scan():
    # identity, trivial and power maps are homomorphisms; random maps and
    # one-entry edits of any of them mostly are not
    rng = random.Random(5103)
    groups = [FiniteGroup(t) for t in seeded_tables(rng)]
    verdicts = []
    for _ in range(400):
        source, target = rng.choice(groups), rng.choice(groups)
        kind, t = rng.choice(("identity", "trivial", "power", "random")), rng.randrange(target.order)
        if kind == "identity":
            target, images = source, list(source.elements())
        elif kind == "trivial":
            images = [0] * source.order
        elif (kind == "power" and source.table == cyclic_group(source.order).table
              and source.order % target.element_order(t) == 0):
            images = [0]
            while len(images) < source.order:
                images.append(target.mul(images[-1], t))
        else:
            images = [0] + [rng.randrange(target.order) for _ in range(source.order - 1)]
        if rng.random() < 0.3:
            images[rng.randrange(source.order)] = rng.randrange(target.order)
        f = GroupMap(source, target, tuple(images))
        verdict = is_homomorphism(f)
        assert verdict == oracles.naive_homomorphism(source.table, target.table, f.images)
        verdicts.append(verdict)
    assert verdicts.count(False) >= 50 and verdicts.count(True) >= 50
