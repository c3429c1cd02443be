"""Multiplication-table groups, constructors, and map checking."""

import random
import re

import pytest

import oracles
import seifert.groups
import specbuild

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
    # every row a permutation and index 0 the identity, but column 2 repeats
    with pytest.raises(ValueError, match="^column 2 is not a permutation$"):
        FiniteGroup(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 0, 1)))
    # the smallest non-associative Latin square with identity
    with pytest.raises(ValueError, match=r"^associativity fails at \(1,1,2\)$"):
        FiniteGroup((
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        ))


@pytest.mark.parametrize("table, message", [
    # the first entry that is not an int in range names the row's fault
    (((0, 1.0, -1), (1, 2, 0), (2, 0, 1)), "table entry 1.0 is not an integer in [0, 3)"),
    (((0, 1, 2), (1, 2, 0), (2, 0, -1)), "table entry -1 is not an integer in [0, 3)"),
    (((0, 1), (True, 0)), "table entry True is not an integer in [0, 2)"),
    (((0, [1]), (1, 0)), "table entry [1] is not an integer in [0, 2)"),
    (((0, 5, 1), (1, 2, 0), (2, 0, 1)), "table entry 5 is not an integer in [0, 3)"),
    # rows are read in order, each length before its entries
    (((0, 1.0), (1,)), "table entry 1.0 is not an integer in [0, 2)"),
    (((0, 1), (1,), (2.0, 0)), "multiplication table must be square"),
    # a list table or row would give a record that cannot be hashed
    ([(0,)], "multiplication table must be a tuple, got list"),
    (([0, 1], (1, 0)), "table row must be a tuple, got list"),
    (((0, 1), [1, 0]), "table row must be a tuple, got list"),
], ids=["float", "negative", "bool", "list-entry", "out-of-range", "row-order", "square-first",
        "list-table", "list-row-0", "list-row-1"])
def test_table_entry_messages(table, message):
    assert oracles.group_check(table) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FiniteGroup(table)


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
    tables += [specbuild.dihedral_group(n).table for n in (3, 4, 5, 6)]
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


def random_loop(rng, m):
    """A seeded Latin square of order m, filled row by row (a row that
    runs out of choices is drawn again), then reduced so that row and
    column 0 read 0..m-1."""
    rows = []
    while len(rows) < m:
        row, used = [], [set(column) for column in zip(*rows)] if rows else [set()] * m
        for c in range(m):
            free = [v for v in range(m) if v not in row and v not in used[c]]
            if not free:
                break
            row.append(rng.choice(free))
        if len(row) == m:
            rows.append(row)
    order = sorted(range(m), key=rows[0].__getitem__)
    square = [[row[c] for c in order] for row in rows]
    square.sort(key=lambda row: row[0])
    return tuple(map(tuple, square))


def mutate(rng, table):
    """table with one seeded fault: an entry changed, two swapped, a row
    shortened or made a list."""
    m = len(table)
    rows = [list(row) for row in table]
    x, y = rng.randrange(m), rng.randrange(m)
    kind = rng.randrange(5)
    if kind == 0:
        rows[x][y] = rng.choice([rng.randrange(m), rng.randrange(m), m, -1, True, False,
                                 float(rows[x][y]), [rows[x][y]], str(rows[x][y])])
    elif kind == 1:
        z = rng.randrange(m)
        rows[x][y], rows[x][z] = rows[x][z], rows[x][y]
    elif kind == 2:
        w = rng.randrange(m)
        rows[x][y], rows[w][y] = rows[w][y], rows[x][y]
    elif kind == 3:
        del rows[x][y]
    out = tuple(map(tuple, rows))
    if kind == 4:
        return out[:x] + (list(out[x]),) + out[x + 1:]
    return out


def checked(table):
    try:
        FiniteGroup(table)
    except ValueError as exc:
        return str(exc)
    return None


def test_group_check_agrees_with_entry_by_entry_reference():
    # same verdict and message as the reference on groups with one seeded
    # fault and on random loops, most of which are not groups
    rng = random.Random(5105)
    tables = seeded_tables(rng)
    messages = set()
    for _ in range(4000):
        table = mutate(rng, rng.choice(tables))
        message = oracles.group_check(table)
        assert checked(table) == message, table
        messages.add(message.split(" at (")[0] if message else message)
    loops = []
    for _ in range(600):
        loop = random_loop(rng, rng.randrange(4, 9))
        message = oracles.group_check(loop)
        assert checked(loop) == message, loop
        assert (message is None) == oracles.naive_associative(loop)
        loops.append(message)
    assert len(messages) >= 8 and None in messages
    assert loops.count(None) >= 50 and loops.count(None) <= 300 and len(set(loops)) >= 8


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


def cyclic_definition(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def product_definition(a, b):
    # (i, j) at index i*|b| + j, multiplied componentwise
    nb, m = len(b), len(a) * len(b)
    return tuple(tuple(a[x // nb][y // nb] * nb + b[x % nb][y % nb] for y in range(m))
                 for x in range(m))


# constructor text -> the table read off the definitions
CONSTRUCTED = (
    [(f"cyclic:{n}", cyclic_definition(n)) for n in range(1, 65)]
    + [(f"product:cyclic:{a},cyclic:{b}", product_definition(cyclic_definition(a),
                                                             cyclic_definition(b)))
       for a in range(1, 65) for b in range(1, 64 // a + 1)]
    + [("product:cyclic:2,product:cyclic:3,cyclic:4",
        product_definition(cyclic_definition(2),
                           product_definition(cyclic_definition(3), cyclic_definition(4)))),
       ("product:product:cyclic:2,cyclic:2,cyclic:6",
        product_definition(product_definition(cyclic_definition(2), cyclic_definition(2)),
                           cyclic_definition(6))),
       ("product:product:cyclic:2,cyclic:3,product:cyclic:1,cyclic:5",
        product_definition(product_definition(cyclic_definition(2), cyclic_definition(3)),
                           product_definition(cyclic_definition(1), cyclic_definition(5))))])


def test_constructor_groups_are_their_definitions_unchecked(monkeypatch):
    # the constructors build groups by construction and run no check; the
    # same tables pass the check and give equal groups
    checks = []
    check = FiniteGroup.__post_init__

    def counted(self):
        checks.append(self.order)
        check(self)

    monkeypatch.setattr(FiniteGroup, "__post_init__", counted)
    for text, table in CONSTRUCTED:
        group = group_from_constructor(text)
        assert group.table == table
        assert not checks
        checked = FiniteGroup(table)
        assert checks == [len(table)]
        checks.clear()
        assert checked == group and hash(checked) == hash(group)
        assert checked.generators == group.generators
    for a in range(1, 9):
        for b in range(1, 9):
            product = direct_product(cyclic_group(a), cyclic_group(b))
            assert product.table == product_definition(cyclic_definition(a), cyclic_definition(b))
    assert not checks


def _product_by_formula(a, b) -> FiniteGroup:
    """direct_product's table as the per-cell formula builds it, checked."""
    nb = b.order
    shifted = [[tuple(x * nb + y for y in b_row) for x in a.elements()] for b_row in b.table]
    return FiniteGroup(tuple(tuple(v for x in a_row for v in blocks[x])
                             for a_row in a.table for blocks in shifted))


def test_direct_product_equals_the_cell_formula():
    # row copies of shared blocks give the table of the per-cell formula,
    # for Z1 on either side and for products nested on either side
    z1, z2, z3 = cyclic_group(1), cyclic_group(2), cyclic_group(3)
    klein, z2z3 = direct_product(z2, z2), direct_product(z2, z3)
    factors = [z1, z2, z3, klein, z2z3, direct_product(z1, z3), direct_product(z2z3, z1),
               direct_product(klein, z2z3), direct_product(z3, direct_product(z1, klein)),
               specbuild.dihedral_group(3)]
    for a in factors:
        for b in factors:
            assert direct_product(a, b) == _product_by_formula(a, b)
    deep = group_from_constructor("product:product:cyclic:1,cyclic:4,product:cyclic:2,cyclic:1")
    assert deep == _product_by_formula(direct_product(z1, cyclic_group(4)), direct_product(z2, z1))


def test_constructor_order_limit(monkeypatch):
    # an order over the limit is refused before any table is built, and
    # the limit itself is reached
    limit = seifert.groups.MAX_CONSTRUCTOR_ORDER
    assert limit >= 720
    built = []
    for name in ("cyclic_group", "direct_product"):
        def counted(*args, build=getattr(seifert.groups, name)):
            built.append(args)
            return build(*args)
        monkeypatch.setattr(seifert.groups, name, counted)
    for text, order in [(f"cyclic:{limit + 1}", limit + 1), ("cyclic:99999999999", 99999999999),
                        (f"product:cyclic:2,cyclic:{limit // 2 + 1}", limit + 2),
                        (f"product:cyclic:{limit},cyclic:2", 2 * limit),
                        ("product:cyclic:64,product:cyclic:2,cyclic:32", 4096),
                        (f"product:cyclic:{limit + 1},cyclic:x", limit + 1)]:
        message = f"group order {order} is over the limit of {limit}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            group_from_constructor(text)
        assert built == []
    assert group_from_constructor(f"product:cyclic:2,cyclic:{limit // 2}").order == limit
    # errors the limit does not name keep their messages
    with pytest.raises(ValueError, match="^cyclic group order must be >= 1$"):
        group_from_constructor("product:cyclic:0,x")
    with pytest.raises(ValueError, match="unknown group constructor"):
        group_from_constructor(f"product:cyclic:{limit},x")


def test_constructor_memo_keeps_the_last_group():
    # the same stripped text gives the same object, which keeps the text;
    # another text in between evicts it, and it is rebuilt equal
    seifert.groups._constructed.cache_clear()
    z4 = group_from_constructor("cyclic:4")
    assert group_from_constructor("cyclic:4") is z4
    assert group_from_constructor(" cyclic:4\n") is z4 and z4._constructor == "cyclic:4"
    klein = group_from_constructor("product:cyclic:2,cyclic:2")
    again = group_from_constructor("cyclic:4")
    assert again == z4 and hash(again) == hash(z4) and again is not z4
    assert klein._constructor == "product:cyclic:2,cyclic:2"
    assert seifert.groups._constructed.cache_info().currsize == 1
    # equality stays by table: a checked or unnamed group equals a named one
    assert FiniteGroup(z4.table) == z4 and FiniteGroup(z4.table)._constructor is None
    assert cyclic_group(4)._constructor is None


def test_refused_constructor_texts_raise_every_time():
    # a text that raises is never stored and leaves the kept group in place
    limit = seifert.groups.MAX_CONSTRUCTOR_ORDER
    z3 = group_from_constructor("cyclic:3")
    for text, message in [(f"cyclic:{limit + 1}", f"group order {limit + 1} is over the limit"),
                          ("product:cyclic:2", "product: expects two operands"),
                          ("cyclic:x", "cyclic: expects an integer"),
                          ("cyclic:0", "cyclic group order must be >= 1")]:
        for _ in range(3):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                group_from_constructor(text)
        assert group_from_constructor("cyclic:3") is z3
