"""Symbol parsing, normalization, equivalence, and the double cover."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from seifert import (
    NormalizedSymbol,
    Orientability,
    SeifertPair,
    SeifertSymbol,
    SymbolSyntaxError,
    base_quotient,
    equivalent,
    normalize,
    obstruction_class,
    orientable_double_cover,
    parse_symbol,
    total_sum,
)
from seifert.symbols import _scaled_sum
from budget import needs_alarm, time_budget
from strategies import seifert_pairs, seifert_symbols


# -- construction and parsing ---------------------------------------------

def test_parse_basic():
    s = parse_symbol("(1,n2|(2,1))")
    assert s.genus == 1
    assert s.orientability is Orientability.N2
    assert s.pairs == (SeifertPair(2, 1),)


def test_parse_empty_pair_list():
    s = parse_symbol("(0,o1|)")
    assert s.genus == 0
    assert s.orientability is Orientability.O1
    assert s.pairs == ()


def test_parse_ignores_whitespace():
    assert parse_symbol(" ( 0 , o1 | ( 3 , -4 ) ) ") == parse_symbol("(0,o1|(3,-4))")


@needs_alarm
def test_parse_skips_long_whitespace_in_linear_time():
    # a token pattern that starts with \s* rescans a trailing run of spaces
    # from every offset in it: 200 000 spaces would take minutes
    with time_budget(5):
        assert parse_symbol("(0,o1|)" + " " * 200_000) == parse_symbol("(0,o1|)")


@given(seifert_symbols(), st.data())
def test_parse_ignores_whitespace_between_tokens(s, data):
    tokens = re.findall(r"-?[0-9]+|o1|n2|.", str(s))
    spaces = st.text(alphabet=" \t\n\u00a0\u2003", max_size=3)
    text = "".join(data.draw(spaces) + token for token in tokens) + data.draw(spaces)
    assert parse_symbol(text) == s


def test_str_round_trip():
    for text in ["(0,o1|)", "(2,n2|)", "(0,o1|(3,1),(1,1))", "(1,n2|(2,1),(5,-3))"]:
        assert str(parse_symbol(text)) == text


def test_parse_rejects_non_coprime_pair():
    with pytest.raises(ValueError, match="coprime"):
        parse_symbol("(0,o1|(2,4))")


def test_parse_rejects_nonpositive_q():
    with pytest.raises(ValueError, match="q must be >= 1"):
        parse_symbol("(0,o1|(0,1))")


def test_parse_rejects_genus_zero_crosscaps():
    with pytest.raises(ValueError, match="genus >= 1"):
        parse_symbol("(0,n2|)")


def test_parse_reports_error_position():
    with pytest.raises(SymbolSyntaxError) as info:
        parse_symbol("(0,o1|(3,1)")
    assert info.value.position == len("(0,o1|(3,1)")
    with pytest.raises(SymbolSyntaxError, match="trailing input"):
        parse_symbol("(0,o1|)x")
    with pytest.raises(SymbolSyntaxError, match="class"):
        parse_symbol("(0,xx|)")
    # integers are ASCII digits: other Unicode digits are not read as numbers
    for text in ("(0,o1|(\u0663,1))", "(0,o1|(\u00b2,1))", "(0,o1|(-\u0663,1))"):
        with pytest.raises(SymbolSyntaxError, match="expected an integer") as info:
            parse_symbol(text)
        assert info.value.position == len("(0,o1|(")
    with pytest.raises(SymbolSyntaxError, match="expected ','") as info:
        parse_symbol("(0,o1|(3\u0663,1))")
    assert info.value.position == len("(0,o1|(3")
    # a pair's own error names the offset of its '(', after any whitespace
    for text, position in (("(0,o1| (2,4))", 7), ("(0,o1|(3,1), (2,4))", 13)):
        with pytest.raises(SymbolSyntaxError, match="coprime") as info:
            parse_symbol(text)
        assert info.value.position == position
    # 4301 digits: past the interpreter's limit for int(), whose own message names no offset
    huge = "1" * 4301
    for text, position in ((f"({huge},o1|)", 1), (f"(0,o1|(2,{huge}))", 9),
                           (f"(0,o1|(3,1), ( -{huge},1))", 15)):
        with pytest.raises(SymbolSyntaxError, match="integer has too many digits$") as info:
            parse_symbol(text)
        assert info.value.position == position


def test_constructor_rejects_bad_data():
    with pytest.raises(ValueError):
        SeifertPair(3, 6)
    with pytest.raises(ValueError):
        SeifertSymbol(-1, Orientability.O1, ())
    with pytest.raises(ValueError):
        SeifertSymbol(0, Orientability.N2, ())
    # mistyped fields: each is refused here, not by a later TypeError
    pairs = (SeifertPair(2, 1),)
    for build, message in [
        (lambda: SeifertPair(2, True), "must be integers"),
        (lambda: SeifertPair(2.0, 1), "must be integers"),
        (lambda: SeifertSymbol(1.0, Orientability.N2, pairs), "genus must be an integer"),
        (lambda: SeifertSymbol(0, "o1", ()), "must be an Orientability"),
        (lambda: SeifertSymbol(0, Orientability.O1, list(pairs)), "must be a tuple, got list"),
        (lambda: SeifertSymbol(0, Orientability.O1, ((2, 1),)), "is not a SeifertPair"),
    ]:
        with pytest.raises(ValueError, match=message):
            build()


def test_normalized_symbol_constructor():
    with pytest.raises(ValueError, match="not in normal range"):
        NormalizedSymbol(0, Orientability.O1, (SeifertPair(3, 4),), 0)
    with pytest.raises(ValueError, match="must be sorted"):
        NormalizedSymbol(0, Orientability.O1, (SeifertPair(3, 1), SeifertPair(2, 1)), 0)
    # it prints as its expansion
    assert str(NormalizedSymbol(1, Orientability.N2, (SeifertPair(2, 1),), -1)) == "(1,n2|(2,1),(1,-1))"
    # mistyped fields are refused here, b by name and the rest by the expansion's
    # rules, not later in str()
    for args, message in [
        ((0, "o1", (), 1.5), "b must be an integer, got 1.5"),
        ((0, Orientability.O1, (), 1.5), "b must be an integer, got 1.5"),
        ((0, Orientability.O1, (), True), "b must be an integer, got True"),
        ((0, Orientability.O1, (), "1"), "b must be an integer, got '1'"),
        ((0, Orientability.O1, (), None), "b must be an integer, got None"),
        ((True, Orientability.O1, (), 0), "genus must be an integer"),
        ((-3, Orientability.N2, (), 0), "genus must be >= 0"),
        ((0, "o1", (), 0), "must be an Orientability"),
        ((0, Orientability.O1, ((2, 1),), 0), "is not a SeifertPair"),
        ((0, Orientability.O1, [SeifertPair(2, 1)], 0), "must be a tuple, got list"),
    ]:
        with pytest.raises(ValueError, match=message):
            NormalizedSymbol(*args)


# -- total sum -------------------------------------------------------------

@pytest.mark.parametrize("text, value", [
    ("(0,o1|)", Fraction(0)),
    ("(1,n2|(2,1),(1,3))", Fraction(7, 2)),
    ("(0,o1|(3,1),(3,1))", Fraction(2, 3)),
    ("(0,o1|(2,1),(3,-2),(1,2))", Fraction(11, 6)),
])
def test_total_sum_values(text, value):
    assert total_sum(parse_symbol(text)) == value


def test_total_sum_is_the_fraction_sum():
    # the lcm tree against adding the pairs' fractions one at a time, on
    # symbols with no pairs, with q = 1 only, with equal q and with long q
    rng = random.Random(2005)
    for k in range(400):
        bound = (1, 2, 12, 10 ** 6, 10 ** 40)[k % 5]
        pairs = []
        for _ in range(rng.randint(0, 30)):
            q = rng.randint(1, bound)
            p = rng.randint(-3 * q, 3 * q)
            while gcd(p, q) != 1:
                p = rng.randint(-3 * q, 3 * q)
            pairs.append(SeifertPair(q, p))
        symbol = SeifertSymbol(rng.randint(0, 2), Orientability.O1, tuple(pairs))
        expected = sum((Fraction(pr.p, pr.q) for pr in pairs), Fraction(0))
        assert total_sum(symbol) == expected
        order, scaled = _scaled_sum(pairs)
        assert order == lcm(*(pr.q for pr in pairs)) and Fraction(scaled, order) == expected


# -- normalization ---------------------------------------------------------

def test_normalize_mod_reduction():
    norm = normalize(parse_symbol("(0,o1|(3,4))"))
    assert norm.exceptional == (SeifertPair(3, 1),)
    assert norm.b == 1


def test_normalize_fixed_point():
    norm = normalize(parse_symbol("(1,n2|(2,1))"))
    assert norm.exceptional == (SeifertPair(2, 1),)
    assert norm.b == 0


def test_normalize_negative_p_and_carries():
    norm = normalize(parse_symbol("(0,o1|(2,1),(2,-1),(1,2))"))
    assert norm.exceptional == (SeifertPair(2, 1), SeifertPair(2, 1))
    assert norm.b == 1


def test_normalize_sorts_exceptional_pairs():
    norm = normalize(parse_symbol("(0,o1|(5,2),(3,1),(5,1))"))
    assert norm.exceptional == (
        SeifertPair(3, 1), SeifertPair(5, 1), SeifertPair(5, 2))


def test_expand_appends_trailing_b_pair():
    assert str(normalize(parse_symbol("(0,o1|(3,4))")).expand()) == "(0,o1|(3,1),(1,1))"
    # b = 0 still gets its pair so the serialization is uniform
    assert str(normalize(parse_symbol("(1,n2|(2,1))")).expand()) == "(1,n2|(2,1),(1,0))"


@given(seifert_symbols())
def test_normalize_idempotent(s):
    norm = normalize(s)
    assert normalize(norm.expand()) == norm


@given(seifert_symbols())
def test_normalize_preserves_total_sum(s):
    assert total_sum(normalize(s).expand()) == total_sum(s)


@given(seifert_symbols())
def test_normalized_pairs_in_range(s):
    for pr in normalize(s).exceptional:
        assert pr.q > 1 and 0 < pr.p < pr.q


# -- obstruction class -----------------------------------------------------

@pytest.mark.parametrize("text, b", [
    ("(0,o1|(1,5))", 5),
    ("(0,o1|(1,-7))", -7),
    ("(1,n2|(2,1))", 0),
    ("(0,o1|(3,4),(3,5))", 2),
])
def test_obstruction_values(text, b):
    assert obstruction_class(parse_symbol(text)) == b


# -- equivalence -----------------------------------------------------------

def test_equivalent_golden_cases():
    a = parse_symbol("(0,o1|(3,4))")
    assert equivalent(a, a)
    assert equivalent(a, parse_symbol("(0,o1|(3,1),(1,1))"))
    assert not equivalent(parse_symbol("(0,o1|(3,1))"), parse_symbol("(0,o1|(3,2))"))
    assert not equivalent(parse_symbol("(0,o1|)"), parse_symbol("(1,o1|)"))
    assert not equivalent(parse_symbol("(1,o1|)"), parse_symbol("(1,n2|)"))


@given(seifert_symbols(), seifert_symbols())
def test_equivalent_symmetric(a, b):
    assert equivalent(a, b) == equivalent(b, a)


@given(seifert_symbols())
def test_equivalent_on_rewritings(s):
    # reordering pairs and normalizing both stay in the class, and
    # chaining the two witnesses transitivity on a nontrivial triple
    reordered = SeifertSymbol(s.genus, s.orientability, tuple(reversed(s.pairs)))
    expanded = normalize(s).expand()
    assert equivalent(s, reordered)
    assert equivalent(reordered, expanded)
    assert equivalent(s, expanded)


@given(seifert_symbols(max_pairs=3, max_q=6, max_p=8))
def test_perturbing_one_p_breaks_equivalence(s):
    if not s.pairs:
        return
    q, p = s.pairs[0].q, s.pairs[0].p
    bumped = (SeifertPair(q, p + q),) + s.pairs[1:]
    other = SeifertSymbol(s.genus, s.orientability, bumped)
    assert not equivalent(s, other)


# -- double cover and quotient --------------------------------------------

@pytest.mark.parametrize("below, above", [
    ("(1,n2|(2,1))", "(0,o1|(2,1),(2,1))"),
    ("(2,n2|)", "(1,o1|)"),
    ("(3,n2|(5,2),(1,1))", "(2,o1|(5,2),(1,1),(5,2),(1,1))"),
])
def test_cover_goldens(below, above):
    assert orientable_double_cover(parse_symbol(below)) == parse_symbol(above)


def test_cover_rejects_orientable_base():
    with pytest.raises(ValueError, match="class n2"):
        orientable_double_cover(parse_symbol("(0,o1|)"))


@pytest.mark.parametrize("above, below", [
    ("(0,o1|(2,1),(2,1))", "(1,n2|(2,1))"),
    ("(1,o1|)", "(2,n2|)"),
    # neither block nor adjacent doubled: assembled from the normal form
    ("(0,o1|(2,1),(3,1),(3,1),(2,1))", "(1,n2|(2,1),(3,1))"),
])
def test_quotient_goldens(above, below):
    assert base_quotient(parse_symbol(above)) == parse_symbol(below)


def test_quotient_of_adjacent_pattern_base():
    # the base (a,a,b,b) is itself adjacent doubled; its cover must halve
    # by blocks back to it, not by the adjacent pattern to (a,b,a,b)
    base = parse_symbol("(1,n2|(2,1),(2,1),(3,1),(3,1))")
    cover = orientable_double_cover(base)
    assert cover == parse_symbol("(0,o1|(2,1),(2,1),(3,1),(3,1),(2,1),(2,1),(3,1),(3,1))")
    assert base_quotient(cover) == base
    assert base_quotient(parse_symbol("(0,o1|(2,1),(2,1),(3,1),(3,1))")) == parse_symbol(
        "(1,n2|(2,1),(3,1))")


def test_quotient_none_when_not_doubled():
    assert base_quotient(parse_symbol("(0,o1|(2,1),(3,1))")) is None
    assert base_quotient(parse_symbol("(0,o1|(1,1))")) is None  # odd obstruction


def test_quotient_handles_carried_doubling():
    # not literally doubled, but the normalized data folds in half
    assert base_quotient(parse_symbol("(0,o1|(1,2))")) == parse_symbol("(1,n2|(1,1))")


def test_quotient_rejects_crosscap_base():
    with pytest.raises(ValueError, match="class o1"):
        base_quotient(parse_symbol("(1,n2|)"))


@given(st.integers(0, 2), st.lists(seifert_pairs(max_q=4, max_p=6), max_size=4), st.booleans(),
       st.data())
def test_quotient_from_the_normal_form(genus, pairs, doubled, data):
    # lists that are neither block- nor adjacent-doubled: the quotient,
    # if any, is assembled from the normal form
    if doubled:
        pairs = data.draw(st.permutations(pairs + pairs))
    pairs = tuple(pairs)
    n = len(pairs) // 2
    assume(pairs[:n] != pairs[n:] and pairs[0::2] != pairs[1::2])
    symbol = SeifertSymbol(genus, Orientability.O1, pairs)
    norm = normalize(symbol)
    odd = norm.b % 2 == 1 or any(c % 2 for c in Counter(norm.exceptional).values())
    quotient = base_quotient(symbol)
    assert (quotient is None) == odd
    if quotient is not None:
        assert equivalent(orientable_double_cover(quotient), symbol)


@given(seifert_symbols(classes=(Orientability.N2,)))
def test_cover_doubles_obstruction(m):
    assert obstruction_class(orientable_double_cover(m)) == 2 * obstruction_class(m)


@given(seifert_symbols(classes=(Orientability.N2,)))
def test_quotient_inverts_cover(m):
    assert base_quotient(orientable_double_cover(m)) == m


@given(seifert_symbols(classes=(Orientability.N2,)), st.data())
def test_quotient_of_shuffled_cover(m, data):
    # a shuffled cover is mostly no literal doubling; its quotient comes
    # from the normal form, and its cover is equivalent, if not equal
    cover = orientable_double_cover(m)
    shuffled = SeifertSymbol(cover.genus, Orientability.O1,
                             tuple(data.draw(st.permutations(cover.pairs))))
    quotient = base_quotient(shuffled)
    assert quotient is not None
    assert equivalent(orientable_double_cover(quotient), shuffled)
