"""Presentation templates, text export, and abelianization."""

import random
from math import gcd

import pytest
from hypothesis import given

from seifert import (
    Orientability,
    SeifertPair,
    SeifertSymbol,
    abelianize,
    first_homology,
    orbifold_pi1,
    orientable_double_cover,
    parse_symbol,
    pi1,
    pi1_nonorientable,
    pi1_orientable,
)
from seifert.presentations import MAX_GENUS, Presentation, word
from strategies import seifert_symbols


def relator_strings(pres: Presentation) -> list[str]:
    return [pres.format_word(rel) for rel in pres.relators]


# -- word building ---------------------------------------------------------

def test_word_merges_and_drops():
    assert word((0, 1), (0, 1)) == ((0, 2),)
    assert word((0, 1), (1, 1), (1, -1), (0, -1)) == ()
    assert word((0, 2), (1, 0), (0, 3)) == ((0, 5),)


def test_presentation_validation():
    with pytest.raises(ValueError, match="distinct"):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError, match="unknown generator"):
        Presentation(("a",), (((1, 1),),))
    with pytest.raises(ValueError, match="zero exponent"):
        Presentation(("a",), (((0, 0),),))
    with pytest.raises(ValueError, match="freely reduced"):
        Presentation(("a",), (((0, 1), (0, 1)),))


# -- fixed template cases --------------------------------------------------

def test_pi1_klein_bottle_fiber():
    pres = pi1_nonorientable(parse_symbol("(1,n2|)"))
    assert pres.generators == ("x", "t")
    assert relator_strings(pres) == ["x*t*x^-1*t", "x^-2"]


def test_pi1_one_exceptional_fiber():
    pres = pi1_nonorientable(parse_symbol("(1,n2|(2,1))"))
    assert pres.generators == ("x", "c1", "t")
    assert relator_strings(pres) == [
        "c1*t*c1^-1*t^-1",
        "x*t*x^-1*t",
        "c1^2*t",
        "c1*x^-2",
    ]


def test_pi1_two_crosscaps():
    pres = pi1_nonorientable(parse_symbol("(2,n2|)"))
    assert pres.generators == ("x", "y", "t")
    assert relator_strings(pres) == [
        "x*t*x^-1*t",
        "y*t*y^-1*t^-1",
        "x*y*x^-1*y",
    ]


def test_pi1_three_crosscaps_has_handles():
    pres = pi1_nonorientable(parse_symbol("(3,n2|(2,1))"))
    assert pres.generators == ("a1", "b1", "x", "c1", "t")
    assert relator_strings(pres)[-1] == "c1*a1*b1*a1^-1*b1^-1*x^-2"


def test_pi1_orientable_free_circle_bundle():
    pres = pi1_orientable(parse_symbol("(0,o1|)"))
    assert pres.generators == ("t",)
    assert pres.relators == ()


def test_pi1_orientable_doubled_lens():
    pres = pi1_orientable(parse_symbol("(0,o1|(2,1),(2,1))"))
    assert pres.generators == ("c1", "c2", "t")
    assert relator_strings(pres) == [
        "c1*t*c1^-1*t^-1",
        "c2*t*c2^-1*t^-1",
        "c1^2*t",
        "c2^2*t",
        "c1*c2",
    ]


def test_pi1_orientable_with_handle():
    pres = pi1_orientable(parse_symbol("(1,o1|(3,1))"))
    assert pres.generators == ("a1", "b1", "c1", "t")
    assert relator_strings(pres) == [
        "a1*t*a1^-1*t^-1",
        "b1*t*b1^-1*t^-1",
        "c1*t*c1^-1*t^-1",
        "c1^3*t",
        "c1*a1*b1*a1^-1*b1^-1",
    ]


def test_pi1_rejects_wrong_class():
    with pytest.raises(ValueError, match="class n2"):
        pi1_nonorientable(parse_symbol("(0,o1|)"))
    with pytest.raises(ValueError, match="class o1"):
        pi1_orientable(parse_symbol("(1,n2|)"))
    # a genus over the limit, of either class, through every reader of it
    over = MAX_GENUS + 1
    for text in (f"({over},o1|)", f"({over},n2|(2,1))"):
        for build in (pi1, orbifold_pi1, first_homology):
            with pytest.raises(ValueError,
                               match=f"^genus {over} is over the limit of {MAX_GENUS}$"):
                build(parse_symbol(text))
    assert len(pi1(parse_symbol(f"({MAX_GENUS},o1|)")).generators) == 2 * MAX_GENUS + 1


def test_orbifold_groups():
    pres = orbifold_pi1(parse_symbol("(1,n2|(2,1))"))
    assert pres.generators == ("x", "c1")
    assert relator_strings(pres) == ["c1^2", "c1*x^-2"]

    pres = orbifold_pi1(parse_symbol("(0,o1|)"))
    assert pres.generators == ()
    assert pres.relators == ()

    pres = orbifold_pi1(parse_symbol("(2,n2|)"))
    assert pres.generators == ("x", "y")
    assert relator_strings(pres) == ["x*y*x^-1*y"]


def test_export_text_layout():
    pres = pi1_nonorientable(parse_symbol("(1,n2|(2,1))"))
    assert pres.export_text() == (
        "x c1 t\n"
        "c1*t*c1^-1*t^-1\n"
        "x*t*x^-1*t\n"
        "c1^2*t\n"
        "c1*x^-2"
    )
    # the empty word prints as the identity
    assert pres.format_word(()) == "1"


def test_abelianize_rows():
    pres = pi1_orientable(parse_symbol("(0,o1|(2,1),(2,1))"))
    assert abelianize(pres) == [
        [0, 0, 0],
        [0, 0, 0],
        [2, 0, 1],
        [0, 2, 1],
        [1, 1, 0],
    ]


def seeded_presentations():
    """pi1 and orbifold_pi1 of seeded symbols of both classes, and of the
    covers of the class n2 ones."""
    rng = random.Random(24)
    for _ in range(60):
        cls = rng.choice((Orientability.O1, Orientability.N2))
        pairs = []
        for _ in range(rng.randint(0, 8)):
            q = rng.randint(1, 12)
            pairs.append(SeifertPair(q, rng.choice([p for p in range(-30, 31) if gcd(p, q) == 1])))
        symbol = SeifertSymbol(rng.randint(cls is Orientability.N2, 4), cls, tuple(pairs))
        for s in [symbol, orientable_double_cover(symbol)] if cls is Orientability.N2 else [symbol]:
            yield pi1(s)
            yield orbifold_pi1(s)


def test_templates_pass_the_presentation_checks():
    # pi1 and orbifold_pi1 skip the checks: each must pass them when rebuilt
    for pres in seeded_presentations():
        assert Presentation(pres.generators, pres.relators) == pres


def test_abelianize_is_the_syllable_recount():
    # gen 2 first and gen 0 twice: the sums still list generators ascending
    by_hand = Presentation(("a", "b", "c"), (((2, 1), (0, -1), (2, 2), (1, 3), (0, 1)),))
    assert abelianize(by_hand) == [[0, 3, 3]]
    for pres in [by_hand, *seeded_presentations()]:
        recount = []
        for rel in pres.relators:
            row = [0] * len(pres.generators)
            for gen, exp in rel:
                row[gen] += exp
            recount.append(row)
        assert abelianize(pres) == recount
        # each row's nonzero sums, in column order
        assert [[(j, v) for j, v in enumerate(row) if v] for row in abelianize(pres)] == [
            [(j, v) for j, v in enumerate(row) if v] for row in recount]


# -- template shape properties ---------------------------------------------

@given(seifert_symbols(classes=(Orientability.O1,)))
def test_orientable_template_counts(s):
    pres = pi1_orientable(s)
    g, n = s.genus, len(s.pairs)
    assert len(pres.generators) == 2 * g + n + 1
    surface = 0 if g == 0 and n == 0 else 1
    assert len(pres.relators) == 2 * g + 2 * n + surface


@given(seifert_symbols(classes=(Orientability.N2,)))
def test_crosscap_template_counts(s):
    pres = pi1_nonorientable(s)
    g, n = s.genus - 1, len(s.pairs)
    handles, odd = g // 2, g % 2
    assert len(pres.generators) == 2 * handles + 1 + odd + n + 1
    assert len(pres.relators) == 2 * handles + n + 1 + odd + n + 1


@given(seifert_symbols(classes=(Orientability.N2,)))
def test_cover_presentation_shape(s):
    pres = pi1_orientable(orientable_double_cover(s))
    assert len(pres.generators) == 2 * (s.genus - 1) + 2 * len(s.pairs) + 1


@given(seifert_symbols())
def test_orbifold_is_fiber_quotient(s):
    """Deleting every t syllable from pi1 leaves exactly the orbifold relators."""
    if s.orientability is Orientability.N2:
        pres = pi1_nonorientable(s)
    else:
        pres = pi1_orientable(s)
    orb = orbifold_pi1(s)
    assert orb.generators == pres.generators[:-1]
    t = len(pres.generators) - 1
    collapsed = []
    for rel in pres.relators:
        reduced = word(*[(gen, exp) for gen, exp in rel if gen != t])
        if reduced:
            collapsed.append(reduced)
    assert collapsed == list(orb.relators)
