"""Hypothesis strategies for random symbols and valid actions."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import hypothesis.strategies as st

import specbuild
from seifert import Orientability, SeifertPair, SeifertSymbol, cyclic_group

BOTH_CLASSES = (Orientability.O1, Orientability.N2)


@st.composite
def seifert_pairs(draw, max_q: int = 12, max_p: int = 30):
    q = draw(st.integers(min_value=1, max_value=max_q))
    p = draw(st.sampled_from(
        [v for v in range(-max_p, max_p + 1) if gcd(q, v) == 1]))
    return SeifertPair(q, p)


@st.composite
def seifert_symbols(draw, max_pairs: int = 6, max_q: int = 12,
                    max_p: int = 30, classes=BOTH_CLASSES):
    cls = draw(st.sampled_from(list(classes)))
    lowest = 1 if cls is Orientability.N2 else 0
    genus = draw(st.integers(min_value=lowest, max_value=3))
    pairs = draw(st.lists(seifert_pairs(max_q=max_q, max_p=max_p),
                          max_size=max_pairs))
    return SeifertSymbol(genus, cls, tuple(pairs))


@st.composite
def valid_specs(draw, max_pairs: int = 6):
    """A valid action of Z_m on a random symbol.

    beta is the powers of one permutation that moves indices only among
    equal pairs (law (e)), alpha the powers of one sign, and the
    rotations a coboundary (:func:`specbuild.coboundary_action`), so the
    laws hold whatever the drawn values are.
    """
    symbol = draw(seifert_symbols(max_pairs=max_pairs, max_q=4, max_p=9))
    pairs, n = symbol.pairs, len(symbol.pairs)
    perm = list(range(n))
    for pair in sorted(set(pairs)):
        indices = [i for i, other in enumerate(pairs) if other == pair]
        for i, j in zip(indices, draw(st.permutations(indices))):
            perm[i] = j
    powers = [tuple(range(n))]
    while (step := tuple(powers[-1][j] for j in perm)) != powers[0]:
        powers.append(step)
    m = len(powers) * draw(st.integers(min_value=1, max_value=3))
    sign = draw(st.sampled_from((1, -1))) if m % 2 == 0 else 1
    twelfths = st.integers(min_value=0, max_value=11).map(lambda k: Fraction(k, 12))
    return specbuild.coboundary_action(
        str(symbol), cyclic_group(m), [sign ** k for k in range(m)],
        [powers[k % len(powers)] for k in range(m)], draw(twelfths),
        [draw(twelfths) for _ in range(n)])
