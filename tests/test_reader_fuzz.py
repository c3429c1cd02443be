"""Bounded fuzz of the text readers.

Text is joined from pieces of each grammar, stray characters and digits
of other scripts.  A reader either returns or raises ValueError, and the
command line ends every input with exit code 0, 1 or 2.  Sizes stay
small on purpose: ``cyclic:N`` builds an N^2 table and a symbol's genus
sets the generator count of pi1, so the limits on those belong to the
readers, not to this test.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from seifert import (group_from_constructor, parse_action_spec_text, parse_fraction_text,
                     parse_group_text, parse_symbol)
from seifert.cli import main

FUZZ = settings(max_examples=200, deadline=None)

NOISE = ("0", "1", "7", "-", "+", " ", "\t", "_", "x", "/", "(", ")", ",",
         "\u0663", "\u00b2", "\u00a0")


def soup(*pieces):
    return st.lists(st.sampled_from(pieces + NOISE), max_size=24).map("".join)


SYMBOLS = soup("(", ")", ",", "|", "o1", "n2", "12", "-3", "(0,o1|", "(2,1)")
CONSTRUCTORS = soup("product:", "cyclic:", "cyclic:2", ",", "4")
FRACTIONS = st.from_regex(r"[ +-]{0,2}[0-9\u0663_x]{0,3}(/[0-9\u00b2]{0,2})?[ /]?", fullmatch=True)
GROUP_FILES = soup("\n", "0 1", "1 0", "2\n", "3")
MATRICES = soup(",", ";", "-1", "4")


def digit_runs(text):
    return [int(run) for run in re.findall(r"[0-9]+", text)]


def reads_or_rejects(reader, text):
    try:
        reader(text)
    except ValueError:
        pass


def exit_code(*argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


@FUZZ
@given(SYMBOLS)
def test_symbol_reader(text):
    reads_or_rejects(parse_symbol, text)


@FUZZ
@given(CONSTRUCTORS)
def test_constructor_reader(text):
    assume(prod(digit_runs(text)) <= 64)
    reads_or_rejects(group_from_constructor, text)


@FUZZ
@given(FRACTIONS)
def test_fraction_reader(text):
    reads_or_rejects(parse_fraction_text, text)


# JSON values that equal as numbers but differ in type ride along
ROTATIONS = st.lists(st.one_of(FRACTIONS, st.sampled_from([0, 1, -1, True, False, 1.0])),
                     min_size=1, max_size=8)


@FUZZ
@given(ROTATIONS)
def test_document_rotations_read_as_their_texts(texts):
    # the document reader reads each distinct text once; that must give
    # the table, or the first error, that reading every entry gives
    doc = json.dumps({"symbol": "(0,o1|(2,1))", "group": f"cyclic:{len(texts)}",
                      "theta1": texts, "alpha": [1] * len(texts),
                      "beta": [[1]] * len(texts), "theta2": [texts]})
    try:
        want = tuple(parse_fraction_text(t) % 1 for t in texts)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            parse_action_spec_text(doc)
        return
    spec = parse_action_spec_text(doc)
    assert spec.theta1 == want
    assert tuple(row[0] for row in spec.theta2) == want


@FUZZ
@given(GROUP_FILES)
def test_group_file_reader(text):
    reads_or_rejects(parse_group_text, text)


@FUZZ
@given(SYMBOLS)
def test_h1_command(text):
    assume(max(digit_runs(text), default=0) < 100)
    assert exit_code("h1", text) in (0, 1, 2)


@FUZZ
@given(MATRICES)
def test_snf_command(text):
    assert exit_code("snf", text) in (0, 1, 2)


@FUZZ
@given(FRACTIONS, MATRICES)
def test_obstruction_command(b, orbits):
    assert exit_code("obstruction", "-b", b, "--orbits", orbits) in (0, 1, 2)
