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
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import specbuild
from seifert import (ExtendedProductActionSpec, FiniteGroup, ProjectedActionDescriptor,
                     format_action_spec, format_descriptor, group_from_constructor,
                     parse_action_spec_text, parse_descriptor_text, parse_fraction_text,
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


# per document type: reader, symbol texts, table fields in order with kinds
DOCUMENTS = {
    ExtendedProductActionSpec: (parse_action_spec_text,
                                ("(0,o1|)", "(0,o1|(2,1),(2,1))", "(1,n2|(2,1),(3,1),(2,1))",
                                 "(0,o1|(2,1),(2,1),(2,1),(2,1))"),
                                (("theta1", "rotation"), ("alpha", "sign"), ("beta", "permutation"),
                                 ("theta2", "rotation rows"))),
    ProjectedActionDescriptor: (parse_descriptor_text,
                                ("(1,n2|)", "(1,n2|(2,1),(2,1))", "(2,n2|(3,1),(3,1),(3,1))",
                                 "(0,o1|(3,1))"),
                                (("epsilon", "sign"), ("beta_bar", "permutation"),
                                 ("theta2_bar", "rotation rows"))),
}
ROTATION_TEXTS = st.sampled_from(["0", "1/2", "-1/3", " 2/3", "+5/6", "7/3", 0, 1, -2])
JUNK = st.sampled_from([True, 1.0, -1.0, False, 0, 2, "1", "1/0", "0.5", None, []])
GROUPS = st.sampled_from(["cyclic:1", "cyclic:2", "cyclic:3", "product:cyclic:2,cyclic:2",
                          {"order": 2, "table": [[0, 1], [1, 0]]},
                          {"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1],
                                                 [3, 2, 1, 0]]}])


# group objects that mix the two forms, or carry a key of neither
MIXED_GROUPS = st.sampled_from([{"order": 2, "table": [[0, 1], [1, 0]], "name": "z2"},
                                {"file": "z2.txt", "order": 2, "table": [[0, 1], [1, 0]]},
                                {"file": "z2.txt", "table": [[0, 1], [1, 0]]},
                                {"table": [[0, 1], [1, 0]]}, {}])


def edit_tables(draw, doc: dict, fields):
    """Up to two edits of a table of doc or of one of its rows: an int
    entry replaced by the bool or float equal to it, an entry replaced by
    junk, or the list shortened or lengthened; or the group replaced by an
    object that mixes its forms."""
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        if draw(st.integers(0, 9)) == 0:
            doc["group"] = draw(MIXED_GROUPS)
            continue
        # the tables and their rows that are still lists
        lists = [t for name, _ in fields for t in [doc[name], *doc[name]] if isinstance(t, list)]
        ints = [(t, k) for t in lists for k, v in enumerate(t) if type(v) is int]
        edit = draw(st.sampled_from(["twin", "twin", "junk", "pop", "append"]))
        if edit == "twin" and ints:
            # the bool or float equal to an int entry
            target, k = draw(st.sampled_from(ints))
            target[k] = True if target[k] == 1 else float(target[k])
            continue
        target = draw(st.sampled_from(lists))
        if edit != "append" and target:
            if edit == "pop":
                target.pop()
            else:
                target[draw(st.integers(0, len(target) - 1))] = draw(JUNK)
        else:
            target.append(draw(st.one_of(JUNK, ROTATION_TEXTS)))


@st.composite
def documents(draw):
    """(type, document text): well-shaped tables, then :func:`edit_tables`."""
    cls = draw(st.sampled_from(list(DOCUMENTS)))
    _, symbols, fields = DOCUMENTS[cls]
    symbol = draw(st.sampled_from(symbols))
    group = draw(GROUPS)
    order = group["order"] if isinstance(group, dict) else group_from_constructor(group).order
    n = len(parse_symbol(symbol).pairs)
    doc = {"symbol": symbol, "group": group}
    for name, kind in fields:
        if kind == "sign":
            doc[name] = draw(st.lists(st.sampled_from([1, -1]), min_size=order, max_size=order))
        elif kind == "permutation":
            doc[name] = [list(draw(st.permutations(range(1, n + 1)))) for _ in range(order)]
        elif kind == "rotation":
            doc[name] = draw(st.lists(ROTATION_TEXTS, min_size=order, max_size=order))
        else:
            doc[name] = [draw(st.lists(ROTATION_TEXTS, min_size=order, max_size=order))
                         for _ in range(n)]
    edit_tables(draw, doc, fields)
    return cls, json.dumps(doc)


# documents of valid actions and descriptors, as the writer writes them
VALID = ([(ExtendedProductActionSpec, format_action_spec(spec)) for spec in (
             specbuild.z2_swap_spec(), specbuild.z4_swap_spec(), specbuild.z2z3_block_spec(),
             specbuild.z3_rotation_spec(), specbuild.mixed_crossing_spec(),
             specbuild.reflection_spec(), specbuild.d16_spec())]
         + [(ProjectedActionDescriptor, format_descriptor(d)) for d in (
             specbuild.z2_lens_descriptor(), specbuild.z2z3_descriptor())])


@st.composite
def edited_valid_documents(draw):
    """(type, document text): a valid document, then :func:`edit_tables`."""
    cls, text = draw(st.sampled_from(VALID))
    doc = json.loads(text)
    edit_tables(draw, doc, DOCUMENTS[cls][2])
    return cls, json.dumps(doc)


@FUZZ
@given(st.one_of(documents(), edited_valid_documents()))
def test_read_documents_pass_the_checked_constructor(case):
    # the reader checks everything the constructor checks and does not run
    # the constructor's check: whatever it accepts must rebuild through the
    # checked constructor, group included, to an equal object; the integer
    # view the reader builds it with must be the one the rebuilt object
    # computes from its Fractions
    cls, text = case
    try:
        read = DOCUMENTS[cls][0](text)
    except ValueError:
        return
    group = json.loads(text)["group"]
    assert isinstance(group, str) or group.keys() in ({"file"}, {"order", "table"})
    values = [getattr(read, name) for name in cls._fields]
    values[1] = FiniteGroup(values[1].table)
    fresh = cls(*values)
    assert fresh == read
    assert "_int_view" in read.__dict__ and "_int_view" not in fresh.__dict__
    assert fresh._int_view == read._int_view


# every command that reads a document, with the arguments it needs
DOCUMENT_COMMANDS = (("validate-action",), ("induced-torus", "-i", "1", "-g", "1"),
                     ("check-tau",), ("project",), ("lift",), ("obstruction",), ("orbits",),
                     ("analyze-group",))


@FUZZ
@given(st.one_of(documents(), edited_valid_documents()))
def test_document_commands_end_in_an_exit_code(case):
    # every document the strategies write ends each command in exit code
    # 0, 1 or 2 and never raises
    _, text = case
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "doc.json")
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
        for command, *options in DOCUMENT_COMMANDS:
            assert exit_code(command, path, *options) in (0, 1, 2)


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
