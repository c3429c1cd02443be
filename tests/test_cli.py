"""End-to-end command tests driving main() in process."""

import argparse
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from seifert import ExtendedProductActionSpec
from seifert import format_action_spec, format_descriptor, parse_symbol
import seifert.cli
import seifert.groups
from seifert.cli import main
import specbuild
from specbuild import ZERO


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- symbol commands -------------------------------------------------------

def test_normalize(capsys):
    assert run(capsys, "normalize", "(0,o1|(3,4))") == (
        0, "(0,o1|(3,1),(1,1))\n", "")
    assert run(capsys, "normalize", "--porcelain", "(0,o1|(3,4))") == (
        0, "symbol=(0,o1|(3,1),(1,1))\nobstruction=1\n", "")


def test_sum(capsys):
    assert run(capsys, "sum", "(0,o1|(2,1),(3,2))") == (0, "7/6\n", "")
    assert run(capsys, "sum", "--porcelain", "(0,o1|)") == (0, "sum=0\n", "")


def test_equiv(capsys):
    assert run(capsys, "equiv", "(0,o1|(3,4))", "(0,o1|(3,1),(1,1))") == (
        0, "equivalent\n", "")
    code, out, err = run(capsys, "equiv", "(0,o1|(3,1))", "(0,o1|(3,2))")
    assert (code, out) == (1, "not equivalent\n")
    code, out, err = run(capsys, "equiv", "--porcelain",
                         "(0,o1|(3,1))", "(0,o1|(3,2))")
    assert (code, out) == (1, "equivalent=false\n")
    assert run(capsys, "equiv", "--porcelain", "(0,o1|(3,4))", "(0,o1|(3,1),(1,1))") == (
        0, "equivalent=true\n", "")


def test_cover_and_quotient(capsys):
    assert run(capsys, "cover", "(1,n2|(2,1))") == (0, "(0,o1|(2,1),(2,1))\n", "")
    assert run(capsys, "cover", "--porcelain", "(1,n2|(2,1))") == (
        0, "symbol=(0,o1|(2,1),(2,1))\n", "")
    assert run(capsys, "quotient", "(0,o1|(2,1),(2,1))") == (0, "(1,n2|(2,1))\n", "")
    code, out, err = run(capsys, "quotient", "(0,o1|(2,1),(3,1))")
    assert (code, out) == (1, "no quotient\n")
    code, out, err = run(capsys, "quotient", "--porcelain", "(0,o1|(2,1),(3,1))")
    assert (code, out) == (1, "exists=false\n")
    code, out, err = run(capsys, "quotient", "--porcelain", "(1,o1|)")
    assert (code, out) == (0, "exists=true\nsymbol=(2,n2|)\n")


def test_cover_output_feeds_the_action_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "cover", "(1,n2|(2,1),(3,1))")
    assert (code, out) == (0, "(0,o1|(2,1),(3,1),(2,1),(3,1))\n")
    spec_path = tmp_path / "trivial.json"
    spec_path.write_text(format_action_spec(
        specbuild.trivial_spec(out.strip(), specbuild.cyclic_group(1))), encoding="utf-8")
    assert run(capsys, "check-tau", str(spec_path)) == (0, "commutes\n", "")
    descr_path, lifted_path = tmp_path / "descr.json", tmp_path / "lifted.json"
    assert run(capsys, "project", str(spec_path), "-o", str(descr_path))[0] == 0
    assert json.loads(descr_path.read_text(encoding="utf-8"))["symbol"] == "(1,n2|(2,1),(3,1))"
    assert run(capsys, "lift", str(descr_path), "-o", str(lifted_path))[0] == 0
    assert lifted_path.read_text(encoding="utf-8") == spec_path.read_text(encoding="utf-8")


def test_pi1_output(capsys):
    assert run(capsys, "pi1", "(1,n2|(2,1))") == (
        0,
        "x c1 t\n"
        "c1*t*c1^-1*t^-1\n"
        "x*t*x^-1*t\n"
        "c1^2*t\n"
        "c1*x^-2\n",
        "")
    assert run(capsys, "pi1", "--porcelain", "(1,n2|)") == (
        0,
        "generators=x,t\n"
        "relator=x*t*x^-1*t\n"
        "relator=x^-2\n",
        "")


def test_orbifold_pi1_output(capsys):
    assert run(capsys, "orbifold-pi1", "(1,n2|(2,1))") == (
        0, "x c1\nc1^2\nc1*x^-2\n", "")
    assert run(capsys, "orbifold-pi1", "--porcelain", "(1,n2|(2,1))") == (
        0, "generators=x,c1\nrelator=c1^2\nrelator=c1*x^-2\n", "")


def test_h1_output(capsys):
    assert run(capsys, "h1", "(1,n2|(2,1))") == (0, "Z/8\n", "")
    assert run(capsys, "h1", "--porcelain", "(1,n2|(2,1))") == (
        0, "free_rank=0\ntorsion=8\n", "")
    assert run(capsys, "h1", "(0,o1|)") == (0, "Z\n", "")
    # 4301 digits: past the interpreter's limit for int(), whose own message names no offset
    assert run(capsys, "h1", f"(0,o1|(2,{'1' * 4301}))") == (
        2, "", "error: syntax error at position 9: integer has too many digits\n")


def test_snf_output(capsys):
    assert run(capsys, "snf", "2,0;0,3") == (0, "1,6\n", "")
    assert run(capsys, "snf", "--porcelain", "2,4;4,8") == (0, "invariants=2,0\n", "")
    for bad in ("2,x", "-1,x", "1_0", " 3,+4", "2,0;0, 3", "\u0663,1"):
        code, out, err = run(capsys, "snf", bad)
        assert code == 2
        assert "bad matrix row" in err
    # a word "-" then not "-" is a matrix, not an unknown option
    assert run(capsys, "snf", "-\u0663,1") == (
        2, "", "error: bad matrix row '-\u0663,1'; use comma-separated integers, rows split by ';'\n")
    # the last row has 4301 digits, past the interpreter's limit for int()
    for bad, row in (("", ""), (";", ""), (f"2,0;0,{'1' * 4301}", f"0,{'1' * 4301}")):
        assert run(capsys, "snf", bad) == (
            2, "", f"error: bad matrix row {row!r}; use comma-separated integers, rows split by ';'\n")


# two coprime orders of 3001 digits, whose H1 order, sum and Smith form
# have more digits than the interpreter's limit for str() of an int
Q1, Q2 = 10 ** 3000 + 1, 10 ** 3000 + 3
LONG_PAIRS = f"(0,o1|({Q1},1),({Q2},1),(1,1))"
ORDER = str(Decimal(Q1 * Q2 + Q1 + Q2))   # Decimal prints past the limit
PRODUCT = str(Decimal(Q1 * Q2))


@pytest.mark.parametrize("argv, plain, porcelain", [
    (["h1", LONG_PAIRS], f"Z/{ORDER}", f"free_rank=0\ntorsion={ORDER}"),
    (["sum", LONG_PAIRS], f"{ORDER}/{PRODUCT}", f"sum={ORDER}/{PRODUCT}"),
    (["snf", f"{Q1},0;0,{Q2}"], f"1,{PRODUCT}", f"invariants=1,{PRODUCT}"),
], ids=["h1", "sum", "snf"])
def test_results_past_the_digit_limit(capsys, argv, plain, porcelain):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, *argv) == (0, plain + "\n", "")
    assert run(capsys, *argv, "--porcelain") == (0, porcelain + "\n", "")
    # lifted for the printing alone: the readers keep the limit
    assert sys.get_int_max_str_digits() == limit

@pytest.mark.parametrize("argv", [
    ["-1,2;3,4"],
    ["--", "-1,2;3,4"],
    ["-1,2;3,4", "--porcelain"],
    ["--porcelain", "-1,2;3,4"],
    ["--porcelain", "--", "-1,2;3,4"],
])
def test_snf_matrix_starting_with_minus(capsys, argv):
    code, out, err = run(capsys, "snf", *argv)
    assert (code, err) == (0, "")
    assert out == ("invariants=1,10\n" if "--porcelain" in argv else "1,10\n")


# -- action-spec commands --------------------------------------------------

def test_validate_action(capsys, docs):
    assert run(capsys, "validate-action", docs["z4"]) == (0, "valid\n", "")
    assert run(capsys, "validate-action", "--porcelain", docs["z4"]) == (
        0, "valid=true\n", "")

    code, out, err = run(capsys, "validate-action", docs["broken"])
    assert (code, out) == (1, "")
    assert "valid check failed: law theta1, witness 1,1" in err
    assert "law gives 2/3" in err

    code, out, err = run(capsys, "validate-action", "--porcelain", docs["broken"])
    assert code == 1
    assert out.splitlines()[:3] == ["valid=false", "law=theta1", "witness=1,1"]
    assert out.splitlines()[3].startswith("message=")
    assert run(capsys, "validate-action", "--porcelain", docs["broken"]) == (
        1, "valid=false\nlaw=theta1\nwitness=1,1\n"
           "message=theta1(2) = 1/2, law gives 2/3\n", "")
    assert run(capsys, "validate-action", docs["broken"]) == (
        1, "", "valid check failed: law theta1, witness 1,1: theta1(2) = 1/2, law gives 2/3\n")


def test_induced_torus(capsys, docs, tmp_path):
    assert run(capsys, "induced-torus", docs["z4"], "-i", "1", "-g", "1") == (
        0, "longitude=3/4\nmeridian=1/4\nsign=1\n", "")
    assert run(capsys, "induced-torus", docs["z4"], "-i", "1", "-g", "1",
               "--det") == (
        0, "longitude=3/4\nmeridian=1/4\nsign=1\ngluing=0,1;-1,3\n", "")
    # with no pairs the range once read 1..0
    bare = tmp_path / "bare.json"
    bare_spec = specbuild.trivial_spec("(0,o1|)", specbuild.cyclic_group(2))
    bare.write_text(format_action_spec(bare_spec), encoding="utf-8")
    for doc, message in ((docs["z4"], "boundary index must be in 1..2"),
                         (str(bare), "error: symbol (0,o1|) has no boundary pairs\n")):
        code, out, err = run(capsys, "induced-torus", doc, "-i", "3", "-g", "0")
        assert code == 2
        assert message in err
    code, out, err = run(capsys, "induced-torus", docs["z4"], "-i", "1", "-g", "9")
    assert code == 2
    assert "group element must be in 0..3" in err
    # 4301 digits: past the interpreter's limit for int()
    huge = "1" * 4301
    for index, element, name in (("+1", "1", "-i/--index"), ("1", "1_0", "-g/--element"),
                                 (huge, "1", "-i/--index"), ("1", huge, "-g/--element")):
        code, out, err = run(capsys, "induced-torus", docs["z4"], "-i", index, "-g", element)
        assert (code, out) == (2, "")
        assert f"argument {name}: invalid int value:" in err
    # key=value lines with or without --porcelain
    assert run(capsys, "induced-torus", "--porcelain", docs["z4"], "-i", "1", "-g", "1",
               "--det") == (
        0, "longitude=3/4\nmeridian=1/4\nsign=1\ngluing=0,1;-1,3\n", "")


def test_check_tau(capsys, docs):
    assert run(capsys, "check-tau", docs["swap"]) == (0, "commutes\n", "")
    code, out, err = run(capsys, "check-tau", docs["thirds"])
    assert (code, out) == (1, "")
    assert "commutes check failed: condition half-rotation, witness 1" in err
    assert err == ("commutes check failed: condition half-rotation, witness 1: "
                   "theta1(1) = 1/3 is not 0 or 1/2\n")
    assert run(capsys, "check-tau", "--porcelain", docs["swap"]) == (0, "commutes=true\n", "")
    code, out, err = run(capsys, "check-tau", "--porcelain", docs["thirds"])
    assert code == 1
    assert out.splitlines()[:3] == [
        "commutes=false", "condition=half-rotation", "witness=1"]


def test_project(capsys, docs, tmp_path):
    expected = format_descriptor(specbuild.z2_lens_descriptor())
    assert run(capsys, "project", docs["swap"]) == (0, expected, "")

    out_path = tmp_path / "descr.json"
    code, out, err = run(capsys, "project", docs["swap"], "-o", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text(encoding="utf-8") == expected

    code, out, err = run(capsys, "project", docs["thirds"])
    assert code == 1
    assert "commutes check failed" in err

    code, out, err = run(capsys, "project", "--porcelain", docs["mixed"])
    assert code == 1
    assert out.splitlines()[:3] == [
        "projectable=false", "law=theta2_bar", "witness=1,1,0"]
    assert run(capsys, "project", "--porcelain", docs["mixed"]) == (
        1, "projectable=false\nlaw=theta2_bar\nwitness=1,1,0\n"
           "message=theta2_bar(0,0) = 0, law gives 2/3\n", "")
    assert run(capsys, "project", docs["mixed"]) == (
        1, "", "projectable check failed: law theta2_bar, witness 1,1,0: "
               "theta2_bar(0,0) = 0, law gives 2/3\n")
    # a written document is the same under --porcelain
    assert run(capsys, "project", "--porcelain", docs["swap"]) == (0, expected, "")


def test_lift(capsys, docs, tmp_path):
    expected = format_action_spec(specbuild.z2_swap_spec())
    assert run(capsys, "lift", docs["lens"]) == (0, expected, "")

    out_path = tmp_path / "spec.json"
    code, out, err = run(capsys, "lift", docs["lens"], "-o", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text(encoding="utf-8") == expected

    code, out, err = run(capsys, "lift", docs["broken_descr"])
    assert (code, out) == (1, "")
    assert "valid check failed: law epsilon, witness 1,1" in err
    assert run(capsys, "lift", "--porcelain", docs["lens"]) == (0, expected, "")


def test_obstruction(capsys, docs):
    assert run(capsys, "obstruction", "-b", "1", "--orbits", "2,3") == (
        0, "solvable: -1,1\n", "")
    code, out, err = run(capsys, "obstruction", "-b", "3", "--orbits", "4,6")
    assert (code, out) == (1, "not solvable\n")
    assert run(capsys, "obstruction", "--porcelain", "-b", "3", "--orbits", "4,6") == (
        1, "b=3\norbits=4,6\nsolvable=false\n", "")
    assert run(capsys, "obstruction", "--porcelain", "-b", "1", "--orbits",
               "2,3") == (
        0, "b=1\norbits=2,3\nsolvable=true\nwitness=-1,1\n", "")

    # orbit numbers read from a spec file; b defaults to the symbol's class
    assert run(capsys, "obstruction", docs["z4"], "-b", "4") == (
        0, "solvable: 2\n", "")
    assert run(capsys, "obstruction", "--porcelain", docs["z4"]) == (
        0, "b=0\norbits=2\nsolvable=true\nwitness=0\n", "")
    assert run(capsys, "obstruction", docs["z4"], "-b", "4",
               "--orbits-extra", "5") == (
        0, "solvable: -8,4\n", "")

    code, out, err = run(capsys, "obstruction", "-b", "1")
    assert code == 2
    assert "both -b and --orbits are required" in err

    # integers are an optional '-' and ASCII digits; int() would take the first four,
    # and refuses the last, 4301 digits, past its limit
    for bad in ("1_0", "+1", " 1", "\u0661", "1" * 4301):
        code, out, err = run(capsys, "obstruction", "-b", bad, "--orbits", "2,3")
        assert (code, out) == (2, "")
        assert f"argument -b: invalid int value: {bad!r}" in err
    for option in ("--orbits", "--orbits-extra"):
        for bad in ("2,+3", "2, 3", "1_0", "2,\u0663", "2," + "1" * 4301):
            argv = ["-b", "1", "--orbits", "2"] if option == "--orbits-extra" else ["-b", "1"]
            assert run(capsys, "obstruction", *argv, option, bad) == (
                2, "", f"error: bad integer list {bad!r}\n")


def test_obstruction_of_spec_without_pairs(capsys, tmp_path):
    # no boundary pairs, so no orbits: b = 0 is solvable, b = 1 is not
    spec = ExtendedProductActionSpec(parse_symbol("(0,o1|)"), specbuild.cyclic_group(2),
                                     (ZERO, Fraction(1, 2)), (1, 1), ((), ()), ((), ()))
    path = tmp_path / "pairless.json"
    path.write_text(format_action_spec(spec), encoding="utf-8")
    assert run(capsys, "orbits", str(path)) == (0, "\n", "")
    # the plain line names the empty witness rather than ending in a space
    assert run(capsys, "obstruction", str(path)) == (0, "solvable: empty witness\n", "")
    assert run(capsys, "obstruction", "--porcelain", str(path)) == (
        0, "b=0\norbits=\nsolvable=true\nwitness=\n", "")
    assert run(capsys, "obstruction", str(path), "-b", "1") == (1, "not solvable\n", "")


def test_obstruction_rejects_orbits_with_spec(capsys, docs):
    # the spec gives the orbits; --orbits beside it was once ignored
    for extra in ([], ["--porcelain"], ["-b", "4"]):
        code, out, err = run(capsys, "obstruction", docs["swap"], "--orbits", "5,7", *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: --orbits cannot be used with a spec file")


def test_orbits(capsys, docs):
    assert run(capsys, "orbits", docs["z4"]) == (0, "2\n", "")
    assert run(capsys, "orbits", "--porcelain", docs["blocks"]) == (
        0, "orbits=3,3\n", "")
    assert run(capsys, "orbits", docs["blocks"]) == (0, "3,3\n", "")
    assert run(capsys, "orbits", "--porcelain", docs["z4"]) == (0, "orbits=2\n", "")


def test_analyze_group(capsys, docs):
    assert run(capsys, "analyze-group", docs["blocks"]) == (
        0,
        "route=covering-translation\n"
        "rotation_order=2\n"
        "alpha_image_order=1\n"
        "shadow_order=3\n"
        "factors=Z2 x H\n"
        "embedding_ok=true\n",
        "")
    assert run(capsys, "analyze-group", docs["z4"])[1].startswith(
        "route=fiber-rotation\nrotation_order=4\n")
    # key=value lines with or without --porcelain
    assert run(capsys, "analyze-group", "--porcelain", docs["z4"]) == (
        0,
        "route=fiber-rotation\n"
        "rotation_order=4\n"
        "alpha_image_order=1\n"
        "shadow_order=2\n"
        "factors=Z4 x H\n"
        "embedding_ok=true\n",
        "")


# -- error handling and determinism ----------------------------------------

def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "equiv", "(0,o1|)")[0] == 2


def test_parser_is_built_once(capsys, monkeypatch, docs):
    # one parser per command and process: the parser of the command named
    # first, or the full parser for anything else; a repeat builds nothing
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    seifert.cli._build_parser.cache_clear()
    first = run(capsys, "no-such-command")
    assert first[0] == 2 and first[2]
    assert built == [None, "seifert"] + [f"seifert {name}" for name in seifert.cli._COMMANDS]
    del built[:]
    assert run(capsys, "h1", "(1,n2|(2,1))")[0] == 0
    assert run(capsys, "validate-action", docs["z4"])[0] == 0
    assert built == [None, "seifert", "seifert h1", None, "seifert", "seifert validate-action"]
    del built[:]
    assert run(capsys, "no-such-command") == first
    assert run(capsys, "validate-action", docs["z4"])[0] == 0
    assert run(capsys, "h1", "(1,n2|(2,1))")[0] == 0
    assert built == []


def parse_with(capsys, parser, argv):
    """(exit code, stdout, stderr, namespace) of one parse_args call."""
    try:
        namespace, code = parser.parse_args(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


# argument lists beyond help, missing arguments, an unknown flag and extra words
OPTION_CASES = {
    "snf": [["-1,2;3,4"], ["--", "-1,2;3,4"], ["-1,x"], ["--porcelain", "-2"]],
    "obstruction": [["-b", "3", "--orbits", "2,4", "--orbits-extra", "-3"]],
    "induced-torus": [["spec.json", "-i", "1", "-g", "-1", "--det"]],
    "project": [["spec.json", "-o", "out.json"]],
    "lift": [["-o"]],
}


@pytest.mark.parametrize("name", list(seifert.cli._COMMANDS))
def test_one_command_parser_reads_as_the_full_parser(capsys, name):
    full, alone = seifert.cli._build_parser(), seifert.cli._build_parser(name)
    for rest in [["--help"], [], ["--no-such-flag", "x"], ["a", "b", "c", "d"],
                 *OPTION_CASES.get(name, [])]:
        argv = [name, *rest]
        assert parse_with(capsys, alone, argv) == parse_with(capsys, full, argv), argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["no-such-command"], ["--porcelain", "h1", "(1,n2|(2,1))"],
    ["H1", "(1,n2|(2,1))"],
])
def test_calls_naming_no_command_first_use_the_full_parser(capsys, argv):
    code, out, err, _ = parse_with(capsys, seifert.cli._build_parser(), argv)
    assert run(capsys, *argv) == (code, out, err)
    assert code == (0 if argv in (["-h"], ["--help"]) else 2)


def test_value_errors_exit_two(capsys):
    code, out, err = run(capsys, "normalize", "(0,o1|(2,4))")
    assert code == 2
    assert err.startswith("error: ")
    code, out, err = run(capsys, "normalize", "(0,o1")
    assert code == 2
    assert "syntax error at position" in err
    # a genus past the limit would ask for memory linear in it
    for command in ("pi1", "orbifold-pi1", "h1"):
        assert run(capsys, command, "(100000000,o1|)") == (
            2, "", "error: genus 100000000 is over the limit of 10000\n")


LONG = "1" * 4301   # past the interpreter's limit for int()


def _set_table_entry(doc, value):
    doc["group"] = {"order": 4, "table": [[(g + h) % 4 for h in range(4)] for g in range(4)]}
    doc["group"]["table"][1][2] = value


@pytest.mark.parametrize("edit, fragment", [
    (lambda doc: doc.update(symbol=5), "symbol must be a string"),
    (lambda doc: doc.update(group={"file": 5}), "group file must be a string"),
    (lambda doc: _set_table_entry(doc, 3.7), "table entry 3.7 is not an integer in [0, 4)"),
    (lambda doc: doc.update(group={"order": 4, "table": [[0, 1, 2, 3], None, [2, 3, 0, 1],
                                                         [3, 0, 1, 2]]}),
     "group table row None"),
    (lambda doc: doc["beta"][0].__setitem__(0, True), "entries are 1-based indices"),
    (lambda doc: doc.update(group={"order": "4", "table": doc["group"]["table"]}),
     "group order must be an integer, got '4'"),
    (lambda doc: doc["alpha"].__setitem__(1, 1.0), "alpha entries must be 1 or -1"),
    (lambda doc: doc["group"].update(table="0 1 2 3"), "group table must be a list of rows"),
    (lambda doc: doc["group"].update(order=3), "group table has 4 rows, order says 3"),
    (lambda doc: doc.update(group="cyclic:0"), "cyclic group order must be >= 1"),
    (lambda doc: doc.update(group="product:cyclic:2,cyclic:0"), "cyclic group order must be >= 1"),
    # integers past the interpreter's limit for int(); an edit that returns
    # text writes it in place of the document
    (lambda doc: doc.update(group="cyclic:" + LONG), "cyclic: order has too many digits"),
    (lambda doc: doc.update(group={"file": "long-order.txt"}),
     "group file: order has too many digits"),
    (lambda doc: doc.update(group={"file": "long-entry.txt"}),
     "group file: a table entry has too many digits"),
    (lambda doc: json.dumps(doc).replace('"table": [[0', '"table": [[' + LONG),
     "malformed document: a number has too many digits"),
    (lambda doc: json.dumps(doc).replace('"alpha": [1', '"alpha": [' + LONG),
     "malformed document: a number has too many digits"),
    (lambda doc: doc["theta1"].__setitem__(1, LONG + "/2"), "fraction has too many digits"),
], ids=["symbol-int", "group-file-int", "float-entry", "null-row", "bool-beta",
        "order-text", "float-alpha", "table-text", "order-mismatch", "cyclic-zero",
        "product-cyclic-zero", "cyclic-digits", "group-file-order-digits",
        "group-file-entry-digits", "table-entry-digits", "alpha-digits", "rotation-digits"])
def test_mistyped_document_fields_exit_two(capsys, tmp_path, edit, fragment):
    (tmp_path / "long-order.txt").write_text(f"{LONG}\n0\n", encoding="utf-8")
    (tmp_path / "long-entry.txt").write_text(f"2\n0 1\n1 {LONG}\n", encoding="utf-8")
    doc = json.loads(format_action_spec(specbuild.z4_swap_spec()))
    text = edit(doc) or json.dumps(doc)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate-action", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("theta1, message", [
    ([0, 1, True], "not a fraction: True"),
    (["0", 1, 1.0], "decimal fractions are not accepted: 1.0"),
], ids=["int-then-bool", "int-then-float"])
def test_rotations_equal_as_numbers_are_read_apart(capsys, tmp_path, theta1, message):
    # 1, True and 1.0 hash alike; each is judged by its own type
    doc = json.loads(format_action_spec(specbuild.z3_rotation_spec()))
    doc["theta1"] = theta1
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "validate-action", str(path)) == (2, "", f"error: {message}\n")


def test_deep_nesting_exits_two(capsys, tmp_path):
    # both inputs once ran out of recursion depth and escaped main
    doc = json.loads(format_action_spec(specbuild.trivial_spec("(0,o1|(2,1))",
                                                               specbuild.cyclic_group(1))))
    deep = "product:" * 1200 + "cyclic:1" + ",cyclic:1" * 1200
    path = tmp_path / "doc.json"
    for group, want in ((deep, (0, "valid\n")), (deep[:-len(",cyclic:1")], (2, ""))):
        path.write_text(json.dumps(dict(doc, group=group)), encoding="utf-8")
        code, out, err = run(capsys, "validate-action", str(path))
        assert (code, out) == want
    assert err.startswith("error: product: expects two operands")
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "validate-action", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed document:")


@pytest.mark.parametrize("group, order", [
    ("cyclic:2049", 2049), ("product:cyclic:2,cyclic:1025", 2050),
    ("product:cyclic:2048,product:cyclic:2048,cyclic:2048", 4194304),
])
def test_constructor_order_over_the_limit_exits_two(capsys, tmp_path, group, order):
    doc = json.loads(format_action_spec(specbuild.trivial_spec("(0,o1|(2,1))",
                                                               specbuild.cyclic_group(1))))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(doc, group=group)), encoding="utf-8")
    assert run(capsys, "validate-action", str(path)) == (
        2, "", f"error: group order {order} is over the limit of 2048\n")


def test_document_with_a_byte_order_mark_is_malformed(capsys, tmp_path):
    path = tmp_path / "bom.json"
    path.write_text("\ufeff" + format_action_spec(specbuild.z4_swap_spec()), encoding="utf-8")
    assert run(capsys, "validate-action", str(path)) == (
        2, "", "error: malformed document: Unexpected UTF-8 BOM (decode using utf-8-sig): "
               "line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("module", ["seifert", "seifert.cli"])
def test_runs_as_a_module(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", module, "h1", "(1,n2|(2,1))", "--porcelain"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "free_rank=0\ntorsion=8\n")


def test_missing_file_is_reported(capsys, docs):
    code, out, err = run(capsys, "validate-action", docs["root"] + "/absent.json")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command, doc", [("project", "swap"), ("lift", "lens")])
def test_output_that_cannot_be_written_exits_two(capsys, docs, tmp_path, command, doc):
    # these once ended in a traceback and exit 1, the false-verdict code
    for target, reason in ((tmp_path / "missing" / "out.json", "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = run(capsys, command, docs[doc], "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f"{reason}: {str(target)!r}\n")


CONSOLE = [sys.executable, "-c", "from seifert.cli import console; console()"]


def console_env():
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


@pytest.mark.parametrize("pairs", [1, 3000], ids=["flushed-on-exit", "written-in-main"])
def test_closed_pipe_exits_two_without_traceback(pairs):
    # no reader: a short output fails at the last flush, a long one in
    # the command's own print
    symbol = "(40,n2|" + ",".join(["(2,1)"] * pairs) + ")"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(CONSOLE + ["pi1", symbol], stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=console_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exits_two_without_traceback():
    with open("/dev/full", "w") as full:
        done = subprocess.run(CONSOLE + ["h1", "(1,n2|(2,1))"], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=console_env(), timeout=60)
    assert (done.returncode, done.stderr) == (2, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv", [["h1", "(1,n2|(2,1))"], ["project", "swap"]],
                         ids=["printed", "document"])
def test_no_stdout_writes_nothing(docs, argv):
    # started with descriptor 1 closed, sys.stdout is None and print
    # writes nothing; a document once raised AttributeError there
    argv = [docs.get(a, a) for a in argv]
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh"] + CONSOLE + argv,
                          capture_output=True, text=True, env=console_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_files_that_are_not_utf8_are_named(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"symbol": "(0,o1|)", "note": "\u00e9"}'.encode("latin-1"))
    code, out, err = run(capsys, "validate-action", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")
    doc = json.loads(format_action_spec(specbuild.z4_swap_spec()))
    doc["group"] = {"file": "table.txt"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    table = tmp_path / "table.txt"
    table.write_bytes("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n".encode("utf-16"))
    code, out, err = run(capsys, "validate-action", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read group file {table}: 'utf-8' codec can't decode")


def test_paths_with_a_nul_byte_are_named(capsys, docs, tmp_path):
    # reading or writing such a path raises ValueError, not OSError; each
    # once printed the bare "embedded null byte"
    doc = json.loads(format_action_spec(specbuild.z2_swap_spec()))
    doc["group"] = {"file": "\u0000x"}
    path = tmp_path / "nul.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "validate-action", str(path)) == (
        2, "", f"error: cannot read group file {tmp_path / chr(0)}x: embedded null byte\n")
    target = f"{tmp_path}/x{chr(0)}y"
    assert run(capsys, "lift", docs["lens"], "-o", target) == (
        2, "", f"error: cannot write {target}: embedded null byte\n")


SWAP_TEXT = format_action_spec(specbuild.z2_swap_spec())


@pytest.mark.parametrize("command, text, name", [
    ("validate-action", '{"alpha": [1, -1],' + SWAP_TEXT[1:], "alpha"),
    ("lift", '{"epsilon": [1, 1],' + format_descriptor(specbuild.z2_lens_descriptor())[1:],
     "epsilon"),
    ("validate-action", SWAP_TEXT.replace('"order": 2', '"order": 3, "order": 2'), "order"),
], ids=["spec", "descriptor", "group-object"])
def test_a_field_given_twice_exits_two(capsys, tmp_path, command, text, name):
    # json.loads keeps the last value of a repeated field: these documents
    # once passed with their first value unread
    path = tmp_path / "twice.json"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, command, str(path)) == (2, "", f"error: field {name!r} is given twice\n")


SWAP_DOC = json.loads(SWAP_TEXT)
LENS_DOC = json.loads(format_descriptor(specbuild.z2_lens_descriptor()))


@pytest.mark.parametrize("command, doc, message", [
    ("validate-action", dict(SWAP_DOC, epsilon=[1, 7], bogus=None),
     "unknown fields 'epsilon', 'bogus'"),
    ("validate-action", {"bogus": None, **SWAP_DOC}, "unknown field 'bogus'"),
    ("lift", dict(LENS_DOC, theta1=["0", "0"]), "unknown field 'theta1'"),
    # every other fault is reported first
    ("validate-action", dict(SWAP_DOC, alpha=[1, 2], bogus=None),
     "alpha entries must be 1 or -1, got 2"),
    ("lift", dict(LENS_DOC, symbol="(0,o1|(2,1))", bogus=None),
     "descriptor base symbol must be class n2"),
], ids=["spec", "spec-stray-first", "descriptor", "spec-fault-first", "descriptor-fault-first"])
def test_a_field_the_record_does_not_name_exits_two(capsys, tmp_path, command, doc, message):
    # these documents once passed with the stray fields dropped unread
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, command, str(path)) == (2, "", f"error: {message}\n")


def test_repeat_runs_are_identical(capsys, docs):
    first = run(capsys, "analyze-group", docs["blocks"])
    second = run(capsys, "analyze-group", docs["blocks"])
    assert first == second
    first = run(capsys, "project", docs["swap"])
    second = run(capsys, "project", docs["swap"])
    assert first == second


@pytest.mark.parametrize("group, keys", [
    ({"file": "z2.txt", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
     ["file", "order", "table"]),
    ({"file": "z2.txt", "order": 2}, ["file", "order"]),
    ({"order": 2, "table": [[0, 1], [1, 0]], "name": "z2"}, ["order", "table", "name"]),
    ({"table": [[0, 1], [1, 0]]}, ["table"]),
    ({}, []),
], ids=["file-and-table", "file-and-order", "table-and-stray", "table-alone", "empty"])
def test_group_object_mixing_forms_exits_two(capsys, tmp_path, group, keys):
    # the first two once read the file and dropped the rest unread, and the
    # third passed with its stray key ignored
    (tmp_path / "z2.txt").write_text("2\n0 1\n1 0\n", encoding="utf-8")
    doc = json.loads(format_action_spec(specbuild.z2_swap_spec()))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(doc, group={"file": "z2.txt"})), encoding="utf-8")
    assert run(capsys, "validate-action", str(path)) == (0, "valid\n", "")
    path.write_text(json.dumps(dict(doc, group=group)), encoding="utf-8")
    assert run(capsys, "validate-action", str(path)) == (
        2, "", f"error: group object needs 'order' and 'table' or 'file' alone, got keys {keys}\n")


def test_reads_of_one_named_document_build_its_group_once(capsys, tmp_path, monkeypatch):
    built = []
    product = seifert.groups.direct_product

    def counted(a, b):
        built.append((a.order, b.order))
        return product(a, b)
    monkeypatch.setattr(seifert.groups, "direct_product", counted)
    seifert.groups._constructed.cache_clear()
    doc = json.loads(format_action_spec(specbuild.z2z3_block_spec()))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(doc, group="product:cyclic:2,cyclic:3")), encoding="utf-8")
    for _ in range(12):
        assert run(capsys, "validate-action", str(path)) == (0, "valid\n", "")
    assert built == [(2, 3)]
