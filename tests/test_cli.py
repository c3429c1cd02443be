"""End-to-end command tests driving main() in process."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seifert import ExtendedProductActionSpec, ProjectedActionDescriptor
from seifert import format_action_spec, format_descriptor, parse_symbol
import seifert.cli
from seifert.cli import main
import specbuild
from specbuild import ZERO


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def broken_spec() -> ExtendedProductActionSpec:
    good = specbuild.z4_swap_spec()
    return ExtendedProductActionSpec(
        good.symbol, good.group,
        (ZERO, Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)),
        good.alpha, good.beta, good.theta2)


def broken_descriptor() -> ProjectedActionDescriptor:
    return ProjectedActionDescriptor(
        parse_symbol("(1,n2|(2,1))"), specbuild.cyclic_group(3),
        (1, -1, -1), ((0,),) * 3, ((ZERO,),) * 3)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")

    def put(name, text):
        path = root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return {
        "z4": put("z4.json", format_action_spec(specbuild.z4_swap_spec())),
        "swap": put("swap.json", format_action_spec(specbuild.z2_swap_spec())),
        "thirds": put("thirds.json", format_action_spec(specbuild.z3_rotation_spec())),
        "blocks": put("blocks.json", format_action_spec(specbuild.z2z3_block_spec())),
        "mixed": put("mixed.json", format_action_spec(specbuild.mixed_crossing_spec())),
        "broken": put("broken.json", format_action_spec(broken_spec())),
        "lens": put("lens.json", format_descriptor(specbuild.z2_lens_descriptor())),
        "broken_descr": put("broken_descr.json",
                            format_descriptor(broken_descriptor())),
        "root": str(root),
    }


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
    for bad in ("", ";"):
        assert run(capsys, "snf", bad) == (
            2, "", "error: bad matrix row ''; use comma-separated integers, rows split by ';'\n")


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


def test_induced_torus(capsys, docs):
    assert run(capsys, "induced-torus", docs["z4"], "-i", "1", "-g", "1") == (
        0, "longitude=3/4\nmeridian=1/4\nsign=1\n", "")
    assert run(capsys, "induced-torus", docs["z4"], "-i", "1", "-g", "1",
               "--det") == (
        0, "longitude=3/4\nmeridian=1/4\nsign=1\ngluing=0,1;-1,3\n", "")
    code, out, err = run(capsys, "induced-torus", docs["z4"], "-i", "3", "-g", "0")
    assert code == 2
    assert "boundary index must be in 1..2" in err
    code, out, err = run(capsys, "induced-torus", docs["z4"], "-i", "1", "-g", "9")
    assert code == 2
    assert "group element must be in 0..3" in err
    for index, element, name in (("+1", "1", "-i/--index"), ("1", "1_0", "-g/--element")):
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

    # integers are an optional '-' and ASCII digits; int() would take these
    for bad in ("1_0", "+1", " 1", "\u0661"):
        code, out, err = run(capsys, "obstruction", "-b", bad, "--orbits", "2,3")
        assert (code, out) == (2, "")
        assert f"argument -b: invalid int value: {bad!r}" in err
    for option in ("--orbits", "--orbits-extra"):
        for bad in ("2,+3", "2, 3", "1_0", "2,\u0663"):
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
], ids=["symbol-int", "group-file-int", "float-entry", "null-row", "bool-beta",
        "order-text", "float-alpha", "table-text", "order-mismatch"])
def test_mistyped_document_fields_exit_two(capsys, tmp_path, edit, fragment):
    doc = json.loads(format_action_spec(specbuild.z4_swap_spec()))
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
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


def test_repeat_runs_are_identical(capsys, docs):
    first = run(capsys, "analyze-group", docs["blocks"])
    second = run(capsys, "analyze-group", docs["blocks"])
    assert first == second
    first = run(capsys, "project", docs["swap"])
    second = run(capsys, "project", docs["swap"])
    assert first == second
