"""Self-tests for the benchmark's checkers: each must accept the right
answer and reject a planted wrong one.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

F = Fraction


def test_checkers_do_not_import_the_package():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import inputs, oracle; "
            "sys.exit(any(m.split('.')[0] == 'seifert' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code, str(HERE)]).returncode == 0


def test_h1_rejects_planted_torsion():
    assert oracle.check_h1("(1,n2|(2,1))", 0, (8,)) == []
    assert oracle.check_h1("(1,n2|(2,1))", 0, (4,))
    assert oracle.check_h1("(1,n2|(2,1))", 1, (8,))


def test_h1_closed_form_for_o1():
    # e = 1/2 + 1/3, so |e| * 2 * 3 = 5 and the free rank is 2g = 2
    assert oracle.check_h1("(1,o1|(2,1),(3,1))", 2, (5,)) == []
    problems = oracle.check_h1("(1,o1|(2,1),(3,1))", 2, (10,))
    assert any("closed form" in p for p in problems)
    # e = 0: surface times circle, H1 = Z^(2g+1)
    assert oracle.check_h1("(2,o1|)", 5, ()) == [] and oracle.check_h1("(2,o1|)", 4, ())


def test_invariant_chain():
    assert oracle.invariant_chain([6, 0, 4, -2]) == [2, 2, 12]
    assert oracle.smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert oracle.smith_diagonal([[2, 4], [4, 8]]) == [2, 0]


def test_cover_and_quotient():
    assert oracle.check_cover("(2,n2|(3,1),(2,1))", "(1,o1|(2,1),(3,1),(2,1),(3,1))") == []
    assert oracle.check_cover("(2,n2|(3,1),(2,1))", "(1,o1|(2,1),(3,1),(3,1),(3,1))")
    assert oracle.check_cover("(2,n2|(3,1),(2,1))", "(2,o1|(2,1),(3,1),(2,1),(3,1))")
    assert oracle.check_quotient("(0,o1|(2,1),(2,1))", "(1,n2|(2,1))", "(1,n2|(2,1))") == []
    assert oracle.check_quotient("(0,o1|(2,1),(2,1))", "(1,n2|(2,3))", "(1,n2|(2,1))")


def test_normal_form():
    assert oracle.normal_form("(0,o1|(3,4))") == ("(0,o1|(3,1),(1,1))", 1)
    assert oracle.normal_form("(1,n2|(2,-1),(1,2))") == ("(1,n2|(2,1),(1,1))", 1)


def _pipeline(seed=1):
    return {label: (route, act) for label, route, act in inputs.pipeline_actions(seed)}


def _doc(act):
    import json
    return oracle.read_action(json.dumps(inputs.action_document(act)))


def test_generated_actions_pass_the_naive_scan_and_take_their_route():
    for seed in (1, 2, 3):
        for label, (route, act) in _pipeline(seed).items():
            doc = _doc(act)
            assert oracle.law_scan(doc) is None, label
            assert oracle.structure(doc)["route"] == route, label


def test_law_scan_names_the_planted_law():
    rng = inputs.random.Random(0)
    bases = inputs._reject_bases(rng)
    for law in ("identity", "alpha", "theta1", "beta", "theta2"):
        for name, act in bases.items():
            found = oracle.law_scan(_doc(inputs._mutated(act, rng, law)))
            assert found is not None and found[0] == law, (law, name)


def test_law_scan_witness_for_a_mutated_theta2_entry():
    act = _pipeline()["om-z4"][1]
    theta2 = [list(row) for row in act.theta2]
    theta2[3][1] = (theta2[3][1] + F(1, 5)) % 1
    # g = 0 never fails and (1, 2) is the first product landing on 3
    assert oracle.law_scan(_doc(replace(act, theta2=tuple(map(tuple, theta2))))) == (
        "theta2", (1, 2, 1))


def test_pairs_law_and_tau_conditions():
    rng = inputs.random.Random(0)
    act = inputs._pairs_violation(rng, 32, inputs.cyclic(32))
    assert oracle.law_scan(_doc(act)) == ("pairs", (1, 0))
    names = [oracle.tau_scan(_doc(a))[0] for _, a in inputs._tau_violations(rng)]
    assert names == ["half-rotation", "sigma-equivariance", "meridian-antisymmetry"]
    with pytest.raises(oracle.NotApplicable):
        oracle.tau_scan(_doc(_pipeline()["fr-z12"][1]))


def test_fold_lift_and_descriptor_scan():
    route, act = _pipeline()["ct-d8"]
    doc = _doc(act)
    assert oracle.tau_scan(doc) is None
    folded = oracle.fold(doc)
    assert oracle.lift(folded) == doc
    assert oracle.descriptor_law_scan(folded) is None
    theta2_bar = [list(row) for row in folded.theta2_bar]
    theta2_bar[5][0] = (theta2_bar[5][0] + F(1, 3)) % 1
    broken = replace(folded, theta2_bar=tuple(map(tuple, theta2_bar)))
    assert oracle.descriptor_law_scan(broken)[0] == "theta2_bar"
    assert oracle.lift(broken) != doc


def test_structure_rejects_planted_reports():
    for label, (route, act) in _pipeline().items():
        doc = _doc(act)
        right = oracle.structure(doc)
        assert oracle.check_structure(doc, right) == []
        assert oracle.check_structure(doc, right | {"shadow_order": right["shadow_order"] + 1})
        assert oracle.check_structure(doc, right | {"embedding_ok": not right["embedding_ok"]})


def test_orbit_sizes():
    act = _pipeline()["ct-z2xz4"][1]
    # Z4 rotates four equal pairs, the Z2 factor crosses the blocks
    assert oracle.orbit_sizes(_doc(act)) == (2, 2, 8)


def test_cli_checks_reject_planted_output(tmp_path):
    cli = workloads.CliCold(1, HERE.parent, tmp_path)
    assert cli._check_one(["h1", "(1,n2|(2,1))"], "free_rank=0\ntorsion=8\n") == []
    assert cli._check_one(["h1", "(1,n2|(2,1))"], "free_rank=0\ntorsion=4\n")
    pi1 = "generators=x,c1,t\nrelator=c1*t*c1^-1*t^-1\nrelator=x*t*x^-1*t\nrelator=c1^2*t\nrelator=c1*x^-2\n"
    assert cli._check_one(["pi1", "(1,n2|(2,1))"], pi1) == []
    assert cli._check_one(["pi1", "(1,n2|(2,1))"], pi1.replace("c1^2*t", "c1^3*t"))
    assert cli._check_one(["snf", "--", "2,0;0,3"], "invariants=1,6\n") == []
    assert cli._check_one(["snf", "--", "2,0;0,3"], "invariants=2,3\n")
    doc = oracle.read_action(cli.docs["spec"])
    good = cli._check_one(["orbits", "x"], "orbits=" + ",".join(map(str, oracle.orbit_sizes(doc))))
    assert good == [] and cli._check_one(["orbits", "x"], "orbits=4")


def test_reject_expectations():
    for case in inputs.reject_cases(1):
        want = workloads.ActionReject._expect(case)
        if case.expect == "malformed":
            assert want is None
        elif case.expect == "law":
            assert want[0] == 1 and want[1]["law"] == [case.label.split("-")[1]], case.label
        else:
            assert want[0] == 1 and want[1]["condition"][0] in case.label, case.label
