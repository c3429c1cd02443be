"""The four workloads: their operations, outputs and checks.

A workload builds its inputs once, then exposes ``ops``: a list of
(label, callable) run in order as one pass.  Each callable returns the
package's raw answer; ``plain`` turns it into comparable data outside the
timed region, ``failed`` says whether the operation failed, and ``check``
judges the first pass against the independent checkers in ``oracle``.
Package functions are looked up on their module at call time, so the
tracer's wrappers apply when installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import oracle

HERE = Path(__file__).resolve().parent


class SymbolH1:
    """parse_symbol -> first_homology; for class n2 also the cover, its H1
    and base_quotient of the cover."""

    starts_interpreters = False

    def __init__(self, seed: int, root: Path, workdir: Path):
        import seifert
        self.S = seifert
        self.inputs = inputs.symbol_inputs(seed)
        self.ops = [(label, self._op(text)) for label, text in self.inputs]

    def _op(self, text):
        S = self.S

        def run():
            symbol = S.parse_symbol(text)
            h1 = S.first_homology(symbol)
            if symbol.orientability.value == "o1":
                return h1, None, None, None
            cover = S.orientable_double_cover(symbol)
            return h1, cover, S.first_homology(cover), S.base_quotient(cover)
        return run

    @staticmethod
    def plain(out):
        h1, cover, cover_h1, quotient = out
        return ((h1.free_rank, h1.torsion), str(cover),
                cover_h1 and (cover_h1.free_rank, cover_h1.torsion), str(quotient))

    @staticmethod
    def failed(k, out):
        return isinstance(out, BaseException)

    def check(self, outs, raw):
        problems = []
        for (label, text), out in zip(self.inputs, outs):
            if out is None:
                continue
            h1, cover, cover_h1, quotient = out
            problems += oracle.check_h1(text, *h1)
            if cover != "None":
                problems += oracle.check_cover(text, cover)
                problems += oracle.check_h1(cover, *cover_h1)
                problems += oracle.check_quotient(cover, quotient, text)
        return problems


def _witness(w):
    return None if w is None else tuple(w)


class ActionPipeline:
    """parse -> validate -> tau -> project -> validate descriptor ->
    format/parse descriptor -> lift -> structure -> orbits."""

    starts_interpreters = False

    def __init__(self, seed: int, root: Path, workdir: Path):
        import seifert
        self.S = seifert
        self.cases = []
        for label, route, act in inputs.pipeline_actions(seed):
            self.cases.append((label, route, json.dumps(inputs.action_document(act))))
        self.ops = [(label, self._op(text, route)) for label, route, text in self.cases]

    def _op(self, text, route):
        S = self.S

        def run():
            spec = S.parse_action_spec_text(text)
            report = S.validate_action_spec(spec)
            tau = projected = descriptor_ok = reparsed = lifted = None
            if route != "orientation-mixed":
                try:
                    tau = S.check_tau_commuting(spec)
                except ValueError as exc:
                    tau = exc
            if route == "covering-translation":
                projected = S.project_action(spec)
                descriptor_ok = S.validate_descriptor(projected)
                reparsed = S.parse_descriptor_text(S.format_descriptor(projected))
                lifted = S.lift_action(reparsed)
            return (spec, report, tau, projected, descriptor_ok, reparsed, lifted,
                    S.analyze_structure(spec), S.beta_orbit_numbers(spec))
        return run

    @staticmethod
    def plain(out):
        spec, report, tau, projected, descriptor_ok, reparsed, lifted, struct, orbits = out
        if isinstance(tau, ValueError):
            tau = ("refused",)
        elif tau is not None:
            tau = (tau.ok, tau.condition, _witness(tau.witness))
        return {
            "spec": _spec_data(spec),
            "valid": (report.ok, report.law, _witness(report.witness)),
            "tau": tau,
            "projected": projected and _descriptor_data(projected),
            "descriptor_valid": None if descriptor_ok is None else (descriptor_ok.ok, descriptor_ok.law),
            "reparsed_equal": reparsed == projected if reparsed else None,
            "lifted_equal": lifted == spec if lifted else None,
            "structure": {k: getattr(struct, k) for k in (
                "route", "rotation_order", "alpha_image_order", "shadow_order",
                "factors", "embedding_ok")},
            "orbits": tuple(orbits),
        }

    @staticmethod
    def failed(k, out):
        return isinstance(out, BaseException)

    def check(self, outs, raw):
        problems = []
        for (label, route, text), out, raw_out in zip(self.cases, outs, raw):
            if out is None:
                continue
            doc = oracle.read_action(text)
            where = f"{label}: "
            if out["spec"] != _doc_data(doc):
                problems.append(where + "parsed spec differs from the document")
            law = oracle.law_scan(doc)
            if law is not None or out["valid"] != (True, None, None):
                problems.append(where + f"validation {out['valid']}, naive scan {law}")
            if route != "orientation-mixed":
                try:
                    want = oracle.tau_scan(doc)
                    want = (True, None, None) if want is None else (False,) + want
                except oracle.NotApplicable:
                    want = ("refused",)
                if out["tau"] != want:
                    problems.append(where + f"tau {out['tau']}, naive scan {want}")
            if route == "covering-translation":
                folded = oracle.fold(doc)
                if out["projected"] != _desc_data(folded):
                    problems.append(where + "projected descriptor differs from the fold")
                if oracle.descriptor_law_scan(folded) is not None or out["descriptor_valid"] != (True, None):
                    problems.append(where + "descriptor validation disagrees with the naive scan")
                if not out["reparsed_equal"]:
                    problems.append(where + "parse(format(descriptor)) is not the descriptor")
                if not out["lifted_equal"]:
                    problems.append(where + "lift(project(spec)) is not the spec")
                reparsed, lifted = raw_out[5], raw_out[6]
                if self.S.project_action(lifted) != reparsed:
                    problems.append(where + "project(lift(descriptor)) is not the descriptor")
                if _doc_data(oracle.lift(folded)) != out["spec"]:
                    problems.append(where + "the document is not the lift of its fold")
            structure = oracle.structure(doc)
            if structure["route"] != route:
                problems.append(where + f"input built for route {route} recomputes as {structure['route']}")
            problems += [where + p for p in oracle.check_structure(doc, out["structure"])]
            if out["orbits"] != oracle.orbit_sizes(doc):
                problems.append(where + f"orbits {out['orbits']}, want {oracle.orbit_sizes(doc)}")
        return problems


def _spec_data(spec):
    return (str(spec.symbol), spec.group.table, spec.theta1, spec.alpha, spec.beta, spec.theta2)


def _doc_data(doc: oracle.Doc):
    return (inputs.symbol_text(doc.genus, doc.cls, doc.pairs), doc.table, doc.theta1,
            doc.alpha, doc.beta, doc.theta2)


def _descriptor_data(d):
    return (str(d.base), d.group.table, d.epsilon, d.beta_bar, d.theta2_bar)


def _desc_data(d: oracle.Desc):
    return (inputs.symbol_text(d.genus, "n2", d.pairs), d.table, d.epsilon, d.beta_bar,
            d.theta2_bar)


class ActionReject:
    """``seifert.cli.main([command, doc, "--porcelain"])`` in process on
    documents that break one law or covering-translation condition, or
    are malformed and must exit 2."""

    starts_interpreters = False

    def __init__(self, seed: int, root: Path, workdir: Path):
        import seifert.cli
        self.cli = seifert.cli
        self.cases = inputs.reject_cases(seed)
        self.expected = []
        self.ops = []
        for k, case in enumerate(self.cases):
            path = workdir / f"reject{k}.json"
            path.write_text(case.text, encoding="utf-8")
            self.expected.append(self._expect(case))
            self.ops.append((case.label, self._op([case.command, str(path), "--porcelain"])))

    @staticmethod
    def _expect(case):
        """(exit code, porcelain lines) the command must give, or None for
        a malformed document (exit 2, nothing on stdout)."""
        if case.expect == "malformed":
            return None
        doc = oracle.read_action(case.text)
        law = oracle.law_scan(doc)
        if law is not None:
            return 1, {"valid": ["false"], "law": [law[0]],
                       "witness": [",".join(map(str, law[1]))]}
        if case.command == "validate-action":
            return 0, {"valid": ["true"]}
        tau = oracle.tau_scan(doc)
        if tau is None:
            return 0, {"commutes": ["true"]}
        return 1, {"commutes": ["false"], "condition": [tau[0]],
                   "witness": [",".join(map(str, tau[1]))]}

    def _op(self, argv):
        cli = self.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:   # a traceback is the failure being counted
                    code = type(exc).__name__
            return code, out.getvalue(), err.getvalue()
        return run

    @staticmethod
    def plain(out):
        return out

    def failed(self, k, out):
        want = self.expected[k]
        return out[0] != (2 if want is None else want[0])

    def check(self, outs, raw):
        problems = []
        for k, (case, out) in enumerate(zip(self.cases, outs)):
            if out is None:
                continue
            code, stdout, stderr = out
            want = self.expected[k]
            if want is None:
                if stdout or not stderr.startswith("error: "):
                    problems.append(f"{case.label}: exit 2 without a plain error message")
                continue
            got = oracle.porcelain(stdout)
            got.pop("message", None)
            if got != want[1]:
                problems.append(f"{case.label}: got {got}, want {want[1]}")
        return problems


# ------------------------------------------------------------- cli-cold

CONSOLE = "from seifert.cli import console; console()"

# the traced child imports the package before installing the tracer,
# which wraps the functions the package's modules bind; the spans go to
# the file named by the last argument
TRACED_CONSOLE = """\
import sys
out_path = sys.argv.pop()
import seifert.cli
sys.path.insert(0, {here!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
try:
    seifert.cli.console()
finally:
    tracer.dump(out_path)
"""


def child_env(root: Path) -> dict:
    """Children import the checkout's package and keep its bytecode cache,
    as an installed package would, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, env, cwd) -> tuple[int, str, str, float, int]:
    """Run one child; (exit code, stdout, stderr, wall seconds, peak RSS kB).

    Outputs here are a few kB, well under a pipe buffer, so reading
    stdout before stderr cannot block the child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd, text=True)
    with proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, time.perf_counter() - t0, usage.ru_maxrss


class CliCold:
    """One fresh ``python -c 'from seifert.cli import console; console()'``
    per subcommand, all 17 subcommands, one child at a time."""

    starts_interpreters = True

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.root = root
        self.env = child_env(root)
        self.workdir = workdir
        commands, docs = inputs.cli_inputs(seed)
        self.docs = docs
        paths = {}
        for name, text in docs.items():
            paths[name] = workdir / f"{name}.json"
            paths[name].write_text(text, encoding="utf-8")
        self.commands = [[a.format(**{k: str(p) for k, p in paths.items()}) for a in c]
                         for c in commands]
        self.expected_codes = [self._expected_code(c) for c in commands]
        self.peak_rss_kb = 0
        self.traced = False
        self.trace_files: list[Path] = []
        self.ops = [(c[0], self._op([c[0], "--porcelain"] + c[1:])) for c in self.commands]

    def _expected_code(self, command):
        if command[0] == "obstruction":
            b = int(command[command.index("-b") + 1])
            orbits = [int(v) for v in command[command.index("--orbits") + 1].split(",")]
            return 0 if b % math.gcd(*orbits) == 0 else 1
        return 0

    def _op(self, command):
        def run():
            if self.traced:
                path = self.workdir / f"trace-{len(self.trace_files)}.json"
                self.trace_files.append(path)
                argv = [sys.executable, "-c", TRACED_CONSOLE.format(here=str(HERE))] + command + [str(path)]
            else:
                argv = [sys.executable, "-c", CONSOLE] + command
            code, out, err, _, rss = run_child(argv, self.env, self.root)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            return code, out, err
        return run

    @staticmethod
    def plain(out):
        return out

    def failed(self, k, out):
        return out[0] != self.expected_codes[k]

    def check(self, outs, raw):
        problems = []
        for k, (command, out) in enumerate(zip(self.commands, outs)):
            if out is None:
                continue
            problems += [f"{command[0]}: {p}" for p in self._check_one(command, out[1])]
        return problems

    def _check_one(self, c, stdout):
        name = c[0]
        got = oracle.porcelain(stdout)
        one = {key: values[0] for key, values in got.items()}
        if name == "normalize":
            symbol, b = oracle.normal_form(c[1])
            return [] if one == {"symbol": symbol, "obstruction": str(b)} else [f"got {one}"]
        if name == "sum":
            _, _, pairs = oracle.read_symbol(c[1])
            want = sum((Fraction(p, q) for q, p in pairs), Fraction(0))
            return [] if Fraction(one.get("sum", "x0")) == want else [f"got {one}, want {want}"]
        if name == "equiv":
            same = oracle.normal_form(c[1]) == oracle.normal_form(c[2])
            return [] if same and one == {"equivalent": "true"} else [f"got {one}"]
        if name == "cover":
            return oracle.check_cover(c[1], one["symbol"])
        if name == "quotient":
            genus, _, pairs = oracle.read_symbol(c[1])
            half = inputs.symbol_text(genus + 1, "n2", pairs[0::2])
            if one.get("exists") != "true":
                return [f"got {one}"]
            return oracle.check_quotient(c[1], one["symbol"], half)
        if name in ("pi1", "orbifold-pi1"):
            gens = one["generators"].split(",")
            rows = oracle.word_exponents(got.get("relator", []), gens)
            parsed = oracle.read_symbol(c[1])
            if name == "pi1":
                want_rows, cols = oracle.relation_matrix(*parsed)
            else:
                want_rows, cols = oracle.orbifold_relation_matrix(*parsed)
            have = oracle.abelian_invariants([r for r in rows if any(r)], len(gens))
            want = oracle.abelian_invariants(want_rows, cols)
            return [] if have == want and len(gens) == cols else [f"abelianizes to {have}, want {want}"]
        if name == "h1":
            torsion = tuple(int(v) for v in one["torsion"].split(",") if v)
            return oracle.check_h1(c[1], int(one["free_rank"]), torsion)
        if name == "snf":
            matrix = [[int(v) for v in row.split(",")] for row in c[-1].split(";")]
            want = ",".join(map(str, oracle.smith_diagonal(matrix)))
            return [] if one == {"invariants": want} else [f"got {one}, want {want}"]
        doc = oracle.read_action(self.docs["ct" if name in ("check-tau", "project") else "spec"])
        if name == "validate-action":
            return [] if one == {"valid": "true"} and oracle.law_scan(doc) is None else [f"got {one}"]
        if name == "induced-torus":
            i, g = int(c[c.index("-i") + 1]) - 1, int(c[c.index("-g") + 1])
            return self._check_torus(doc, i, g, one)
        if name == "check-tau":
            return [] if one == {"commutes": "true"} and oracle.tau_scan(doc) is None else [f"got {one}"]
        if name == "project":
            folded = oracle.fold(doc)
            ok = oracle.read_descriptor(stdout) == folded and oracle.descriptor_law_scan(folded) is None
            return [] if ok else ["descriptor differs from the fold"]
        if name == "lift":
            lifted = oracle.lift(oracle.read_descriptor(self.docs["desc"]))
            return [] if oracle.read_action(stdout) == lifted else ["spec differs from the lift"]
        if name == "obstruction":
            b = int(one["b"])
            orbits = [int(v) for v in one["orbits"].split(",")]
            if b % math.gcd(*orbits):
                return [] if one["solvable"] == "false" and "witness" not in one else [f"got {one}"]
            w = [int(v) for v in one.get("witness", "").split(",") if v]
            ok = sum(x * o for x, o in zip(w, orbits)) == b and len(w) == len(orbits)
            return [] if ok and one["solvable"] == "true" else [f"got {one}"]
        if name == "orbits":
            want = ",".join(map(str, oracle.orbit_sizes(doc)))
            return [] if one == {"orbits": want} else [f"got {one}, want {want}"]
        if name == "analyze-group":
            report = {k: v for k, v in one.items()}
            for key in ("rotation_order", "alpha_image_order", "shadow_order"):
                report[key] = int(report[key])
            report["embedding_ok"] = report["embedding_ok"] == "true"
            return oracle.check_structure(doc, report)
        return [f"no check for {name}"]

    @staticmethod
    def _check_torus(doc, i, g, one):
        """The gluing matrix [[x,p],[y,q]] has determinant 1, pairs with the
        target index, and maps (longitude, meridian) back to (theta1, theta2)."""
        x, p, y, q = (int(v) for v in one["gluing"].replace(";", ",").split(","))
        target = doc.beta[g][i]
        lon, mer = Fraction(one["longitude"]), Fraction(one["meridian"])
        problems = []
        if (q, p) != doc.pairs[target] or x * q - p * y != 1:
            problems.append(f"gluing {one['gluing']} is not a filling of pair {doc.pairs[target]}")
        if (x * lon + p * mer) % 1 != doc.theta1[g] or (y * lon + q * mer) % 1 != doc.theta2[g][i]:
            problems.append("gluing does not carry the solid torus rotation back to the boundary datum")
        if int(one["sign"]) != doc.alpha[g]:
            problems.append(f"sign {one['sign']}, alpha {doc.alpha[g]}")
        return problems


WORKLOADS = {
    "symbol-h1": SymbolH1,
    "action-pipeline": ActionPipeline,
    "action-reject": ActionReject,
    "cli-cold": CliCold,
}
