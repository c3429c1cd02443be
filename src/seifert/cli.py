"""Command line front end.

Every library operation is reachable as a subcommand::

    seifert normalize "(0,o1|(3,4))"
    seifert equiv "(0,o1|(2,1),(1,1))" "(0,o1|(2,3))"
    seifert cover "(1,n2|(2,1))"
    seifert h1 "(1,n2|(2,1))"
    seifert validate-action spec.json
    seifert project spec.json -o descriptor.json

Exit codes: 0 for success and true verdicts, 1 for false verdicts and
failed validations (with a report on stderr), 2 for usage and parse
errors.  Output is deterministic; ``--porcelain`` switches every command
to line-oriented ``key=value`` output for scripting.  Boundary indices
on the command line are 1-based, matching the beta arrays in action-spec
files; group elements are 0-based table indices with 0 the identity.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from pathlib import Path

from .actions import (beta_orbit_numbers, check_tau_commuting, format_action_spec,
                      format_descriptor, format_fraction, gluing_matrix,
                      induced_solid_torus_action, lift_action, load_action_spec,
                      load_descriptor, obstruction_witness, project_action,
                      validate_action_spec, validate_descriptor)
from .homology import first_homology, smith_normal_form
from .presentations import orbifold_pi1, pi1
from .structure import analyze_structure
from .symbols import (base_quotient, equivalent, normalize,
                      obstruction_class, orientable_double_cover, parse_symbol,
                      total_sum)


def _witness(witness) -> str:
    if witness is None:
        return "-"
    return ",".join(str(v) for v in witness)


def _bool(value: bool) -> str:
    return "true" if value else "false"


class _Rejected(Exception):
    """A failed verdict, already reported; the command exits 1."""


def _require(args, key: str, label: str, report):
    """Pass, or print the failed report and raise _Rejected.

    ``label`` is the report field that names the failure: law or condition.
    """
    if report:
        return
    name, witness, message = getattr(report, label), report.witness, report.message
    # failed verdicts keep stdout scriptable and put the prose on stderr
    if args.porcelain:
        print(f"{key}=false")
        print(f"{label}={name}")
        print(f"witness={_witness(witness)}")
        print(f"message={message}")
    else:
        print(f"{key.replace('_', ' ')} check failed: {label} {name}, "
              f"witness {_witness(witness)}: {message}", file=sys.stderr)
    raise _Rejected


def _print_presentation(pres, porcelain: bool):
    if porcelain:
        print("generators=" + ",".join(pres.generators))
        for rel in pres.relators:
            print("relator=" + pres.format_word(rel))
    else:
        print(pres.export_text())


def _parse_matrix(text: str) -> list[list[int]]:
    rows = []
    for row_text in text.split(";"):
        entries = [e for e in row_text.split(",")]
        try:
            rows.append([int(e) for e in entries])
        except ValueError:
            raise ValueError(f"bad matrix row {row_text!r}; "
                             "use comma-separated integers, rows split by ';'") from None
    if not rows or not rows[0]:
        raise ValueError("empty matrix")
    return rows


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"bad integer list {text!r}") from None


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _validated_spec(args):
    """Load a spec file and run the law check, or stop with exit code 1."""
    spec = load_action_spec(args.specfile)
    _require(args, "valid", "law", validate_action_spec(spec))
    return spec


def _commuting_spec(args):
    """A valid spec that commutes with the covering translation, or exit 1."""
    spec = _validated_spec(args)
    _require(args, "commutes", "condition", check_tau_commuting(spec))
    return spec


def _cmd_normalize(args) -> int:
    norm = normalize(parse_symbol(args.symbol))
    if args.porcelain:
        print(f"symbol={norm.expand()}")
        print(f"obstruction={norm.b}")
    else:
        print(norm.expand())
    return 0


def _cmd_sum(args) -> int:
    value = total_sum(parse_symbol(args.symbol))
    print(f"sum={format_fraction(value)}" if args.porcelain else format_fraction(value))
    return 0


def _cmd_equiv(args) -> int:
    verdict = equivalent(parse_symbol(args.first), parse_symbol(args.second))
    if args.porcelain:
        print(f"equivalent={_bool(verdict)}")
    else:
        print("equivalent" if verdict else "not equivalent")
    return 0 if verdict else 1


def _cmd_cover(args) -> int:
    cover = orientable_double_cover(parse_symbol(args.symbol))
    print(f"symbol={cover}" if args.porcelain else cover)
    return 0


def _cmd_quotient(args) -> int:
    quotient = base_quotient(parse_symbol(args.symbol))
    if args.porcelain:
        print(f"exists={_bool(quotient is not None)}")
        if quotient is not None:
            print(f"symbol={quotient}")
    else:
        print(quotient if quotient is not None else "no quotient")
    return 0 if quotient is not None else 1


def _cmd_pi1(args) -> int:
    _print_presentation(pi1(parse_symbol(args.symbol)), args.porcelain)
    return 0


def _cmd_orbifold_pi1(args) -> int:
    _print_presentation(orbifold_pi1(parse_symbol(args.symbol)), args.porcelain)
    return 0


def _cmd_h1(args) -> int:
    h = first_homology(parse_symbol(args.symbol))
    if args.porcelain:
        print(f"free_rank={h.free_rank}")
        print("torsion=" + ",".join(str(d) for d in h.torsion))
    else:
        print(h)
    return 0


def _cmd_snf(args) -> int:
    invariants = smith_normal_form(_parse_matrix(args.matrix))
    body = ",".join(str(d) for d in invariants)
    print(f"invariants={body}" if args.porcelain else body)
    return 0


def _cmd_validate_action(args) -> int:
    _validated_spec(args)
    print("valid=true" if args.porcelain else "valid")
    return 0


def _cmd_induced_torus(args) -> int:
    spec = _validated_spec(args)
    n = len(spec.symbol.pairs)
    if not 1 <= args.index <= n:
        raise ValueError(f"boundary index must be in 1..{n}")
    if not 0 <= args.element < spec.group.order:
        raise ValueError(f"group element must be in 0..{spec.group.order - 1}")
    i = args.index - 1
    data = induced_solid_torus_action(spec, i, args.element)
    print(f"longitude={format_fraction(data.longitude)}")
    print(f"meridian={format_fraction(data.meridian)}")
    print(f"sign={data.sign}")
    if args.det:
        glue = gluing_matrix(spec.symbol.pairs[spec.beta[args.element][i]])
        print(f"gluing={glue.x},{glue.pair.p};{glue.y},{glue.pair.q}")
    return 0


def _cmd_check_tau(args) -> int:
    _commuting_spec(args)
    print("commutes=true" if args.porcelain else "commutes")
    return 0


def _cmd_project(args) -> int:
    descriptor = project_action(_commuting_spec(args))
    # non-canonical block crossing folds to data outside the descriptor
    # laws; refuse to write a document that would not load
    _require(args, "projectable", "law", validate_descriptor(descriptor))
    _emit(format_descriptor(descriptor), args.output)
    return 0


def _cmd_lift(args) -> int:
    descriptor = load_descriptor(args.descriptorfile)
    _require(args, "valid", "law", validate_descriptor(descriptor))
    _emit(format_action_spec(lift_action(descriptor)), args.output)
    return 0


def _cmd_obstruction(args) -> int:
    if args.specfile is not None:
        if args.orbits is not None:
            raise ValueError("--orbits cannot be used with a spec file, which gives the orbits; "
                             "use --orbits-extra to add more")
        spec = _validated_spec(args)
        orbits = list(beta_orbit_numbers(spec))
        b = args.b if args.b is not None else obstruction_class(spec.symbol)
    else:
        if args.b is None or args.orbits is None:
            raise ValueError("without a spec file, both -b and --orbits are required")
        orbits = _parse_int_list(args.orbits)
        b = args.b
    if args.orbits_extra is not None:
        orbits.extend(_parse_int_list(args.orbits_extra))
    witness = obstruction_witness(b, orbits)
    if args.porcelain:
        print(f"b={b}")
        print("orbits=" + ",".join(str(v) for v in orbits))
        print(f"solvable={_bool(witness is not None)}")
        if witness is not None:
            print("witness=" + ",".join(str(v) for v in witness))
    else:
        if witness is not None:
            print("solvable: " + ",".join(str(v) for v in witness))
        else:
            print("not solvable")
    return 0 if witness is not None else 1


def _cmd_orbits(args) -> int:
    spec = _validated_spec(args)
    numbers = beta_orbit_numbers(spec)
    body = ",".join(str(v) for v in numbers)
    print(f"orbits={body}" if args.porcelain else body)
    return 0


def _cmd_analyze_group(args) -> int:
    spec = _validated_spec(args)
    report = analyze_structure(spec)
    print(f"route={report.route}")
    print(f"rotation_order={report.rotation_order}")
    print(f"alpha_image_order={report.alpha_image_order}")
    print(f"shadow_order={report.shadow_order}")
    print(f"factors={report.factors}")
    print(f"embedding_ok={_bool(report.embedding_ok)}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--porcelain", action="store_true",
                        help="line-oriented key=value output")
    parser = argparse.ArgumentParser(
        prog="seifert",
        description="exact computation with Seifert fibered spaces")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("normalize", _cmd_normalize, "normal form of a symbol")
    p.add_argument("symbol")
    p = add("sum", _cmd_sum, "exact sum of p/q over the pairs")
    p.add_argument("symbol")
    p = add("equiv", _cmd_equiv, "fiber preserving equivalence of two symbols")
    p.add_argument("first")
    p.add_argument("second")
    p = add("cover", _cmd_cover, "orientable-base double cover of a class n2 symbol")
    p.add_argument("symbol")
    p = add("quotient", _cmd_quotient, "invert the double cover when possible")
    p.add_argument("symbol")
    p = add("pi1", _cmd_pi1, "fundamental group presentation")
    p.add_argument("symbol")
    p = add("orbifold-pi1", _cmd_orbifold_pi1, "base orbifold group presentation")
    p.add_argument("symbol")
    p = add("h1", _cmd_h1, "first homology")
    p.add_argument("symbol")
    p = add("snf", _cmd_snf, "Smith normal form invariants of an integer matrix")
    p.add_argument("matrix", help="rows split by ';', entries by ',': '2,0;0,3'")
    # argparse reads a word starting with "-" as an option unless it is a
    # bare negative number; "-1,2;3,4" is a matrix, as is "-1,x" (bad row)
    p._negative_number_matcher = re.compile(r"-\d")
    p = add("validate-action", _cmd_validate_action, "check the action laws of a spec file")
    p.add_argument("specfile")
    p = add("induced-torus", _cmd_induced_torus, "induced solid-torus rotation of one element")
    p.add_argument("specfile")
    p.add_argument("-i", "--index", type=int, required=True,
                   help="boundary index, 1-based")
    p.add_argument("-g", "--element", type=int, required=True,
                   help="group element index, 0 is the identity")
    p.add_argument("--det", action="store_true",
                   help="also print the gluing matrix used")
    p = add("check-tau", _cmd_check_tau, "commutation with the covering translation")
    p.add_argument("specfile")
    p = add("project", _cmd_project, "fold a commuting action to the quotient descriptor")
    p.add_argument("specfile")
    p.add_argument("-o", "--output", help="write the descriptor document here")
    p = add("lift", _cmd_lift, "canonical commuting action over a descriptor")
    p.add_argument("descriptorfile")
    p.add_argument("-o", "--output", help="write the action-spec document here")
    p = add("obstruction", _cmd_obstruction, "solve b = sum of b_i * orbit_i")
    p.add_argument("specfile", nargs="?",
                   help="take orbits (and default b) from this spec file")
    p.add_argument("-b", type=int, default=None, help="target obstruction class")
    p.add_argument("--orbits", help="comma-separated orbit numbers")
    p.add_argument("--orbits-extra", dest="orbits_extra",
                   help="extra orbit numbers to append")
    p = add("orbits", _cmd_orbits, "boundary orbit sizes under beta")
    p.add_argument("specfile")
    p = add("analyze-group", _cmd_analyze_group, "group-theoretic shape of an action")
    p.add_argument("specfile")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except _Rejected:
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console()
