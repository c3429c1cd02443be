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
to line-oriented ``key=value`` output for scripting.  ``induced-torus``
and ``analyze-group`` print ``key=value`` lines with or without it, and
``project`` and ``lift`` write a JSON document either way.  Boundary indices
on the command line are 1-based, matching the beta arrays in action-spec
files; group elements are 0-based table indices with 0 the identity.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from pathlib import Path

from .groups import _INTEGER   # the one integer grammar, loaded with the package root
# the symbol layer only: the action layer (json, fractions, group tables)
# is imported inside the handlers that use it
from .homology import first_homology, smith_normal_form
from .presentations import orbifold_pi1, pi1
from .symbols import (base_quotient, equivalent, normalize,
                      obstruction_class, orientable_double_cover, parse_symbol,
                      total_sum)


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _say(args, fields: dict, plain=None):
    """Print ``fields`` as ``key=value`` lines under --porcelain, else ``plain``.

    With no ``plain`` text the lines are printed either way.  Booleans
    print as true/false, and a list value prints one line per item.
    """
    if not args.porcelain and plain is not None:
        print(plain)
        return
    for key, value in fields.items():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, bool):
                item = "true" if item else "false"
            print(f"{key}={item}")


class _Rejected(Exception):
    """A failed verdict, already reported; the command exits 1."""


def _require(args, key: str, label: str, report):
    """Pass, or print the failed report and raise _Rejected.

    ``label`` is the report field that names the failure: law or condition.
    """
    if report:
        return
    name, message = getattr(report, label), report.message
    witness = "-" if report.witness is None else _join(report.witness)
    # failed verdicts keep stdout scriptable and put the prose on stderr
    if args.porcelain:
        _say(args, {key: False, label: name, "witness": witness, "message": message})
    else:
        print(f"{key.replace('_', ' ')} check failed: {label} {name}, "
              f"witness {witness}: {message}", file=sys.stderr)
    raise _Rejected


def _parse_ints(text: str, message: str) -> list[int]:
    """Comma-separated integers; ``message`` formats ``text`` when one is bad."""
    values = text.split(",")
    if not all(map(_INTEGER.fullmatch, values)):
        raise ValueError(message.format(text))
    return [int(v) for v in values]


def _int_option(text: str) -> int:
    """The type of -b, -i and -g; a bad value gets argparse's own message."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_matrix(text: str) -> list[list[int]]:
    return [_parse_ints(row, "bad matrix row {!r}; use comma-separated integers, rows split by ';'")
            for row in text.split(";")]


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _validated_spec(args):
    """Load a spec file and run the law check, or stop with exit code 1."""
    from .actions import load_action_spec, validate_action_spec
    spec = load_action_spec(args.specfile)
    _require(args, "valid", "law", validate_action_spec(spec))
    return spec


def _commuting_spec(args):
    """A valid spec that commutes with the covering translation, or exit 1."""
    from .actions import check_tau_commuting
    spec = _validated_spec(args)
    _require(args, "commutes", "condition", check_tau_commuting(spec))
    return spec


def _cmd_normalize(args) -> int:
    norm = normalize(parse_symbol(args.symbol))
    text = norm.expand()
    _say(args, {"symbol": text, "obstruction": norm.b}, text)
    return 0


def _cmd_sum(args) -> int:
    value = total_sum(parse_symbol(args.symbol))
    _say(args, {"sum": value}, value)
    return 0


def _cmd_equiv(args) -> int:
    verdict = equivalent(parse_symbol(args.first), parse_symbol(args.second))
    _say(args, {"equivalent": verdict}, "equivalent" if verdict else "not equivalent")
    return 0 if verdict else 1


def _cmd_cover(args) -> int:
    cover = orientable_double_cover(parse_symbol(args.symbol))
    _say(args, {"symbol": cover}, cover)
    return 0


def _cmd_quotient(args) -> int:
    quotient = base_quotient(parse_symbol(args.symbol))
    if quotient is None:
        _say(args, {"exists": False}, "no quotient")
        return 1
    _say(args, {"exists": True, "symbol": quotient}, quotient)
    return 0


def _cmd_presentation(args) -> int:
    build = pi1 if args.command == "pi1" else orbifold_pi1
    pres = build(parse_symbol(args.symbol))
    _say(args, {"generators": _join(pres.generators),
                "relator": [pres.format_word(rel) for rel in pres.relators]},
         pres.export_text())
    return 0


def _cmd_h1(args) -> int:
    h = first_homology(parse_symbol(args.symbol))
    _say(args, {"free_rank": h.free_rank, "torsion": _join(h.torsion)}, h)
    return 0


def _cmd_snf(args) -> int:
    body = _join(smith_normal_form(_parse_matrix(args.matrix)))
    _say(args, {"invariants": body}, body)
    return 0


def _cmd_validate_action(args) -> int:
    _validated_spec(args)
    _say(args, {"valid": True}, "valid")
    return 0


def _cmd_induced_torus(args) -> int:
    from .actions import gluing_matrix, induced_solid_torus_action
    spec = _validated_spec(args)
    n = len(spec.symbol.pairs)
    if not 1 <= args.index <= n:
        raise ValueError(f"boundary index must be in 1..{n}")
    i = args.index - 1
    data = induced_solid_torus_action(spec, i, args.element)
    fields = {"longitude": data.longitude, "meridian": data.meridian, "sign": data.sign}
    if args.det:
        glue = gluing_matrix(spec.symbol.pairs[spec.beta[args.element][i]])
        fields["gluing"] = ";".join(map(_join, glue.matrix()))
    _say(args, fields)
    return 0


def _cmd_check_tau(args) -> int:
    _commuting_spec(args)
    _say(args, {"commutes": True}, "commutes")
    return 0


def _cmd_project(args) -> int:
    from .actions import format_descriptor, project_action, validate_descriptor
    descriptor = project_action(_commuting_spec(args))
    # non-canonical block crossing folds to data outside the descriptor
    # laws; refuse to write a document that would not load
    _require(args, "projectable", "law", validate_descriptor(descriptor))
    _emit(format_descriptor(descriptor), args.output)
    return 0


def _cmd_lift(args) -> int:
    from .actions import format_action_spec, lift_action, load_descriptor, validate_descriptor
    descriptor = load_descriptor(args.descriptorfile)
    _require(args, "valid", "law", validate_descriptor(descriptor))
    _emit(format_action_spec(lift_action(descriptor)), args.output)
    return 0


def _cmd_obstruction(args) -> int:
    from .actions import beta_orbit_numbers, obstruction_witness
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
        orbits = _parse_ints(args.orbits, "bad integer list {!r}")
        b = args.b
    if args.orbits_extra is not None:
        orbits.extend(_parse_ints(args.orbits_extra, "bad integer list {!r}"))
    witness = obstruction_witness(b, orbits)
    fields = {"b": b, "orbits": _join(orbits), "solvable": witness is not None}
    if witness is None:
        _say(args, fields, "not solvable")
        return 1
    _say(args, fields | {"witness": _join(witness)},
         "solvable: " + (_join(witness) or "empty witness"))
    return 0


def _cmd_orbits(args) -> int:
    from .actions import beta_orbit_numbers
    body = _join(beta_orbit_numbers(_validated_spec(args)))
    _say(args, {"orbits": body}, body)
    return 0


def _cmd_analyze_group(args) -> int:
    from .structure import analyze_structure
    report = analyze_structure(_validated_spec(args))
    _say(args, {"route": report.route, "rotation_order": report.rotation_order,
                "alpha_image_order": report.alpha_image_order,
                "shadow_order": report.shadow_order, "factors": report.factors,
                "embedding_ok": report.embedding_ok})
    return 0


def _snf_arguments(p):
    p.add_argument("matrix", help="rows split by ';', entries by ',': '2,0;0,3'")
    # argparse reads a word starting with "-" as an option unless it is a
    # bare negative number; here every unknown word "-" then not "-" is a
    # matrix: "-1,2;3,4", and "-1,x" or "-\u0663,1" (bad rows)
    p._negative_number_matcher = re.compile(r"-[^-]")


def _induced_torus_arguments(p):
    p.add_argument("-i", "--index", type=_int_option, required=True,
                   help="boundary index, 1-based")
    p.add_argument("-g", "--element", type=_int_option, required=True,
                   help="group element index, 0 is the identity")
    p.add_argument("--det", action="store_true",
                   help="also print the gluing matrix used")


def _project_arguments(p):
    p.add_argument("-o", "--output", help="write the descriptor document here")


def _lift_arguments(p):
    p.add_argument("-o", "--output", help="write the action-spec document here")


def _obstruction_arguments(p):
    p.add_argument("specfile", nargs="?",
                   help="take orbits (and default b) from this spec file")
    p.add_argument("-b", type=_int_option, default=None, help="target obstruction class")
    p.add_argument("--orbits", help="comma-separated orbit numbers")
    p.add_argument("--orbits-extra", dest="orbits_extra",
                   help="extra orbit numbers to append")


# every subcommand, in help order: handler, help text, positional
# arguments, and the function that adds its other arguments or None
_COMMANDS = {
    "normalize": (_cmd_normalize, "normal form of a symbol", ("symbol",), None),
    "sum": (_cmd_sum, "exact sum of p/q over the pairs", ("symbol",), None),
    "equiv": (_cmd_equiv, "fiber preserving equivalence of two symbols",
              ("first", "second"), None),
    "cover": (_cmd_cover, "orientable-base double cover of a class n2 symbol", ("symbol",), None),
    "quotient": (_cmd_quotient, "invert the double cover when possible", ("symbol",), None),
    "pi1": (_cmd_presentation, "fundamental group presentation", ("symbol",), None),
    "orbifold-pi1": (_cmd_presentation, "base orbifold group presentation", ("symbol",), None),
    "h1": (_cmd_h1, "first homology", ("symbol",), None),
    "snf": (_cmd_snf, "Smith normal form invariants of an integer matrix", (), _snf_arguments),
    "validate-action": (_cmd_validate_action, "check the action laws of a spec file",
                        ("specfile",), None),
    "induced-torus": (_cmd_induced_torus, "induced solid-torus rotation of one element",
                      ("specfile",), _induced_torus_arguments),
    "check-tau": (_cmd_check_tau, "commutation with the covering translation",
                  ("specfile",), None),
    "project": (_cmd_project, "fold a commuting action to the quotient descriptor",
                ("specfile",), _project_arguments),
    "lift": (_cmd_lift, "canonical commuting action over a descriptor",
             ("descriptorfile",), _lift_arguments),
    "obstruction": (_cmd_obstruction, "solve b = sum of b_i * orbit_i", (),
                    _obstruction_arguments),
    "orbits": (_cmd_orbits, "boundary orbit sizes under beta", ("specfile",), None),
    "analyze-group": (_cmd_analyze_group, "group-theoretic shape of an action",
                      ("specfile",), None),
}


@cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The top-level parser with the subparser of ``command`` alone, or
    with every subparser when ``command`` is None.

    A subparser is the same either way, so its help, usage and errors are
    too.  Built once per command and process: parse_args keeps no state
    between calls.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--porcelain", action="store_true",
                        help="line-oriented key=value output")
    parser = argparse.ArgumentParser(
        prog="seifert",
        description="exact computation with Seifert fibered spaces")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _COMMANDS if command is None else (command,):
        handler, help_text, positionals, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        for positional in positionals:
            p.add_argument(positional)
        if add_arguments is not None:
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names its subcommand first builds that subparser only;
    # anything else (no words, -h, an unknown command) builds them all
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
