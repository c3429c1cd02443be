"""The README's examples: every `$ seifert` line prints the lines under it,
and every python block runs, printing the `# ` lines under each statement."""

import ast
import re
import shlex
from pathlib import Path

from seifert import parse_action_spec_text, parse_descriptor_text, project_action
from seifert.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
SPEC_DOC, DESCRIPTOR_DOC = (body for lang, body in BLOCKS if lang == "json")


def examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) per `$ ` line of the README's blocks."""
    found = []
    for _, body in BLOCKS:
        current = None
        for line in body.splitlines():
            if line.startswith("$ "):
                current = [line[2:], ""]
                found.append(current)
            elif current is not None:
                current[1] += line + "\n"
    return [tuple(example) for example in found]


def python_steps(body: str) -> list[tuple[ast.stmt, str]]:
    """(statement, expected output) per top-level statement of a python block.

    The expected output is the `# ` comment lines up to the next statement:
    what the statement prints, and for an expression its repr, as a REPL
    shows it.
    """
    lines = body.splitlines()
    statements = ast.parse(body).body
    ends = [node.lineno - 1 for node in statements[1:]] + [len(lines)]
    return [(node, "".join(line[2:] + "\n" for line in lines[node.end_lineno:end]
                           if line.startswith("# ")))
            for node, end in zip(statements, ends)]


def test_readme_python_blocks(capsys):
    bodies = [body for lang, body in BLOCKS if lang == "python"]
    assert bodies
    for body in bodies:
        namespace = {}
        for node, expected in python_steps(body):
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
                if value is not None:
                    print(repr(value))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            assert (ast.unparse(node), capsys.readouterr().out) == (ast.unparse(node), expected)


def test_readme_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swap.json").write_text(SPEC_DOC, encoding="utf-8")
    runs = examples()
    assert len(runs) >= 10
    for command, expected in runs:
        program, *argv = shlex.split(command)
        assert program == "seifert", command
        main(argv)
        captured = capsys.readouterr()
        assert (command, captured.out, captured.err) == (command, expected, "")


def test_descriptor_example_is_the_projection():
    spec = parse_action_spec_text(SPEC_DOC)
    assert parse_descriptor_text(DESCRIPTOR_DOC) == project_action(spec)
