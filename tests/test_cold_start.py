"""What a fresh interpreter loads: the lazy package root, the CLI's
per-command imports, and the benchmark tracer on a cold CLI."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seifert
from seifert import format_action_spec
import specbuild

SRC = Path(seifert.__file__).resolve().parents[1]
TRACER = SRC.parent / "perfbench" / "tracer.py"
ACTION_LAYER = ("json", "fractions", "decimal", "seifert.actions", "seifert.structure")

# runs one command in process, then prints its exit code and which of
# the action layer's modules it loaded
LOADED = f"""\
import sys
from seifert.cli import main
code = main(sys.argv[1:])
print(code, *sorted(set({ACTION_LAYER!r}) & set(sys.modules)))
"""

# the benchmark's traced cli-cold child: import the CLI, install the
# tracer, run one command, write the spans
TRACED = """\
import sys
out_path, tracer_path = sys.argv.pop(), sys.argv.pop()
import seifert.cli
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
try:
    seifert.cli.console()
finally:
    tracer.dump(out_path)
"""


def child(*args, isolated=True):
    # -S: no site hooks, so every module listed was imported by the package
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-S"] if isolated else []
    return subprocess.run([sys.executable, *flags, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def specfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "z4.json"
    path.write_text(format_action_spec(specbuild.z4_swap_spec()), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [["h1", "(1,n2|(2,1))"], ["snf", "2,0;0,3"],
                                  ["normalize", "(0,o1|(3,4))"]])
def test_symbol_command_loads_no_action_layer(argv):
    done = child(LOADED, *argv)
    assert done.stdout.splitlines()[-1] == "0", done.stderr


def test_action_command_loads_the_action_layer(specfile):
    done = child(LOADED, "validate-action", specfile)
    out, verdict = done.stdout.splitlines()
    assert out == "valid" and verdict.split()[0] == "0", done.stderr
    assert "seifert.actions" in verdict.split()


def test_bare_import_loads_groups_only():
    code = """\
import sys, seifert
print(sorted(m for m in sys.modules if m.split(".")[0] == "seifert"))
print("total_sum" in vars(seifert), seifert.total_sum is sys.modules["seifert.symbols"].total_sum,
      "total_sum" in vars(seifert))
"""
    done = child(code)
    assert done.stdout == "['seifert', 'seifert._record', 'seifert.groups']\nFalse True True\n", \
        done.stderr


def test_lazy_root_names_are_their_modules_names():
    for name in seifert.__all__:
        module = importlib.import_module(f"seifert.{seifert._HOME[name]}")
        assert getattr(seifert, name) is getattr(module, name), name
        assert getattr(module, name).__module__ == module.__name__, name
    assert set(dir(seifert)) >= set(seifert.__all__)
    assert re.fullmatch(r"[0-9]+\.[0-9]+\.[0-9]+", seifert.__version__)


def test_lazy_root_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'seifert' has no attribute 'nope'$"):
        seifert.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from seifert import nope  # noqa: F401


@pytest.mark.parametrize("command, span", [
    (["snf", "2,0;0,3"], "homology.smith_normal_form"),
    (["validate-action", "{spec}"], "cli.main"),
    # h1 works through private helpers, which are not wrapped
    (["h1", "(1,n2|(2,1))"], "homology.first_homology"),
])
def test_tracer_installs_on_a_cold_cli(tmp_path, specfile, command, span):
    out = tmp_path / "spans.json"
    argv = [a.format(spec=specfile) for a in command]
    done = child(TRACED, *argv, "--porcelain", str(TRACER), str(out), isolated=False)
    assert done.returncode == 0, done.stderr
    names = {s[0] for s in json.loads(out.read_text())["spans"]}
    assert {"cli.main", span} <= names
