"""Keep the usage examples in docstrings honest."""

import doctest
import importlib
import pkgutil

import pytest

import seifert

# every module of the package; importing __main__ would run the CLI
MODULES = [importlib.import_module(f"seifert.{info.name}")
           for info in pkgutil.iter_modules(seifert.__path__) if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
