"""The package root exports exactly the names in ``seifert.__all__``."""

import types

import seifert


def test_all_is_sorted_unique_and_resolves():
    names = seifert.__all__
    assert names == sorted(set(names))
    namespace = {}
    exec("from seifert import *", namespace)
    assert all(namespace[name] is getattr(seifert, name) for name in names)
    # every public non-module name of the root is listed
    public = {name for name, value in vars(seifert).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)
