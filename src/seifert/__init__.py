"""Exact arithmetic for Seifert fibered spaces.

Symbols and their normalization, fiber preserving equivalence, the
orientable-base double cover and its quotient, fundamental group and
orbifold group presentations, first homology in closed form, integer
Smith normal form, and finite group actions in extended product form with
their validation, obstruction, covering-translation and lift/project
machinery.  Everything runs on plain integers and fractions; no result
is ever rounded.

Every public name is re-exported here and its module is imported on
first use (PEP 562): ``import seifert`` loads only ``seifert.groups``,
and ``from seifert import parse_symbol`` adds ``seifert.symbols`` alone.
"""

import importlib

# eager: small, and the benchmark tracer (perfbench/tracer.py) patches
# its FiniteGroup class when it installs
from . import groups

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "actions": (
        "ExtendedProductActionSpec", "GluingMatrix", "ProjectedActionDescriptor", "TauReport",
        "TorusMapData", "ValidationReport", "beta_orbit_numbers", "check_tau_commuting",
        "format_action_spec", "format_descriptor", "gluing_matrix",
        "induced_solid_torus_action", "lift_action", "load_action_spec", "load_descriptor",
        "obstruction_witness", "parse_action_spec_text", "parse_descriptor_text",
        "parse_fraction_text", "project_action", "validate_action_spec", "validate_descriptor",
    ),
    "groups": (
        "FiniteGroup", "GroupMap", "cyclic_group", "direct_product", "group_from_constructor",
        "is_homomorphism", "is_injective", "parse_group_text",
    ),
    "homology": ("AbelianGroupStructure", "first_homology", "smith_normal_form"),
    "presentations": (
        "Presentation", "abelianize", "orbifold_pi1", "pi1", "pi1_nonorientable",
        "pi1_orientable",
    ),
    "structure": ("StructureReport", "analyze_structure"),
    "symbols": (
        "NormalizedSymbol", "Orientability", "SeifertPair", "SeifertSymbol",
        "SymbolSyntaxError", "base_quotient", "equivalent", "normalize", "obstruction_class",
        "orientable_double_cover", "parse_symbol", "total_sum",
    ),
}
# public name -> its submodule
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # called only for names not yet in the module's globals
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # later lookups are plain attribute reads
    return value


def __dir__():
    return sorted({*globals(), *__all__})
