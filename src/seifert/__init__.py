"""Exact arithmetic for Seifert fibered spaces.

Symbols and their normalization, fiber preserving equivalence, the
orientable-base double cover and its quotient, fundamental group and
orbifold group presentations, first homology through integer Smith
normal form, and finite group actions in extended product form with
their validation, obstruction, covering-translation and lift/project
machinery.  Everything runs on plain integers and fractions; no result
is ever rounded.
"""

from .actions import (
    ExtendedProductActionSpec,
    GluingMatrix,
    ProjectedActionDescriptor,
    TauReport,
    TorusMapData,
    ValidationReport,
    beta_orbit_numbers,
    check_tau_commuting,
    format_action_spec,
    format_descriptor,
    gluing_matrix,
    induced_solid_torus_action,
    lift_action,
    load_action_spec,
    load_descriptor,
    obstruction_witness,
    parse_action_spec_text,
    parse_descriptor_text,
    parse_fraction_text,
    project_action,
    validate_action_spec,
    validate_descriptor,
)
from .groups import (
    FiniteGroup,
    GroupMap,
    cyclic_group,
    direct_product,
    group_from_constructor,
    is_homomorphism,
    is_injective,
    parse_group_text,
)
from .homology import AbelianGroupStructure, first_homology, smith_normal_form
from .presentations import (
    Presentation,
    abelianize,
    orbifold_pi1,
    pi1,
    pi1_nonorientable,
    pi1_orientable,
)
from .structure import StructureReport, analyze_structure
from .symbols import (
    NormalizedSymbol,
    Orientability,
    SeifertPair,
    SeifertSymbol,
    SymbolSyntaxError,
    base_quotient,
    equivalent,
    normalize,
    obstruction_class,
    orientable_double_cover,
    parse_symbol,
    total_sum,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "ExtendedProductActionSpec",
    "FiniteGroup",
    "GluingMatrix",
    "GroupMap",
    "NormalizedSymbol",
    "Orientability",
    "Presentation",
    "ProjectedActionDescriptor",
    "SeifertPair",
    "SeifertSymbol",
    "StructureReport",
    "SymbolSyntaxError",
    "TauReport",
    "TorusMapData",
    "ValidationReport",
    "abelianize",
    "analyze_structure",
    "base_quotient",
    "beta_orbit_numbers",
    "check_tau_commuting",
    "cyclic_group",
    "direct_product",
    "equivalent",
    "first_homology",
    "format_action_spec",
    "format_descriptor",
    "gluing_matrix",
    "group_from_constructor",
    "induced_solid_torus_action",
    "is_homomorphism",
    "is_injective",
    "lift_action",
    "load_action_spec",
    "load_descriptor",
    "normalize",
    "obstruction_class",
    "obstruction_witness",
    "orbifold_pi1",
    "orientable_double_cover",
    "parse_action_spec_text",
    "parse_descriptor_text",
    "parse_fraction_text",
    "parse_group_text",
    "parse_symbol",
    "pi1",
    "pi1_nonorientable",
    "pi1_orientable",
    "project_action",
    "smith_normal_form",
    "total_sum",
    "validate_action_spec",
    "validate_descriptor",
]
