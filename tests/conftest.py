"""Fixtures shared by the command line tests."""

from fractions import Fraction

import pytest

from seifert import (ExtendedProductActionSpec, ProjectedActionDescriptor, format_action_spec,
                     format_descriptor, parse_symbol)
import specbuild
from specbuild import ZERO


def broken_spec() -> ExtendedProductActionSpec:
    return specbuild.replace(specbuild.z4_swap_spec(),
                             theta1=(ZERO, Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)))


def broken_descriptor() -> ProjectedActionDescriptor:
    return ProjectedActionDescriptor(
        parse_symbol("(1,n2|(2,1))"), specbuild.cyclic_group(3),
        (1, -1, -1), ((0,),) * 3, ((ZERO,),) * 3)


@pytest.fixture(scope="session")
def docs(tmp_path_factory):
    """Paths of the documents the command tests read, by name, and their directory."""
    root = tmp_path_factory.mktemp("docs")

    def put(name, text):
        path = root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return {
        "z4": put("z4.json", format_action_spec(specbuild.z4_swap_spec())),
        "swap": put("swap.json", format_action_spec(specbuild.z2_swap_spec())),
        "thirds": put("thirds.json", format_action_spec(specbuild.z3_rotation_spec())),
        "blocks": put("blocks.json", format_action_spec(specbuild.z2z3_block_spec())),
        "mixed": put("mixed.json", format_action_spec(specbuild.mixed_crossing_spec())),
        "broken": put("broken.json", format_action_spec(broken_spec())),
        "lens": put("lens.json", format_descriptor(specbuild.z2_lens_descriptor())),
        "broken_descr": put("broken_descr.json",
                            format_descriptor(broken_descriptor())),
        "root": str(root),
    }
