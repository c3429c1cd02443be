"""Structure reports for the three analyzer routes."""

import pytest

from seifert import (analyze_structure, cyclic_group, group_from_constructor, is_homomorphism,
                     validate_action_spec)
from budget import needs_alarm, time_budget
import specbuild


def test_trivial_action_report():
    report = analyze_structure(
        specbuild.trivial_spec("(0,o1|(2,1))", cyclic_group(1)))
    assert report.route == "fiber-rotation"
    assert report.rotation_order == 1
    assert report.alpha_image_order == 1
    assert report.shadow_order == 1
    assert report.factors == "Z1 x H"
    assert report.embedding_ok


def test_sixth_turn_rotation_report():
    report = analyze_structure(specbuild.z6_rotation_spec())
    assert report.route == "fiber-rotation"
    assert report.rotation_order == 6
    assert report.shadow_order == 1
    assert report.factors == "Z6 x H"
    assert report.embedding_ok
    assert report.embedding.target.order == 6


def test_quarter_turn_swap_report():
    report = analyze_structure(specbuild.z4_swap_spec())
    assert report.route == "fiber-rotation"
    assert report.rotation_order == 4
    assert report.shadow_order == 2
    assert report.embedding_ok


def test_covering_translation_route():
    report = analyze_structure(specbuild.z2_swap_spec())
    assert report.route == "covering-translation"
    assert report.factors == "Z2 x H"
    assert report.shadow_order == 2
    assert report.embedding_ok

    report = analyze_structure(specbuild.z2z3_block_spec())
    assert report.route == "covering-translation"
    assert report.factors == "Z2 x H"
    assert report.rotation_order == 2
    assert report.shadow_order == 3
    assert report.embedding.target.order == 6
    assert report.embedding_ok


@needs_alarm
@pytest.mark.parametrize("m", [32, 64])
def test_faithful_rotations_report_without_the_product_table(m):
    # Z_m x H has order m^2 here, and building its table with the cubic
    # associativity check overruns this budget at both m; the image has
    # order m
    with time_budget(10):
        report = analyze_structure(specbuild.faithful_rotation_spec(m))
    assert report.route == "fiber-rotation"
    assert report.rotation_order == report.shadow_order == m
    assert report.factors == f"Z{m} x H"
    assert report.embedding_ok
    assert report.embedding.target.order == m


@needs_alarm
@pytest.mark.parametrize("m", [256, 512])
def test_faithful_rotations_at_large_orders(m):
    # without the generating set the group table check is cubic in m and
    # the law scan and the report quadratic; at m = 512 that overruns
    # this budget
    with time_budget(10):
        group = group_from_constructor(f"cyclic:{m}")
        spec = specbuild.faithful_rotation_spec(m)
        assert validate_action_spec(spec)
        report = analyze_structure(spec)
    assert group == spec.group
    assert report.rotation_order == report.shadow_order == m
    assert report.embedding_ok


def test_reflection_report():
    report = analyze_structure(specbuild.reflection_spec())
    assert report.route == "orientation-mixed"
    assert report.alpha_image_order == 2
    assert report.rotation_order == 1
    assert report.factors == "(Z1 x H+) semidirect Z2"
    assert report.embedding_ok


def test_unmet_involution_hypothesis():
    report = analyze_structure(specbuild.alternating_alpha_spec())
    assert report.route == "orientation-mixed"
    assert report.factors == (
        "no product decomposition "
        "(every orientation-reversing element has order > 2)")
    # theta and beta data cannot tell apart the two reversing elements
    assert not report.embedding_ok
    assert is_homomorphism(report.embedding)


def test_analyze_rejects_invalid_spec():
    from seifert import ExtendedProductActionSpec
    from fractions import Fraction
    bad = specbuild.z4_swap_spec()
    bad = ExtendedProductActionSpec(
        bad.symbol, bad.group,
        (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)),
        bad.alpha, bad.beta, bad.theta2)
    with pytest.raises(ValueError, match="fails validation at law theta1"):
        analyze_structure(bad)


@pytest.mark.parametrize("build", [
    specbuild.z4_swap_spec,
    specbuild.z6_rotation_spec,
    specbuild.z2_swap_spec,
    specbuild.z2z3_block_spec,
    specbuild.reflection_spec,
    specbuild.alternating_alpha_spec,
    specbuild.mixed_crossing_spec,
])
def test_embedding_is_always_a_homomorphism(build):
    report = analyze_structure(build())
    assert is_homomorphism(report.embedding)
    if report.embedding_ok:
        # Lagrange: an injected group divides the target order
        assert report.embedding.target.order % build().group.order == 0
