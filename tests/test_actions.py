"""Action-spec validation, fillings, the covering translation, lift/project,
and the document format."""

import json
import random
import re
from fractions import Fraction

import pytest

import seifert.actions
from seifert import (
    ExtendedProductActionSpec,
    FiniteGroup,
    ProjectedActionDescriptor,
    SeifertPair,
    analyze_structure,
    beta_orbit_numbers,
    check_tau_commuting,
    cyclic_group,
    format_action_spec,
    format_descriptor,
    gluing_matrix,
    induced_solid_torus_action,
    lift_action,
    load_action_spec,
    obstruction_witness,
    parse_action_spec_text,
    parse_descriptor_text,
    parse_fraction_text,
    parse_symbol,
    project_action,
    validate_action_spec,
    validate_descriptor,
)
from seifert.cli import main
import oracles
import specbuild
from specbuild import ZERO

F = Fraction


def replace(spec: ExtendedProductActionSpec, **changes) -> ExtendedProductActionSpec:
    fields = dict(symbol=spec.symbol, group=spec.group, theta1=spec.theta1,
                  alpha=spec.alpha, beta=spec.beta, theta2=spec.theta2)
    fields.update(changes)
    return ExtendedProductActionSpec(**fields)


# -- structural validation -------------------------------------------------

def test_spec_table_sizes_are_enforced():
    base = specbuild.z4_swap_spec()
    with pytest.raises(ValueError, match="theta1 has 3 entries"):
        replace(base, theta1=(ZERO,) * 3)
    with pytest.raises(ValueError, match="alpha has 5 entries"):
        replace(base, alpha=(1,) * 5)
    with pytest.raises(ValueError, match="beta has 1 rows"):
        replace(base, beta=((0, 1),))
    with pytest.raises(ValueError, match="theta2 has 2 rows"):
        replace(base, theta2=((ZERO, ZERO),) * 2)
    with pytest.raises(ValueError, match="theta2 row has 3 entries"):
        replace(base, theta2=((ZERO, ZERO, ZERO),) * 4)


def test_spec_value_ranges_are_enforced():
    base = specbuild.z4_swap_spec()
    with pytest.raises(ValueError, match="alpha values must be"):
        replace(base, alpha=(1, 0, 1, 0))
    with pytest.raises(ValueError, match="not a permutation"):
        replace(base, beta=((0, 0),) * 4)
    with pytest.raises(ValueError, match="rotation numbers must be fractions"):
        replace(base, theta1=(ZERO, F(3, 2), ZERO, ZERO))
    with pytest.raises(ValueError, match="rotation numbers must be fractions"):
        replace(base, theta2=((F(-1, 4), ZERO),) * 4)
    # equal to ints but not ints: once accepted, then written as
    # documents that cannot be read back, or a TypeError in the law scan
    swap = specbuild.z2_swap_spec()
    with pytest.raises(ValueError, match="alpha values must be \\+1 or -1, got True"):
        replace(swap, alpha=(True, 1.0))
    with pytest.raises(ValueError, match="alpha values must be \\+1 or -1, got 1.0"):
        replace(swap, alpha=(1, 1.0))
    with pytest.raises(ValueError, match="is not a permutation of 2 indices"):
        replace(swap, beta=((0, 1), (1.0, 0)))
    with pytest.raises(ValueError, match="is not a permutation of 2 indices"):
        replace(swap, beta=((False, True), (1, 0)))


# -- the cocycle laws ------------------------------------------------------

def test_trivial_spec_passes():
    report = validate_action_spec(
        specbuild.trivial_spec("(0,o1|(3,1),(5,2))", cyclic_group(6)))
    assert report
    assert report.law is None
    assert report.message == "all laws hold"


def test_quarter_turn_swap_spec_passes():
    assert validate_action_spec(specbuild.z4_swap_spec())


def test_identity_law_checked_first():
    spec = replace(specbuild.z4_swap_spec(),
                   theta1=(F(1, 4), F(1, 4), F(1, 2), F(3, 4)))
    report = validate_action_spec(spec)
    assert not report
    assert (report.law, report.witness) == ("identity", (0,))


def test_alpha_must_be_multiplicative():
    spec = replace(specbuild.trivial_spec("(0,o1|(1,0))", cyclic_group(4)),
                   alpha=(1, -1, -1, -1))
    report = validate_action_spec(spec)
    assert (report.law, report.witness) == ("alpha", (1, 1))


def test_every_generator_is_checked():
    # Klein four, generators 1 and 2: theta1 is a homomorphism along
    # generator 1 but element 2 turns by 1/3, which has no order two
    klein = seifert.direct_product(cyclic_group(2), cyclic_group(2))
    assert klein.generators == (1, 2)
    spec = replace(specbuild.trivial_spec("(0,o1|(2,1))", klein),
                   theta1=(ZERO, F(1, 2), F(1, 3), F(5, 6)))
    report = validate_action_spec(spec)
    assert (report.law, report.witness) == ("theta1", (2, 2))


def test_each_law_is_swept_once_over_g_x_s(monkeypatch):
    # laws (a) to (d) are decided one after another on G x S: a valid spec
    # evaluates each exactly |G||S| times, and a spec whose first G x S
    # failure is law k evaluates no law after k
    names = [law for law, _ in seifert.actions._COMPONENT_LAWS]
    counts = dict.fromkeys(names, 0)

    def counted(law, component):
        def count(a, b, mod):
            counts[law] += 1
            return component(a, b, mod)
        return law, count

    monkeypatch.setattr(seifert.actions, "_COMPONENT_LAWS",
                        tuple(counted(*entry) for entry in seifert.actions._COMPONENT_LAWS))
    shift = F(1, 12)
    for base in (specbuild.z2_z32_spec(), specbuild.d16_spec()):
        generators = base.group.generators
        assert len(generators) > 1 and 1 in generators
        # each edit at the generator 1 breaks its own law and no earlier one
        def at_one(table, entry):
            return table[:1] + (entry,) + table[2:]

        row, turns = base.beta[1], base.theta2[1]
        mutants = {
            None: base,
            "alpha": replace(base, alpha=at_one(base.alpha, -base.alpha[1])),
            "theta1": replace(base, theta1=at_one(base.theta1, (base.theta1[1] + shift) % 1)),
            "beta": replace(base, beta=at_one(base.beta, (row[1], row[0]) + row[2:])),
            "theta2": replace(base, theta2=at_one(base.theta2, ((turns[0] + shift) % 1,)
                                                  + turns[1:])),
        }
        for law, spec in mutants.items():
            counts.update(dict.fromkeys(names, 0))
            report = validate_action_spec(spec)
            assert report.law == law and report.ok is (law is None)
            k = len(names) if law is None else names.index(law)
            assert [counts[name] for name in names[:k]] == [base.group.order * len(generators)] * k
            assert [counts[name] for name in names[k + 1:]] == [0] * len(names[k + 1:])


def test_theta1_drift_is_caught_with_witness():
    spec = replace(specbuild.z4_swap_spec(),
                   theta1=(ZERO, F(1, 3), F(1, 2), F(3, 4)))
    report = validate_action_spec(spec)
    assert not report
    assert (report.law, report.witness) == ("theta1", (1, 1))
    assert "2/3" in report.message


def test_beta_must_compose():
    spec = replace(specbuild.z4_swap_spec(),
                   beta=((0, 1), (1, 0), (1, 0), (1, 0)))
    report = validate_action_spec(spec)
    assert (report.law, report.witness) == ("beta", (1, 1))


def test_theta2_twisted_additivity():
    spec = replace(specbuild.trivial_spec("(0,o1|(3,1))", cyclic_group(2)),
                   theta2=((ZERO,), (F(1, 3),)))
    report = validate_action_spec(spec)
    assert (report.law, report.witness) == ("theta2", (1, 1, 0))


def test_beta_must_respect_pair_values():
    spec = replace(specbuild.trivial_spec("(0,o1|(2,1),(3,1))", cyclic_group(2)),
                   beta=((0, 1), (1, 0)))
    report = validate_action_spec(spec)
    assert (report.law, report.witness) == ("pairs", (1, 0))


# -- gluing matrices and induced rotations ---------------------------------

def test_gluing_matrix_goldens():
    one = gluing_matrix(SeifertPair(1, 0))
    assert (one.x, one.y) == (1, 0)
    assert gluing_matrix(SeifertPair(3, 1)).matrix() == ((0, 1), (-1, 3))
    assert gluing_matrix(SeifertPair(5, 2)).matrix() == ((1, 2), (2, 5))


def test_gluing_matrix_determinant_and_range():
    for q in range(1, 9):
        for p in range(-9, 10):
            try:
                pair = SeifertPair(q, p)
            except ValueError:
                continue
            glue = gluing_matrix(pair)
            assert glue.x * q - p * glue.y == 1
            if 0 < p < q:
                assert 0 <= glue.x < q


def test_gluing_matrix_integer_inverse():
    for q, p in [(1, 0), (1, 4), (2, 1), (3, 2), (5, 2), (7, -3)]:
        glue = gluing_matrix(SeifertPair(q, p))
        (a, b), (c, d) = glue.matrix()
        inverse = ((d, -b), (-c, a))
        product = (
            (inverse[0][0] * a + inverse[0][1] * c,
             inverse[0][0] * b + inverse[0][1] * d),
            (inverse[1][0] * a + inverse[1][1] * c,
             inverse[1][0] * b + inverse[1][1] * d),
        )
        assert product == ((1, 0), (0, 1))


def test_induced_rotation_identity_element():
    spec = specbuild.z4_swap_spec()
    for i in range(2):
        rot = induced_solid_torus_action(spec, i, 0)
        assert (rot.longitude, rot.meridian, rot.sign) == (0, 0, 1)


def test_induced_rotation_third_turn():
    spec = ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(3,1))"),
        group=cyclic_group(3),
        theta1=(ZERO, F(1, 3), F(2, 3)),
        alpha=(1, 1, 1),
        beta=((0,),) * 3,
        theta2=((ZERO,),) * 3,
    )
    rot = induced_solid_torus_action(spec, 0, 1)
    assert (rot.longitude, rot.meridian, rot.sign) == (0, F(1, 3), 1)


def test_induced_rotation_quarter_turn_with_swap():
    rot = induced_solid_torus_action(specbuild.z4_swap_spec(), 0, 1)
    assert (rot.longitude, rot.meridian, rot.sign) == (F(3, 4), F(1, 4), 1)


def test_induced_rotation_reflection():
    rot = induced_solid_torus_action(specbuild.reflection_spec(), 0, 1)
    assert (rot.longitude, rot.meridian, rot.sign) == (0, 0, -1)


def test_induced_rotation_rejects_invalid_spec():
    bad = replace(specbuild.trivial_spec("(0,o1|(1,0))", cyclic_group(4)),
                  alpha=(1, -1, -1, -1))
    with pytest.raises(ValueError, match="fails validation"):
        induced_solid_torus_action(bad, 0, 1)


def test_induced_rotation_rejects_out_of_range_indices():
    # negative indices once read the last entry, indices past the end
    # raised IndexError
    spec = specbuild.z4_swap_spec()
    for i, g, message in ((-1, 1, "boundary index must be in 0..1"),
                          (2, 1, "boundary index must be in 0..1"),
                          (0, -1, "group element must be in 0..3"),
                          (0, 4, "group element must be in 0..3")):
        with pytest.raises(ValueError, match=message):
            induced_solid_torus_action(spec, i, g)


# -- obstruction solving ---------------------------------------------------

def test_obstruction_witness_goldens():
    assert obstruction_witness(0, [5, 7, 9]) == [0, 0, 0]
    assert obstruction_witness(1, [2, 3]) == [-1, 1]
    assert obstruction_witness(3, [4, 6]) is None


def test_obstruction_witness_substitution():
    cases = [(4, [2, 3]), (-5, [10, 15, 6]), (12, [12]), (7, [3, 5, 9])]
    for b, orbits in cases:
        witness = obstruction_witness(b, orbits)
        assert witness is not None
        assert sum(c * o for c, o in zip(witness, orbits)) == b


def test_obstruction_witness_rejects_bad_orbits():
    # the gcd of no orbit numbers is 0: only b = 0 is solvable
    assert obstruction_witness(0, []) == []
    assert obstruction_witness(1, []) is None
    with pytest.raises(ValueError, match="must be positive"):
        obstruction_witness(1, [2, 0])


def test_beta_orbit_numbers():
    assert beta_orbit_numbers(
        specbuild.trivial_spec("(0,o1|(2,1),(3,1),(5,2))", cyclic_group(2))) == (1, 1, 1)
    assert beta_orbit_numbers(specbuild.z4_swap_spec()) == (2,)
    cycling = ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(2,1),(2,1),(2,1))"),
        group=cyclic_group(3),
        theta1=(ZERO,) * 3,
        alpha=(1,) * 3,
        beta=tuple(tuple((i + k) % 3 for i in range(3)) for k in range(3)),
        theta2=((ZERO,) * 3,) * 3,
    )
    assert beta_orbit_numbers(cycling) == (3,)
    assert beta_orbit_numbers(specbuild.z2z3_block_spec()) == (3, 3)


# -- commutation with the covering translation -----------------------------

def test_tau_trivial_and_swap_specs_commute():
    assert check_tau_commuting(
        specbuild.trivial_spec("(0,o1|(2,1),(2,1))", cyclic_group(1)))
    report = check_tau_commuting(specbuild.z2_swap_spec())
    assert report
    assert report.condition is None


def test_tau_needs_half_turns():
    report = check_tau_commuting(specbuild.z3_rotation_spec())
    assert not report
    assert (report.condition, report.witness) == ("half-rotation", (1,))


def test_tau_needs_block_equivariant_beta():
    spec = ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(2,1),(2,1),(2,1),(2,1))"),
        group=cyclic_group(2),
        theta1=(ZERO, ZERO),
        alpha=(1, 1),
        beta=((0, 1, 2, 3), (1, 0, 2, 3)),
        theta2=((ZERO,) * 4,) * 2,
    )
    report = check_tau_commuting(spec)
    assert (report.condition, report.witness) == ("sigma-equivariance", (1, 0))


def test_tau_needs_meridian_antisymmetry():
    spec = ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(3,1),(3,1))"),
        group=cyclic_group(4),
        theta1=(ZERO,) * 4,
        alpha=(1,) * 4,
        beta=((0, 1),) * 4,
        theta2=tuple((F(k, 4) % 1, ZERO) for k in range(4)),
    )
    assert validate_action_spec(spec)
    report = check_tau_commuting(spec)
    assert (report.condition, report.witness) == ("meridian-antisymmetry", (1, 0))


def test_tau_preconditions_raise():
    with pytest.raises(ValueError, match="class o1"):
        check_tau_commuting(specbuild.trivial_spec("(1,n2|(2,1))", cyclic_group(1)))
    with pytest.raises(ValueError, match="not doubled in blocks"):
        check_tau_commuting(specbuild.trivial_spec("(0,o1|(2,1),(3,1))", cyclic_group(1)))
    reversing = replace(specbuild.trivial_spec("(0,o1|(1,0),(1,0))", cyclic_group(2)),
                        alpha=(1, -1))
    with pytest.raises(ValueError, match="fiber-orientation-preserving"):
        check_tau_commuting(reversing)
    drifted = replace(specbuild.z2_swap_spec(), theta1=(ZERO, F(1, 3)))
    with pytest.raises(ValueError, match="fails validation"):
        check_tau_commuting(drifted)


def _random_cyclic_action(rng) -> ExtendedProductActionSpec | None:
    """A random Z_m action on a block-doubled symbol, or None if d^m != 1.

    The generator's datum d turns the fiber by a multiple of 1/m; each of
    its parts is drawn either to pass one covering-translation condition
    (half turns, a beta commuting with i -> i+n, negated theta2 halves) or
    at random, and element k acts by d^k.
    """
    m, n = rng.randint(2, 6), rng.randint(1, 3)
    if rng.random() < 0.5:
        turn = F(rng.choice((0, m // 2) if m % 2 == 0 else (0,)), m)
    else:
        turn = F(rng.randrange(m), m)
    if rng.random() < 0.5:
        front, cross = rng.sample(range(n), n), [rng.randrange(2) for _ in range(n)]
        perm = tuple([front[i] + n * cross[i] for i in range(n)]
                     + [front[i] + n * (1 - cross[i]) for i in range(n)])
    else:
        perm = tuple(rng.sample(range(2 * n), 2 * n))
    half = [F(rng.randrange(m), m) for _ in range(n)]
    if rng.random() < 0.5:
        row = tuple(half + [-v % 1 for v in half])
    else:
        row = tuple(half + [F(rng.randrange(m), m) for _ in range(n)])
    theta1, beta, theta2 = [ZERO], [tuple(range(2 * n))], [(ZERO,) * (2 * n)]
    for _ in range(m):
        # datum(k + 1) = datum(k) o d, the law with alpha = +1
        theta1.append((theta1[-1] + turn) % 1)
        beta.append(tuple(beta[-1][j] for j in perm))
        theta2.append(tuple((theta2[-1][j] + v) % 1 for j, v in zip(perm, row)))
    if (theta1.pop(), beta.pop(), theta2.pop()) != (theta1[0], beta[0], theta2[0]):
        return None
    pair = rng.choice(((2, 1), (3, 1), (5, 2)))
    symbol = parse_symbol(f"({rng.randrange(2)},o1|" + ",".join([str(pair)] * 2 * n) + ")")
    return ExtendedProductActionSpec(symbol, cyclic_group(m), tuple(theta1), (1,) * m,
                                     tuple(beta), tuple(theta2))


def test_tau_agrees_with_naive_scan():
    # the library checks indices i < n only; the oracle scans all 2n
    specs = [getattr(specbuild, name)() for name in dir(specbuild)
             if name.endswith("_spec") and name not in ("trivial_spec", "faithful_rotation_spec")]
    rng = random.Random(60617)
    while len(specs) < 600:
        spec = _random_cyclic_action(rng)
        if spec is not None:
            specs.append(spec)
    verdicts = set()
    for spec in specs:
        assert validate_action_spec(spec)
        want = oracles.tau_scan(spec)
        if want is None:
            with pytest.raises(ValueError):
                check_tau_commuting(spec)
            continue
        report = check_tau_commuting(spec)
        assert (report.ok, report.condition, report.witness) == want
        verdicts.add(report.condition)
    assert verdicts == {None, "half-rotation", "sigma-equivariance", "meridian-antisymmetry"}


# -- descriptors, project, lift --------------------------------------------

def test_descriptor_structure_enforced():
    good = specbuild.z2_lens_descriptor()
    with pytest.raises(ValueError, match="class n2"):
        ProjectedActionDescriptor(parse_symbol("(0,o1|(2,1))"), good.group,
                                  good.epsilon, good.beta_bar, good.theta2_bar)
    with pytest.raises(ValueError, match="epsilon has 1 entries"):
        ProjectedActionDescriptor(good.base, good.group, (1,),
                                  good.beta_bar, good.theta2_bar)
    with pytest.raises(ValueError, match="epsilon values"):
        ProjectedActionDescriptor(good.base, good.group, (1, 0),
                                  good.beta_bar, good.theta2_bar)
    with pytest.raises(ValueError, match="not a permutation"):
        ProjectedActionDescriptor(good.base, good.group, good.epsilon,
                                  ((0,), (1,)), good.theta2_bar)
    with pytest.raises(ValueError, match="epsilon values must be \\+1 or -1, got True"):
        ProjectedActionDescriptor(good.base, good.group, (True, -1),
                                  good.beta_bar, good.theta2_bar)
    with pytest.raises(ValueError, match="is not a permutation of 1 indices"):
        ProjectedActionDescriptor(good.base, good.group, good.epsilon,
                                  ((0,), (0.0,)), good.theta2_bar)


@pytest.fixture
def scans(monkeypatch):
    """Every integer view the law scan runs on, in order."""
    seen = []
    scan = seifert.actions._scan_laws

    def counted(group, view, pairs, laws):
        seen.append(view)
        return scan(group, view, pairs, laws)
    monkeypatch.setattr(seifert.actions, "_scan_laws", counted)
    return seen


@pytest.fixture
def built_specs(monkeypatch):
    """Every ExtendedProductActionSpec constructed, checked or trusted, in order."""
    built = []
    check = ExtendedProductActionSpec.__post_init__
    trusted = seifert.actions._built

    def counted(spec):
        built.append(spec)
        check(spec)

    def counted_built(cls, *values):
        record = trusted(cls, *values)
        if cls is ExtendedProductActionSpec:
            built.append(record)
        return record
    monkeypatch.setattr(ExtendedProductActionSpec, "__post_init__", counted)
    monkeypatch.setattr(seifert.actions, "_built", counted_built)
    return built


def test_spec_is_law_scanned_once(scans):
    spec = specbuild.z2_swap_spec()
    assert validate_action_spec(spec)
    assert check_tau_commuting(spec)
    descriptor = project_action(spec)
    analyze_structure(spec)
    beta_orbit_numbers(spec)
    assert len(scans) == 1 and scans[0] is spec._int_view
    # a descriptor is scanned once too, on the integer view of its lift
    assert validate_descriptor(descriptor)
    assert lift_action(descriptor) == spec
    assert lift_action(descriptor) == spec
    assert len(scans) == 2 and scans[1] is descriptor._int_view
    assert scans[1] == spec._int_view


def test_descriptor_is_lifted_once(built_specs):
    descriptor = specbuild.z2_lens_descriptor()
    # validation reads the integer lift and builds no Fraction spec
    assert validate_descriptor(descriptor)
    assert built_specs == []
    lifted = lift_action(descriptor)
    assert validate_descriptor(descriptor)
    assert lift_action(descriptor) is lifted
    assert len(built_specs) == 1 and built_specs[0] is lifted
    assert lifted == specbuild.z2_swap_spec()


def test_lifted_spec_keeps_the_descriptor_scan(scans):
    # the lift's integer view is the descriptor's, already scanned
    descriptor = specbuild.z2z3_descriptor()
    assert validate_descriptor(descriptor)
    lifted = lift_action(descriptor)
    assert validate_action_spec(lifted)
    assert len(scans) == 1 and lifted._int_view is descriptor._int_view


def test_replaced_spec_is_scanned_afresh(scans):
    spec = specbuild.z4_swap_spec()
    assert validate_action_spec(spec)
    broken = replace(spec, theta1=(ZERO, F(1, 3), F(1, 2), F(3, 4)))
    report = validate_action_spec(broken)
    assert (report.law, report.witness) == ("theta1", (1, 1))
    replaced = replace(spec)
    assert validate_action_spec(replaced)
    assert len(scans) == 3 and scans[2] is replaced._int_view


def test_descriptor_laws():
    assert validate_descriptor(specbuild.z2_lens_descriptor())
    assert validate_descriptor(specbuild.z2z3_descriptor())

    base = parse_symbol("(1,n2|(2,1))")
    broken_eps = ProjectedActionDescriptor(
        base, cyclic_group(3), (1, -1, -1), ((0,),) * 3, ((ZERO,),) * 3)
    report = validate_descriptor(broken_eps)
    assert (report.law, report.witness) == ("epsilon", (1, 1))

    two = parse_symbol("(1,n2|(2,1),(2,1))")
    broken_perm = ProjectedActionDescriptor(
        two, cyclic_group(4), (1, 1, 1, 1),
        ((0, 1), (1, 0), (1, 0), (1, 0)), ((ZERO, ZERO),) * 4)
    report = validate_descriptor(broken_perm)
    assert (report.law, report.witness) == ("beta_bar", (1, 1))

    unequal = ProjectedActionDescriptor(
        parse_symbol("(1,n2|(2,1),(3,1))"), cyclic_group(2), (1, 1),
        ((0, 1), (1, 0)), ((ZERO, ZERO),) * 2)
    report = validate_descriptor(unequal)
    assert (report.law, report.witness) == ("pairs", (1, 0))


def test_project_golden_cases():
    folded = project_action(
        specbuild.trivial_spec("(0,o1|(5,2),(5,2))", cyclic_group(2)))
    assert folded.base == parse_symbol("(1,n2|(5,2))")
    assert folded.epsilon == (1, 1)
    assert folded.beta_bar == ((0,), (0,))

    assert project_action(specbuild.z2_swap_spec()) == specbuild.z2_lens_descriptor()


def test_project_requires_commutation():
    with pytest.raises(ValueError, match="does not commute"):
        project_action(specbuild.z3_rotation_spec())


def test_lift_golden_cases():
    assert lift_action(specbuild.z2_lens_descriptor()) == specbuild.z2_swap_spec()

    lifted = lift_action(specbuild.z2z3_descriptor())
    assert validate_action_spec(lifted)
    assert check_tau_commuting(lifted)
    assert project_action(lifted) == specbuild.z2z3_descriptor()


def test_lift_rejects_broken_descriptor():
    base = parse_symbol("(1,n2|(2,1))")
    broken = ProjectedActionDescriptor(
        base, cyclic_group(3), (1, -1, -1), ((0,),) * 3, ((ZERO,),) * 3)
    with pytest.raises(ValueError, match="descriptor fails validation"):
        lift_action(broken)


def test_fold_is_many_to_one():
    # the block-preserving spec and the canonical crossing lift fold to the
    # same descriptor; only the latter is reproduced by lift_action
    spec = specbuild.z2z3_block_spec()
    folded = project_action(spec)
    assert folded == specbuild.z2z3_descriptor()
    canonical = lift_action(folded)
    assert canonical.beta != spec.beta
    assert project_action(canonical) == folded


def test_fold_of_mixed_crossing_breaks_descriptor_laws():
    spec = specbuild.mixed_crossing_spec()
    assert validate_action_spec(spec)
    assert check_tau_commuting(spec)
    folded = project_action(spec)
    report = validate_descriptor(folded)
    assert not report
    assert (report.law, report.witness) == ("theta2_bar", (1, 1, 0))


# -- fractions and documents -----------------------------------------------

def test_fraction_parsing():
    assert parse_fraction_text(3) == 3
    assert parse_fraction_text("1/2") == F(1, 2)
    assert parse_fraction_text("-1/3") == F(-1, 3)
    assert parse_fraction_text(" 2/4 ") == F(1, 2)
    assert parse_fraction_text("+3") == 3
    with pytest.raises(ValueError, match="decimal fractions"):
        parse_fraction_text(0.5)
    with pytest.raises(ValueError, match="not a fraction"):
        parse_fraction_text("0.5")
    with pytest.raises(ValueError, match="not a fraction"):
        parse_fraction_text(True)
    with pytest.raises(ValueError, match="not a fraction"):
        parse_fraction_text("1/2/3")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction_text("3/0")
    for text in ("\u0663/4", "1/\u0664", "\u00b9/2", "+-3", "1_0/3", "1/ 2"):
        with pytest.raises(ValueError, match="not a fraction"):
            parse_fraction_text(text)


def test_fraction_formatting(capsys):
    # the CLI prints an exact sum as its reduced fraction, an integer bare
    for symbol, text in [("(0,o1|(2,1))", "1/2"), ("(0,o1|(1,3))", "3"),
                         ("(0,o1|(3,-1))", "-1/3"), ("(0,o1|(6,1),(6,1))", "1/3")]:
        assert main(["sum", symbol]) == 0
        assert capsys.readouterr().out == text + "\n"


SWAP_DOC = """
{
  "symbol": "(0,o1|(2,1),(2,1))",
  "group": "cyclic:2",
  "theta1": ["0", "1/2"],
  "alpha": [1, 1],
  "beta": [[1, 2], [2, 1]],
  "theta2": [["0", "0"], ["0", "0"]]
}
"""


def test_parse_action_spec_document():
    assert parse_action_spec_text(SWAP_DOC) == specbuild.z2_swap_spec()


def test_document_fractions_are_reduced_mod_one():
    doc = SWAP_DOC.replace('"theta1": ["0", "1/2"]', '"theta1": ["0", "3/2"]')
    spec = parse_action_spec_text(doc)
    assert spec.theta1 == (ZERO, F(1, 2))
    doc = SWAP_DOC.replace('"theta2": [["0", "0"], ["0", "0"]]',
                           '"theta2": [["0", "-1/3"], ["0", "1/3"]]')
    spec = parse_action_spec_text(doc)
    # document rows are boundary-indexed; attribute rows are element-indexed
    assert spec.theta2[1] == (F(2, 3), F(1, 3))


def test_document_rotation_texts_reduce_alike():
    texts = ["2/4", " 1/2 ", "-1/3", "5/3"]
    doc = json.dumps({"symbol": "(0,o1|(2,1))", "group": "cyclic:4", "theta1": texts,
                      "alpha": [1] * 4, "beta": [[1]] * 4, "theta2": [texts]})
    spec = parse_action_spec_text(doc)
    want = (F(1, 2), F(1, 2), F(2, 3), F(2, 3))
    assert spec.theta1 == want
    assert tuple(row[0] for row in spec.theta2) == want
    assert all(type(v) is Fraction for v in spec.theta1)


@pytest.fixture
def parsed_texts(monkeypatch):
    """Every value the document reader hands to parse_fraction_text."""
    seen = []
    parse = seifert.actions.parse_fraction_text

    def counted(text):
        seen.append(text)
        return parse(text)
    monkeypatch.setattr(seifert.actions, "parse_fraction_text", counted)
    return seen


def test_document_reads_each_rotation_text_once(parsed_texts):
    text = format_action_spec(lift_action(specbuild.z2z3_descriptor()))
    spec = parse_action_spec_text(text)
    doc = json.loads(text)
    entries = doc["theta1"] + [v for row in doc["theta2"] for v in row]
    assert len(entries) > len(set(entries))
    assert sorted(parsed_texts) == sorted(set(entries))
    assert spec == lift_action(specbuild.z2z3_descriptor())
    parsed_texts.clear()
    parse_descriptor_text(format_descriptor(specbuild.z2z3_descriptor()))
    assert len(parsed_texts) == len(set(parsed_texts)) > 0


def test_document_reads_share_no_state(parsed_texts):
    first = parse_action_spec_text(SWAP_DOC)
    second = parse_action_spec_text(SWAP_DOC)
    assert first == second
    # each read parses its own texts and builds its own values
    assert parsed_texts == ["0", "1/2"] * 2
    assert first.theta1[1] is not second.theta1[1]


def test_document_diagnostics():
    with pytest.raises(ValueError, match="malformed document"):
        parse_action_spec_text("{not json")
    with pytest.raises(ValueError, match="JSON object"):
        parse_action_spec_text("[1, 2]")
    with pytest.raises(ValueError, match="missing field 'theta1'"):
        parse_action_spec_text(SWAP_DOC.replace('"theta1": ["0", "1/2"],', ""))
    with pytest.raises(ValueError, match="theta1 must list one fraction per"):
        parse_action_spec_text(SWAP_DOC.replace('["0", "1/2"]', '["0"]'))
    with pytest.raises(ValueError, match="alpha entries must be 1 or -1"):
        parse_action_spec_text(SWAP_DOC.replace("[1, 1]", "[1, 2]"))
    with pytest.raises(ValueError, match="alpha entries must be 1 or -1"):
        parse_action_spec_text(SWAP_DOC.replace("[1, 1]", "[1, true]"))
    with pytest.raises(ValueError, match="1-based indices"):
        parse_action_spec_text(SWAP_DOC.replace("[[1, 2], [2, 1]]",
                                                "[[0, 1], [1, 0]]"))
    with pytest.raises(ValueError, match="beta must list one permutation"):
        parse_action_spec_text(SWAP_DOC.replace("[[1, 2], [2, 1]]", "[[1, 2]]"))
    # caught by the reader, before the short theta2 row that follows it
    repeated = SWAP_DOC.replace("[[1, 2], [2, 1]]", "[[1, 2], [1, 1]]")
    with pytest.raises(ValueError, match=re.escape(
            "beta row 1: index 1 repeats, entries are a permutation of 1..2")):
        parse_action_spec_text(repeated.replace('["0", "0"]]', '["0"]]'))
    with pytest.raises(ValueError, match="theta2 must list 2 boundary rows"):
        parse_action_spec_text(
            SWAP_DOC.replace('[["0", "0"], ["0", "0"]]', '[["0", "0"]]'))
    with pytest.raises(ValueError, match="decimal fractions"):
        parse_action_spec_text(SWAP_DOC.replace('"theta1": ["0", "1/2"]',
                                                '"theta1": ["0", 0.5]'))


def test_group_field_variants(tmp_path):
    inline = SWAP_DOC.replace(
        '"cyclic:2"',
        '{"order": 2, "table": [[0, 1], [1, 0]]}')
    assert parse_action_spec_text(inline) == specbuild.z2_swap_spec()

    table = tmp_path / "z2.grp"
    table.write_text("2\n0 1\n1 0\n", encoding="utf-8")
    doc = tmp_path / "swap.json"
    doc.write_text(SWAP_DOC.replace('"cyclic:2"', '{"file": "z2.grp"}'),
                   encoding="utf-8")
    assert load_action_spec(doc) == specbuild.z2_swap_spec()

    with pytest.raises(ValueError, match="cannot read group file"):
        parse_action_spec_text(
            SWAP_DOC.replace('"cyclic:2"', '{"file": "missing.grp"}'),
            base_dir=tmp_path)
    with pytest.raises(ValueError, match="'order' and 'table'"):
        parse_action_spec_text(SWAP_DOC.replace('"cyclic:2"', '{"order": 2}'))
    with pytest.raises(ValueError, match="constructor string or an object"):
        parse_action_spec_text(SWAP_DOC.replace('"cyclic:2"', "7"))


def test_group_table_entries_are_ints():
    # True and 1.0 equal 1, but a document holding them cannot be read back
    for entry in (True, 1.0):
        with pytest.raises(ValueError, match=r"is not an integer in \[0, 2\)"):
            FiniteGroup(((0, entry), (entry, 0)))
    spec = replace(specbuild.z2_swap_spec(), group=FiniteGroup(((0, 1), (1, 0))))
    assert parse_action_spec_text(format_action_spec(spec)) == spec


def test_load_reports_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_action_spec(tmp_path / "absent.json")


def test_document_round_trips():
    for spec in [specbuild.z4_swap_spec(), specbuild.z2z3_block_spec(),
                 specbuild.reflection_spec()]:
        assert parse_action_spec_text(format_action_spec(spec)) == spec
    for descriptor in [specbuild.z2_lens_descriptor(), specbuild.z2z3_descriptor()]:
        assert parse_descriptor_text(format_descriptor(descriptor)) == descriptor


LENS_DOC = """
{
  "symbol": "(1,n2|(2,1))",
  "group": "cyclic:2",
  "epsilon": [1, -1],
  "beta_bar": [[1], [1]],
  "theta2_bar": [["0", "0"]]
}
"""


def test_parse_descriptor_document():
    assert parse_descriptor_text(LENS_DOC) == specbuild.z2_lens_descriptor()


@pytest.mark.parametrize("edits, message", [
    ([("[1, -1]", "[1, 2]")], "epsilon entries must be 1 or -1, got 2"),
    ([("[1, -1]", "[1, true]")], "epsilon entries must be 1 or -1, got True"),
    ([('"epsilon": [1, -1],', "")], "missing field 'epsilon'"),
    ([("[[1], [1]]", "[[0], [1]]")], "beta_bar row 0: entries are 1-based indices in 1..1"),
    ([('[["0", "0"]]', '[["0", "0"], ["0", "0"]]')],
     "theta2_bar must list 1 boundary rows, got 2"),
    # two base pairs, one theta2_bar row: the beta_bar fault is read first
    ([("(2,1))", "(2,1),(2,1))"), ("[[1], [1]]", "[[1, 2], [2, 2]]")],
     "beta_bar row 1: index 2 repeats, entries are a permutation of 1..2"),
    # the base's class is tested once the tables are read
    ([("(1,n2|", "(0,o1|")], "descriptor base symbol must be class n2"),
    ([("(1,n2|", "(0,o1|"), ("[1, -1]", "[1, 2]")], "epsilon entries must be 1 or -1, got 2"),
], ids=["epsilon-2", "epsilon-true", "missing-epsilon", "beta_bar-0", "theta2_bar-rows",
        "beta_bar-repeat", "o1-base", "o1-base-epsilon-2"])
def test_descriptor_document_diagnostics(edits, message):
    doc = LENS_DOC
    for old, new in edits:
        doc = doc.replace(old, new)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_descriptor_text(doc)


Z2_GROUP = {"order": 2, "table": [[0, 1], [1, 0]]}


def test_format_goldens():
    # exact text: key order, indentation, fractions as strings, the
    # boundary-indexed theta2 rows and the 1-based beta rows
    assert format_action_spec(specbuild.z2_swap_spec()) == json.dumps({
        "symbol": "(0,o1|(2,1),(2,1))", "group": Z2_GROUP,
        "theta1": ["0", "1/2"], "alpha": [1, 1], "beta": [[1, 2], [2, 1]],
        "theta2": [["0", "0"], ["0", "0"]],
    }, indent=2) + "\n"
    assert format_descriptor(specbuild.z2_lens_descriptor()) == json.dumps({
        "symbol": "(1,n2|(2,1))", "group": Z2_GROUP,
        "epsilon": [1, -1], "beta_bar": [[1], [1]], "theta2_bar": [["0", "0"]],
    }, indent=2) + "\n"
