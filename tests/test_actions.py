"""Action-spec validation, fillings, the covering translation, lift/project,
and the document format."""

import importlib.util
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

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
    group_from_constructor,
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
from specbuild import ZERO, replace

F = Fraction
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


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
    # the records themselves, checked before any of their fields is read
    # (each once escaped as an AttributeError)
    for changes, message in [
            (dict(symbol="(0,o1|(2,1),(2,1))"), "symbol must be a SeifertSymbol, got str"),
            (dict(group=((0, 1), (1, 0))), "group must be a FiniteGroup, got tuple"),
            (dict(symbol=None, group=None), "symbol must be a SeifertSymbol, got NoneType")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(swap, **changes)


@pytest.mark.parametrize("field, value, message", [
    ("theta1", [ZERO, F(1, 2)], "theta1 must be a tuple, got list"),
    ("alpha", [1, 1], "alpha must be a tuple, got list"),
    ("beta", [(0, 1), (1, 0)], "beta must be a tuple, got list"),
    ("beta", ((0, 1), [1, 0]), "beta row must be a tuple, got list"),
    ("theta2", ([ZERO, ZERO], (ZERO, ZERO)), "theta2 row must be a tuple, got list"),
])
def test_spec_tables_must_be_tuples(field, value, message):
    # a list table once passed, then failed law identity against the
    # tuple identity datum and could not be hashed
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(specbuild.z2_swap_spec(), **{field: value})


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

    # a composer is built from the datum of h and called once per g
    def counted(law, composer):
        def counted_composer(b, mod):
            compose = composer(b, mod)

            def count(a):
                counts[law] += 1
                return compose(a)
            return count
        return law, counted_composer

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


def test_law_scans_at_zero_and_one_pairs():
    # valid coboundary data on n = 0 and n = 1 indices (composers over no
    # index and over one), and one entry of it changed, against the naive
    # scans, for specs and for descriptors
    rng = random.Random(5106)
    groups = [cyclic_group(m) for m in (1, 2, 3, 4, 6)] + [
        seifert.direct_product(cyclic_group(2), cyclic_group(2))]
    spec_laws, descriptor_laws = set(), set()
    for _ in range(400):
        group, n = rng.choice(groups), rng.randrange(2)
        m = group.order
        # on these groups the parity of the index is a homomorphism to +-1
        signs = tuple((-1) ** g for g in group.elements()) if m % 2 == 0 and rng.randrange(2) \
            else (1,) * m
        t, v = F(rng.randrange(6), 6), tuple(F(rng.randrange(5), 5) for _ in range(n))
        spec = specbuild.coboundary_action("(0,o1|(3,1))" if n else "(0,o1|)", group, signs,
                                           ((0,) * n,) * m, t, v)
        # the folded coboundary theta2_bar(g) = epsilon(g)*v - v
        epsilon, rows = signs, tuple(tuple((e * x - x) % 1 for x in v) for e in signs)
        g, edit = rng.randrange(m), rng.randrange(4)
        if edit == 0:
            spec = replace(spec, alpha=spec.alpha[:g] + (-spec.alpha[g],) + spec.alpha[g + 1:])
            epsilon = signs[:g] + (-signs[g],) + signs[g + 1:]
        elif edit == 1:
            spec = replace(spec, theta1=spec.theta1[:g] + ((spec.theta1[g] + F(1, 4)) % 1,)
                           + spec.theta1[g + 1:])
        elif edit == 2 and n:
            spec = replace(spec, theta2=spec.theta2[:g] + (((spec.theta2[g][0] + F(1, 7)) % 1,),)
                           + spec.theta2[g + 1:])
            rows = rows[:g] + (((rows[g][0] + F(1, 7)) % 1,),) + rows[g + 1:]
        descriptor = ProjectedActionDescriptor(parse_symbol("(1,n2|(2,1))" if n else "(1,n2|)"),
                                               group, epsilon, ((0,) * n,) * m, rows)
        report = validate_action_spec(spec)
        assert (report.ok, report.law, report.witness) == oracles.law_scan(spec)
        folded = validate_descriptor(descriptor)
        assert (folded.ok, folded.law, folded.witness) == oracles.folded_law_scan(descriptor)
        spec_laws.add((n, report.law))
        descriptor_laws.add((n, folded.law))
    assert spec_laws >= {(0, None), (0, "identity"), (0, "alpha"), (0, "theta1"), (1, None),
                         (1, "identity"), (1, "alpha"), (1, "theta1"), (1, "theta2")}
    assert descriptor_laws >= {(0, None), (0, "identity"), (0, "epsilon"), (1, None),
                               (1, "identity"), (1, "epsilon"), (1, "theta2_bar")}


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
    # raised IndexError; with no pairs the range once read 0..-1
    spec = specbuild.z4_swap_spec()
    bare = specbuild.trivial_spec("(0,o1|)", cyclic_group(2))
    for spec, i, g, message in ((spec, -1, 1, "boundary index must be in 0..1"),
                                (spec, 2, 1, "boundary index must be in 0..1"),
                                (spec, 0, -1, "group element must be in 0..3"),
                                (spec, 0, 4, "group element must be in 0..3"),
                                (bare, 0, 0, r"^symbol \(0,o1\|\) has no boundary pairs$")):
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


def test_projection_keeps_the_constructor_view():
    # project_action builds the descriptor from the fronts of the spec's
    # integer view, at the spec's N; that must be the view the checked
    # constructor stores in the descriptor from its Fractions
    rng = random.Random(60623)
    specs = [specbuild.z2_swap_spec(), specbuild.z2z3_block_spec(),
             specbuild.mixed_crossing_spec(), lift_action(specbuild.z2z3_descriptor())]
    while len(specs) < 400:
        spec = _random_cyclic_action(rng)
        if spec is not None and check_tau_commuting(spec):
            specs.append(spec)
    epsilons = set()
    for spec in specs:
        d = project_action(spec)
        assert "_int_view" in d.__dict__
        fresh = ProjectedActionDescriptor(d.base, d.group, d.epsilon, d.beta_bar, d.theta2_bar)
        assert fresh == d and fresh._int_view == d._int_view
        epsilons.add(-1 in d.epsilon)
    assert epsilons == {True, False}


def _random_descriptor(rng) -> ProjectedActionDescriptor:
    """A descriptor of random shape over Z_m, laws unchecked; its rotation
    denominators are odd, so its lift doubles N wherever some epsilon is -1."""
    m, n = rng.randint(1, 5), rng.randint(0, 3)
    base = parse_symbol("(1,n2|" + ",".join(["(3,1)"] * n) + ")")
    return ProjectedActionDescriptor(
        base, cyclic_group(m), tuple(rng.choice((1, -1)) for _ in range(m)),
        tuple(tuple(rng.sample(range(n), n)) for _ in range(m)),
        tuple(tuple(F(rng.randrange(d), d) for _ in range(n))
              for d in (rng.choice((1, 3, 5, 9, 15)) for _ in range(m))))


def test_constructed_records_hold_their_integer_view_from_birth():
    # the checked constructor stores the integer view _from_view builds a
    # record with from the same integer tables, N the lcm of the rotations'
    # denominators, doubled for a descriptor's lift with an odd N and some
    # epsilon -1
    rng = random.Random(60631)
    records = [getattr(specbuild, name)() for name in dir(specbuild)
               if name.endswith(("_spec", "_descriptor"))
               and name not in ("trivial_spec", "faithful_rotation_spec")]
    records.append(ProjectedActionDescriptor(
        parse_symbol("(1,n2|(3,1))"), cyclic_group(2), (1, -1), ((0,), (0,)),
        ((ZERO,), (F(1, 3),))))
    while len(records) < 300:
        spec = _random_cyclic_action(rng)
        records += [spec] if spec is not None else []
        records.append(_random_descriptor(rng))
    doubled = set()
    for record in records:
        assert "_int_view" in record.__dict__
        kinds, tables = record._tables.values(), [getattr(record, name) for name in record._tables]
        rotations = [v for kind, table in zip(kinds, tables) if kind == "rotation" for v in table]
        rotations += [v for kind, table in zip(kinds, tables) if kind == "rotation rows"
                      for row in table for v in row]
        mod = math.lcm(*(v.denominator for v in rotations))
        scaled = [tuple(int(v * mod) for v in table) if kind == "rotation"
                  else tuple(tuple(int(v * mod) for v in row) for row in table)
                  if kind == "rotation rows" else table for kind, table in zip(kinds, tables)]
        built = seifert.actions._from_view(type(record), record._values[0], record.group,
                                           mod, *scaled)
        assert built == record and record.__dict__["_int_view"] == built._int_view
        doubled.add(record._int_view[0] == 2 * mod)
    assert doubled == {True, False}


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
    for fields, message in [
            (([1, -1], good.beta_bar, good.theta2_bar), "epsilon must be a tuple, got list"),
            ((good.epsilon, ([0], (0,)), good.theta2_bar), "beta_bar row must be a tuple, got list"),
            ((good.epsilon, good.beta_bar, [(ZERO,), (ZERO,)]), "theta2_bar must be a tuple, got list"),
            ((good.epsilon, good.beta_bar, ((ZERO,), [ZERO])),
             "theta2_bar row must be a tuple, got list")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProjectedActionDescriptor(good.base, good.group, *fields)
    for base, group, message in [
            ("(1,n2|(2,1))", good.group, "base must be a SeifertSymbol, got str"),
            (good.base, ((0, 1), (1, 0)), "group must be a FiniteGroup, got tuple")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProjectedActionDescriptor(base, group, good.epsilon, good.beta_bar, good.theta2_bar)


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


def test_read_projected_and_lifted_records_are_not_rescaled(monkeypatch):
    # documents, projections and lifts are built with their integer view:
    # only a record built by its checked constructor scales its Fractions,
    # in its shape check
    calls = []
    for cls in (ExtendedProductActionSpec, ProjectedActionDescriptor):
        def counted(record, check=cls.__post_init__):
            calls.append(record)
            return check(record)
        monkeypatch.setattr(cls, "__post_init__", counted)
    commuting = [specbuild.z2_swap_spec(), specbuild.z2z3_block_spec(),
                 lift_action(specbuild.z2z3_descriptor())]
    texts = [format_action_spec(spec)
             for spec in commuting + [specbuild.z2_z32_spec(), specbuild.d16_spec()]]
    calls.clear()
    for k, text in enumerate(texts):
        read = parse_action_spec_text(text)
        analyze_structure(read)
        beta_orbit_numbers(read)
        if k < len(commuting):
            assert check_tau_commuting(read)
            assert validate_descriptor(project_action(read))
            descriptor = parse_descriptor_text(format_descriptor(project_action(read)))
            assert validate_descriptor(descriptor)
            assert validate_action_spec(lift_action(descriptor))
    assert calls == []
    assert validate_action_spec(specbuild.z2_swap_spec())
    assert len(calls) == 1


def test_equal_rotations_of_a_built_record_are_one_fraction():
    # a read document, a projection and a lift hold one Fraction object
    # per distinct rotation value, shared by every entry equal to it
    def entries(record):
        rows = (record.theta2_bar if isinstance(record, ProjectedActionDescriptor)
                else (record.theta1, *record.theta2))
        return [v for row in rows for v in row]
    descriptor = ProjectedActionDescriptor(
        parse_symbol("(1,n2|(3,1),(3,1))"), cyclic_group(3), (1, 1, 1),
        ((0, 1),) * 3, tuple((F(g, 3), F(g, 3)) for g in range(3)))
    lifted = lift_action(descriptor)
    read = parse_action_spec_text(format_action_spec(lifted))
    projected = project_action(read)
    records = [lifted, read, projected, parse_descriptor_text(format_descriptor(projected))]
    records += [parse_action_spec_text(format_action_spec(spec))
                for spec in (specbuild.z2_z32_spec(), specbuild.d16_spec())]
    for record in records:
        values = entries(record)
        assert len(set(values)) < len(values)
        assert len({id(v) for v in values}) == len(set(values))


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
    """Every value the document reader reads as a fraction, in order."""
    seen = []
    parse = seifert.actions._fraction_terms

    def counted(text):
        seen.append(text)
        return parse(text)
    monkeypatch.setattr(seifert.actions, "_fraction_terms", counted)
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
    # each read parses its own texts and builds its own values; only the
    # group, named in the document and immutable, is one object for both
    assert parsed_texts == ["0", "1/2"] * 2
    assert first.theta1[1] is not second.theta1[1]
    assert first.group is second.group


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
    # a file group is written inline, as a table given inline is
    assert format_action_spec(load_action_spec(doc)) == format_action_spec(
        specbuild.z2_swap_spec())
    assert format_action_spec(parse_action_spec_text(inline)) == format_action_spec(
        specbuild.z2_swap_spec())
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


def document(data) -> dict:
    """The document of a spec or descriptor as a JSON value, field by field."""
    symbol = data.symbol if isinstance(data, ExtendedProductActionSpec) else data.base

    def by_index(rows):
        # rotation rows are written one per boundary index
        return [[str(row[i]) for row in rows] for i in range(len(symbol.pairs))]

    if isinstance(data, ExtendedProductActionSpec):
        tables = {"theta1": [str(v) for v in data.theta1], "alpha": list(data.alpha),
                  "beta": [[v + 1 for v in row] for row in data.beta],
                  "theta2": by_index(data.theta2)}
    else:
        tables = {"epsilon": list(data.epsilon),
                  "beta_bar": [[v + 1 for v in row] for row in data.beta_bar],
                  "theta2_bar": by_index(data.theta2_bar)}
    group = data.group._constructor or {"order": data.group.order,
                                        "table": [list(row) for row in data.group.table]}
    return {"symbol": str(symbol), "group": group, **tables}


def specbuild_records() -> list:
    """Every spec and descriptor a specbuild builder makes with no argument."""
    return [build() for build in vars(specbuild).values()
            if getattr(build, "__module__", None) == "specbuild" and callable(build)
            and not build.__code__.co_argcount and build.__name__ != "F"]


def constructor_text(group: FiniteGroup) -> str | None:
    """A ``cyclic:`` or two-factor ``product:`` text that builds group's table."""
    m = group.order
    texts = [f"cyclic:{m}"] + [f"product:cyclic:{a},cyclic:{m // a}"
                               for a in range(2, m) if m % a == 0]
    return next((t for t in texts if group_from_constructor(t).table == group.table), None)


def named_version(data):
    """data over its group built from a constructor text, or None if it has none."""
    text = constructor_text(data.group)
    return text and replace(data, group=group_from_constructor(text))


def test_writer_is_the_json_layout():
    # the writer joins whole rows; its bytes are json.dumps's at every
    # size that changes a row's shape: one element, no pairs, one pair
    cases = [specbuild.trivial_spec("(0,o1|(2,1))", cyclic_group(1)),
             specbuild.trivial_spec("(0,o1|)", cyclic_group(1)),
             specbuild.trivial_spec("(0,o1|)", cyclic_group(3)),
             ExtendedProductActionSpec(parse_symbol("(0,o1|)"), cyclic_group(2),
                                       (ZERO, F(1, 2)), (1, 1), ((), ()), ((), ())),
             specbuild.faithful_rotation_spec(12),
             ProjectedActionDescriptor(parse_symbol("(1,n2|)"), cyclic_group(1), (1,), ((),), ((),)),
             ProjectedActionDescriptor(parse_symbol("(1,n2|)"), cyclic_group(2), (1, -1),
                                       ((), ()), ((), ()))]
    cases += specbuild_records()
    assert sum(isinstance(c, ProjectedActionDescriptor) for c in cases) >= 4 and len(cases) >= 18
    # and with the group named by its constructor text
    named = [named_version(data) for data in cases]
    cases += [data for data in named if data is not None]
    assert sum(isinstance(c, ProjectedActionDescriptor) for c in cases) >= 8 and len(cases) >= 34
    for data in cases:
        write = format_action_spec if isinstance(data, ExtendedProductActionSpec) else format_descriptor
        assert write(data) == json.dumps(document(data), indent=2) + "\n"


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


def assert_named_round_trip(data):
    """data, over a named group, is written by name and reads back equal,
    over the kept group, and is written again to the same bytes."""
    spec = isinstance(data, ExtendedProductActionSpec)
    write, read = ((format_action_spec, parse_action_spec_text) if spec
                   else (format_descriptor, parse_descriptor_text))
    text = write(data)
    assert json.loads(text)["group"] == data.group._constructor
    back = read(text)
    assert back == data and back.group is group_from_constructor(data.group._constructor)
    assert write(back) == text


def test_named_documents_read_back_equal():
    # the specbuild records over their groups named, their projections and
    # lifts, which keep the name
    records = [named_version(data) for data in specbuild_records()]
    records = [data for data in records if data is not None]
    assert sum(isinstance(r, ProjectedActionDescriptor) for r in records) >= 2
    assert len(records) >= 11
    projections = 0
    for data in records:
        assert_named_round_trip(data)
        if isinstance(data, ProjectedActionDescriptor):
            assert_named_round_trip(lift_action(data))
        else:
            try:
                projected = project_action(data)
            except ValueError:   # not doubled in blocks, or does not commute
                continue
            if validate_descriptor(projected):
                assert_named_round_trip(projected)
                projections += 1
    assert projections >= 2


def test_pipeline_documents_over_named_groups_read_back_equal(monkeypatch):
    # the benchmark's valid documents, as it writes them: every one that
    # names its group, and the projections and lifts of the commuting ones
    spec = importlib.util.spec_from_file_location("perfbench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    named = 0
    for seed in (401, 402):
        for _, route, act in inputs.pipeline_actions(seed):
            doc = inputs.action_document(act)
            if not isinstance(doc["group"], str):
                continue
            named += 1
            read = parse_action_spec_text(json.dumps(doc))
            assert_named_round_trip(read)
            if route == "covering-translation":
                projected = project_action(read)
                assert_named_round_trip(projected)
                assert_named_round_trip(lift_action(projected))
    assert named >= 10


def test_padded_constructor_text_is_written_stripped():
    for text in ("  cyclic:3", "cyclic:3\n", "\n product:cyclic:1,cyclic:3 \n"):
        doc = json.loads(format_action_spec(specbuild.z3_rotation_spec()))
        doc["group"] = text
        written = format_action_spec(parse_action_spec_text(json.dumps(doc)))
        assert json.loads(written)["group"] == text.strip()
        assert parse_action_spec_text(written).group.table == cyclic_group(3).table
