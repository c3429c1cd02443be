"""Acceptance checks for the whole package.

Each criterion is a single test that prints one PASS line on success; a
failure shows up as the usual pytest FAILED line for that criterion.
Randomized criteria use fixed seeds so reruns are byte-for-byte stable.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings

import oracles
import specbuild
from specbuild import ZERO
from strategies import valid_specs
from seifert import (
    AbelianGroupStructure,
    ExtendedProductActionSpec,
    Orientability,
    ProjectedActionDescriptor,
    SeifertPair,
    SeifertSymbol,
    abelianize,
    base_quotient,
    check_tau_commuting,
    cyclic_group,
    direct_product,
    equivalent,
    first_homology,
    lift_action,
    normalize,
    obstruction_class,
    obstruction_witness,
    orientable_double_cover,
    parse_symbol,
    pi1_nonorientable,
    pi1_orientable,
    project_action,
    analyze_structure,
    beta_orbit_numbers,
    smith_normal_form,
    total_sum,
    validate_action_spec,
    validate_descriptor,
)
from seifert.actions import _from_view
from seifert.cli import main


def _pass(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} ({name}): PASS")


# -- random generators shared by several criteria --------------------------

def random_pair(rng, max_q, max_p):
    while True:
        q = rng.randint(1, max_q)
        p = rng.randint(-max_p, max_p)
        if math.gcd(q, p) == 1:
            return SeifertPair(q, p)


def random_symbol(rng, max_pairs=6, max_q=12, max_p=30, min_pairs=0,
                  classes=(Orientability.O1, Orientability.N2)):
    ori = rng.choice(classes)
    genus = rng.randint(1 if ori is Orientability.N2 else 0, 3)
    count = rng.randint(min_pairs, max_pairs)
    return SeifertSymbol(
        genus, ori, tuple(random_pair(rng, max_q, max_p) for _ in range(count)))


def random_walk(rng, symbol, steps):
    # applies only sum/genus/class preserving rewrites, so the result is
    # equivalent to the input by construction and within oracle depth
    pairs = [(pr.q, pr.p) for pr in symbol.pairs]
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.25:
            pairs.append((1, 0))
        elif roll < 0.45 and (1, 0) in pairs:
            pairs.remove((1, 0))
        elif pairs:
            i = rng.randrange(len(pairs))
            q, p = pairs[i]
            sign = rng.choice((1, -1))
            if abs(p + sign * q) <= 8:
                pairs[i] = (q, p + sign * q)
                pairs.append((1, -sign))
        rng.shuffle(pairs)
    return SeifertSymbol(
        symbol.genus, symbol.orientability,
        tuple(SeifertPair(q, p) for q, p in pairs))


@pytest.fixture(scope="module")
def equivalence_corpus():
    rng = random.Random(271828)
    small = dict(max_pairs=4, max_q=6, max_p=8)
    corpus = []
    for _ in range(80):
        a = random_symbol(rng, **small)
        corpus.append(("walk", a, random_walk(rng, a, rng.randint(1, 6))))
    for _ in range(80):
        a = random_symbol(rng, **small)
        while True:
            b = random_symbol(rng, **small)
            if not equivalent(a, b):
                break
        corpus.append(("independent", a, b))
    for _ in range(60):
        a = random_symbol(rng, min_pairs=1, **small)
        i = rng.randrange(len(a.pairs))
        q, p = a.pairs[i].q, a.pairs[i].p
        bumped = list(a.pairs)
        bumped[i] = SeifertPair(q, p + q * rng.choice((1, -1)))
        corpus.append(
            ("perturbed", a,
             SeifertSymbol(a.genus, a.orientability, tuple(bumped))))
    return corpus


# -- criteria --------------------------------------------------------------

def test_criterion_01_normalization_invariants():
    rng = random.Random(40961)
    started = time.perf_counter()
    for _ in range(1000):
        symbol = random_symbol(rng)
        norm = normalize(symbol)
        expanded = norm.expand()
        assert total_sum(expanded) == total_sum(symbol)
        assert normalize(expanded) == norm
        assert norm.genus == symbol.genus
        assert norm.orientability is symbol.orientability
        for pair in norm.exceptional:
            assert pair.q >= 2 and 0 < pair.p < pair.q
        assert list(norm.exceptional) == sorted(
            norm.exceptional, key=lambda pr: (pr.q, pr.p))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(1, "normalization invariants")


def test_criterion_02_equivalence_matches_move_oracle(equivalence_corpus):
    started = time.perf_counter()
    assert len(equivalence_corpus) >= 200
    for kind, a, b in equivalence_corpus:
        claimed = equivalent(a, b)
        reachable = oracles.moves_connect(a, b)
        assert claimed == reachable, (kind, str(a), str(b))
        if kind == "walk":
            assert claimed
        if kind == "perturbed":
            assert not claimed
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _pass(2, "equivalence agrees with the move oracle")


def test_criterion_03_cover_goldens_and_quotient_inversion():
    goldens = [
        ("(1,n2|(2,1))", "(0,o1|(2,1),(2,1))"),
        ("(1,n2|(3,1))", "(0,o1|(3,1),(3,1))"),
        ("(2,n2|(3,2))", "(1,o1|(3,2),(3,2))"),
        ("(1,n2|(5,2),(1,1))", "(0,o1|(5,2),(1,1),(5,2),(1,1))"),
    ]
    for base_text, cover_text in goldens:
        base = parse_symbol(base_text)
        cover = orientable_double_cover(base)
        assert str(cover) == cover_text
        assert base_quotient(cover) == base
    rng = random.Random(5381)
    for _ in range(200):
        base = random_symbol(rng, classes=(Orientability.N2,))
        back = base_quotient(orientable_double_cover(base))
        assert back is not None
        assert equivalent(back, base)
    _pass(3, "double cover goldens and quotient inversion")


def test_criterion_04_cover_doubles_obstruction():
    rng = random.Random(65537)
    for _ in range(500):
        base = random_symbol(rng, classes=(Orientability.N2,))
        cover = orientable_double_cover(base)
        assert obstruction_class(cover) == 2 * obstruction_class(base)
    _pass(4, "double cover doubles the obstruction class")


def _oracle_h1(symbol):
    if symbol.orientability is Orientability.O1:
        pres = pi1_orientable(symbol)
    else:
        pres = pi1_nonorientable(symbol)
    rows = abelianize(pres)
    invariants = oracles.snf_minor_gcd(rows) if rows else []
    nonzero = [d for d in invariants if d != 0]
    return AbelianGroupStructure(
        free_rank=len(pres.generators) - len(nonzero),
        torsion=tuple(d for d in nonzero if d != 1))


def test_criterion_05_homology_against_minor_gcd_oracle():
    goldens = [
        ("(0,o1|(2,1),(2,1))", AbelianGroupStructure(0, (4,))),
        ("(1,n2|(2,1))", AbelianGroupStructure(0, (8,))),
        ("(1,o1|)", AbelianGroupStructure(3, ())),
    ]
    for text, expected in goldens:
        symbol = parse_symbol(text)
        assert first_homology(symbol) == expected
        assert _oracle_h1(symbol) == expected
    rng = random.Random(104729)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        matrix = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        invariants = smith_normal_form(matrix)
        assert invariants == oracles.snf_minor_gcd(matrix)
        if rows == cols:
            product = 1
            for d in invariants:
                product *= d
            assert product == abs(oracles.exact_det(matrix))
    _pass(5, "homology and smith form match the minor gcd oracle")


def test_criterion_06_homology_is_an_equivalence_invariant(equivalence_corpus):
    checked = 0
    for kind, a, b in equivalence_corpus:
        if kind != "walk":
            continue
        assert first_homology(a) == first_homology(b)
        checked += 1
    assert checked >= 50
    _pass(6, "equivalent symbols share first homology")


def test_criterion_07_validator_agrees_with_naive_law_scan():
    known_laws = {"identity", "alpha", "theta1", "beta", "theta2", "pairs"}
    bases = [
        specbuild.z4_swap_spec(),
        specbuild.z2_swap_spec(),
        specbuild.z2z3_block_spec(),
        specbuild.mixed_crossing_spec(),
    ]
    for base in bases:
        assert validate_action_spec(base).ok
        assert oracles.law_scan(base)[0]
    rng = random.Random(90017)
    rejected = 0
    accepted = 0
    step = 0
    while rejected < 1000 and step < 2000:
        base = bases[step % len(bases)]
        mutant = _edit_element(rng, base, rng.randrange(base.group.order))
        step += 1
        report = validate_action_spec(mutant)
        assert report.ok == oracles.law_scan(mutant)[0]
        if report.ok:
            accepted += 1
            continue
        rejected += 1
        assert report.law in known_laws
        assert report.witness is not None
        assert report.message
    # most single-entry edits break a law, a few land on another valid
    # datum; both directions must actually occur for the agreement check
    # to mean anything
    assert rejected >= 1000
    assert accepted >= 20
    _pass(7, "validator agrees with a naive law scan on mutants")


def _edit_element(rng, spec, k) -> ExtendedProductActionSpec:
    """spec with one entry of the datum of element k changed."""
    return _edit(rng, spec, rng.choice(("theta1", "alpha", "beta", "theta2")), k)


def _edit(rng, spec, field, k) -> ExtendedProductActionSpec:
    """spec with one entry of field at element k changed (beta needs two pairs)."""
    rows = list(getattr(spec, field))
    shift = Fraction(rng.randint(1, 11), 12)
    n = len(spec.symbol.pairs)
    if field == "alpha":
        rows[k] = -rows[k]
    elif field == "theta1":
        rows[k] = (rows[k] + shift) % 1
    elif field == "beta" and n > 1:
        row = list(rows[k])
        i, j = rng.sample(range(n), 2)
        row[i], row[j] = row[j], row[i]
        rows[k] = tuple(row)
    else:
        field, rows = "theta2", list(spec.theta2)
        i = rng.randrange(n)
        rows[k] = rows[k][:i] + ((rows[k][i] + shift) % 1,) + rows[k][i + 1:]
    return specbuild.replace(spec, **{field: tuple(rows)})


def test_non_generator_edits_agree_with_naive_law_scan():
    # the generators' data stay intact, so only the G x S rows through
    # the edited element see the edit, and the full-scan fallback must
    # name the same first witness as the naive scan
    rng = random.Random(90023)
    bases = [specbuild.z4_swap_spec(), specbuild.z2z3_block_spec(), specbuild.z6_rotation_spec(),
             specbuild.faithful_rotation_spec(12), specbuild.alternating_alpha_spec(),
             lift_action(specbuild.z2z3_descriptor())]
    bases += [lift_action(_random_descriptor(rng)) for _ in range(20)]
    laws = set()
    verdicts = []
    for step in range(600):
        base = bases[step % len(bases)]
        others = [k for k in base.group.elements() if k and k not in base.group.generators]
        if not others:
            continue
        assert oracles.law_scan(base) == (True, None, None)
        mutant = _edit_element(rng, base, rng.choice(others))
        report = validate_action_spec(mutant)
        assert (report.ok, report.law, report.witness) == oracles.law_scan(mutant)
        laws.add(report.law)
        verdicts.append(report.ok)
    # the generators' data determine every datum, so no edit survives
    assert verdicts and not any(verdicts)
    assert laws == {"alpha", "theta1", "beta", "theta2"}
    # the Z2 factor of Z2 x Z4 (generators 1 and 4) swaps two unequal
    # pairs, so the generator 4 and the non-generators 5, 6, 7 move them
    group = direct_product(cyclic_group(2), cyclic_group(4))
    moved = ExtendedProductActionSpec(parse_symbol("(0,o1|(5,1),(2,1),(3,1))"), group,
                                      (ZERO,) * 8, (1,) * 8, ((0, 1, 2),) * 4 + ((0, 2, 1),) * 4,
                                      ((ZERO,) * 3,) * 8)
    report = validate_action_spec(moved)
    assert group.generators == (1, 4)
    assert (report.ok, report.law, report.witness) == oracles.law_scan(moved) == (
        False, "pairs", (4, 1))


# the fields an edit changes, in the order their laws are scanned
LAW_FIELDS = ("alpha", "theta1", "beta", "theta2")


def test_multi_law_mutants_agree_with_naive_law_scan():
    # two or three edits in different fields at different elements: the
    # report names the first law of the full scan whichever edit the G x S
    # test meets first, with the witness that scan names
    rng = random.Random(90031)
    bases = [specbuild.z4_swap_spec(), specbuild.z2_swap_spec(), specbuild.z2z3_block_spec(),
             specbuild.mixed_crossing_spec(), specbuild.z6_rotation_spec(),
             specbuild.faithful_rotation_spec(12), specbuild.alternating_alpha_spec(),
             lift_action(specbuild.z2z3_descriptor()), specbuild.z2_z32_spec(),
             specbuild.d16_spec()]
    bases += [lift_action(_random_descriptor(rng)) for _ in range(6)]
    laws = set()
    for step in range(320):
        base = bases[step % len(bases)]
        fields = [f for f in LAW_FIELDS if f != "beta" or len(base.symbol.pairs) > 1]
        count = min(rng.choice((2, 3)), base.group.order)
        # an edit breaks its own law, so theta2 is reported only when every
        # edit is in theta2: every fourth mutant is one of those
        chosen = rng.sample(fields, count) if step % 4 else ["theta2"] * count
        mutant = base
        for field, k in zip(chosen, rng.sample(base.group.elements(), count)):
            mutant = _edit(rng, mutant, field, k)
        report = validate_action_spec(mutant)
        assert (report.ok, report.law, report.witness) == oracles.law_scan(mutant)
        laws.add(report.law)
    assert laws == {"identity", "alpha", "theta1", "beta", "theta2"}
    # an earlier law broken only at a non-generator, a later one at a
    # generator: the generator's rows fail the later law on G x S first,
    # and the earlier law is still the one reported.  An edit breaks its
    # own law and perhaps later ones, never an earlier one
    early_laws = set()
    for base in bases:
        generators = base.group.generators
        others = [k for k in base.group.elements() if k and k not in generators]
        fields = [f for f in LAW_FIELDS if f != "beta" or len(base.symbol.pairs) > 1]
        if not others:
            continue
        for early, late in combinations(fields, 2):
            mutant = _edit(rng, _edit(rng, base, early, rng.choice(others)),
                           late, rng.choice(generators))
            report = validate_action_spec(mutant)
            assert (report.ok, report.law, report.witness) == oracles.law_scan(mutant)
            assert report.law == early
            early_laws.add(early)
    assert early_laws == {"alpha", "theta1", "beta"}


def _mutate_descriptor(rng, d) -> ProjectedActionDescriptor:
    k = rng.randrange(d.group.order)
    return _edit_descriptor(rng, d, rng.choice(DESCRIPTOR_FIELDS), k)


# the fields a descriptor edit changes, in the order their laws are scanned
DESCRIPTOR_FIELDS = ("epsilon", "beta_bar", "theta2_bar")


def _edit_descriptor(rng, d, field, k) -> ProjectedActionDescriptor:
    """d with one entry of field at element k changed (beta_bar needs two pairs)."""
    n = len(d.base.pairs)
    epsilon = list(d.epsilon)
    beta_bar = [list(row) for row in d.beta_bar]
    theta2_bar = [list(row) for row in d.theta2_bar]
    if field == "epsilon":
        epsilon[k] = -epsilon[k]
    elif field == "beta_bar" and n > 1:
        i, j = rng.sample(range(n), 2)
        beta_bar[k][i], beta_bar[k][j] = beta_bar[k][j], beta_bar[k][i]
    else:
        i = rng.randrange(n)
        while True:
            value = Fraction(rng.randint(0, 11), rng.randint(1, 12)) % 1
            if value != theta2_bar[k][i]:
                break
        theta2_bar[k][i] = value
    return ProjectedActionDescriptor(
        d.base, d.group, tuple(epsilon),
        tuple(tuple(row) for row in beta_bar), tuple(tuple(row) for row in theta2_bar))


def test_descriptor_validator_agrees_with_naive_folded_scan():
    # validate_descriptor reads the spec laws on the lift; the oracle
    # scans the folded laws directly, and both must name the same witness
    bases = [
        specbuild.z2_lens_descriptor(),
        specbuild.z2z3_descriptor(),
        project_action(specbuild.z2z3_block_spec()),
        project_action(specbuild.z2_swap_spec()),
        project_action(specbuild.mixed_crossing_spec()),
        # unequal pairs: a swap at the involution breaks only the pairs law
        ProjectedActionDescriptor(parse_symbol("(1,n2|(2,1),(3,1))"), cyclic_group(2),
                                  (1, -1), ((0, 1),) * 2, ((ZERO, ZERO),) * 2),
    ]
    rng = random.Random(90019)
    laws = set()
    rejected = accepted = 0
    for step in range(3000):
        mutant = _mutate_descriptor(rng, bases[step % len(bases)])
        report = validate_descriptor(mutant)
        assert (report.ok, report.law, report.witness) == oracles.folded_law_scan(mutant)
        if report.ok:
            accepted += 1
        else:
            rejected += 1
            laws.add(report.law)
            assert report.message.startswith(
                {"epsilon": "epsilon(", "beta_bar": "beta_bar(", "theta2_bar": "theta2_bar(",
                 "pairs": "beta_bar(", "identity": "the identity"}[report.law])
    assert rejected >= 1000 and accepted >= 20
    assert laws == {"identity", "epsilon", "beta_bar", "theta2_bar", "pairs"}


def test_descriptor_two_edit_mutants_agree_with_naive_folded_scan():
    # an earlier field edited at a non-generator and a later field (or the
    # same one) at a generator: the generator's rows fail the later law on
    # G x S first, and the report still names the law of the naive folded
    # scan, with its witness
    rng = random.Random(90037)
    bases = [specbuild.z2z3_descriptor(), project_action(specbuild.z2z3_block_spec())]
    while len(bases) < 24:
        descriptor = _random_descriptor(rng)
        if len(descriptor.group.generators) > 1:
            bases.append(descriptor)
    laws = set()
    for base in bases:
        generators = base.group.generators
        others = [k for k in base.group.elements() if k and k not in generators]
        assert len(generators) > 1 and others and validate_descriptor(base).ok
        fields = [f for f in DESCRIPTOR_FIELDS if f != "beta_bar" or len(base.base.pairs) > 1]
        for early, late in combinations_with_replacement(fields, 2):
            mutant = _edit_descriptor(rng, _edit_descriptor(rng, base, early, rng.choice(others)),
                                      late, rng.choice(generators))
            report = validate_descriptor(mutant)
            assert (report.ok, report.law, report.witness) == oracles.folded_law_scan(mutant)
            # an edit breaks its own law and perhaps later ones, never an earlier one
            if early != late:
                assert report.law == early
            laws.add(report.law)
    # two edits in one field may cancel into data that pass or move a pair
    assert laws >= set(DESCRIPTOR_FIELDS)


def test_criterion_08_covering_translation_goldens():
    ok = check_tau_commuting(specbuild.z2_swap_spec())
    assert ok.ok and ok.condition is None

    thirds = check_tau_commuting(specbuild.z3_rotation_spec())
    assert not thirds.ok
    assert thirds.condition == "half-rotation"
    assert thirds.witness == (1,)

    sigma_break = ExtendedProductActionSpec(
        parse_symbol("(0,o1|(2,1),(2,1),(2,1),(2,1))"), cyclic_group(2),
        (ZERO, ZERO), (1, 1),
        (tuple(range(4)), (1, 0, 2, 3)),
        ((ZERO,) * 4, (ZERO,) * 4))
    assert validate_action_spec(sigma_break).ok
    report = check_tau_commuting(sigma_break)
    assert not report.ok
    assert (report.condition, report.witness) == ("sigma-equivariance", (1, 0))

    merid_break = ExtendedProductActionSpec(
        parse_symbol("(0,o1|(3,1),(3,1))"), cyclic_group(4),
        (ZERO,) * 4, (1,) * 4, (tuple(range(2)),) * 4,
        tuple((Fraction(k, 4), ZERO) for k in range(4)))
    assert validate_action_spec(merid_break).ok
    report = check_tau_commuting(merid_break)
    assert not report.ok
    assert (report.condition, report.witness) == ("meridian-antisymmetry", (1, 0))
    _pass(8, "covering translation goldens")


PAIR_POOL = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (1, 0)]


def _random_descriptor(rng) -> ProjectedActionDescriptor:
    if rng.random() < 0.65:
        m = rng.choice((2, 3, 4, 5, 6, 8, 12))
        group = cyclic_group(m)
        rot_exp = list(range(m))
        rot_mod = m
        even_exp = list(range(m)) if m % 2 == 0 else None
    else:
        m1, m2 = rng.choice(((2, 2), (2, 3), (2, 4), (3, 3), (2, 6), (3, 4)))
        group = direct_product(cyclic_group(m1), cyclic_group(m2))
        rot_exp = [k % m2 for k in range(m1 * m2)]
        rot_mod = m2
        even_exp = [k // m2 for k in range(m1 * m2)] if m1 % 2 == 0 else None

    length = rng.choice([d for d in (1, 2, 3, 4) if rot_mod % d == 0])
    blocks = rng.sample(PAIR_POOL, rng.randint(1, 2))
    pairs = tuple(SeifertPair(q, p) for q, p in blocks for _ in range(length))
    base = SeifertSymbol(rng.randint(1, 2), Orientability.N2, pairs)
    n = len(pairs)

    def rotate(shift):
        perm = []
        for b in range(len(blocks)):
            start = b * length
            perm.extend(start + (k + shift) % length for k in range(length))
        return tuple(perm)

    beta_bar = tuple(rotate(e % length) for e in rot_exp)

    use_parity = even_exp is not None and rng.random() < 0.5
    if use_parity:
        epsilon = tuple(1 if e % 2 == 0 else -1 for e in even_exp)
        twists = [rng.randint(0, 1) for _ in blocks]
        theta2_bar = tuple(
            tuple(Fraction(twists[i // length], 2) if epsilon[g] == -1 else ZERO
                  for i in range(n))
            for g in range(group.order))
    else:
        epsilon = (1,) * group.order
        scale = rng.randint(0, rot_mod - 1)
        mults = [rng.randint(0, 3) for _ in blocks]
        theta2_bar = tuple(
            tuple((mults[i // length] * Fraction(rot_exp[g] * scale, rot_mod)) % 1
                  for i in range(n))
            for g in range(group.order))
    return ProjectedActionDescriptor(base, group, epsilon, beta_bar, theta2_bar)


def test_criterion_09_lift_project_round_trip():
    rng = random.Random(31337)
    descriptors = [specbuild.z2_lens_descriptor(), specbuild.z2z3_descriptor()]
    descriptors += [_random_descriptor(rng) for _ in range(60)]
    for descriptor in descriptors:
        assert validate_descriptor(descriptor).ok
        spec = lift_action(descriptor)
        assert validate_action_spec(spec).ok
        assert check_tau_commuting(spec).ok
        assert project_action(spec) == descriptor
        assert lift_action(project_action(spec)) == spec
    _pass(9, "lift and project invert each other")


def test_descriptor_integer_view_is_the_lift_view():
    # a descriptor scans the integer view it builds from its own tables;
    # it must be the view its Fraction lift computes from the Fractions.
    # Rebuilt by _from_view from its integer tables at the lcm N of its
    # denominators and at 3N, odd N with an epsilon of -1 among them, it
    # must scan and lift as the descriptor its checked constructor built
    rng = random.Random(24593)
    descriptors = [specbuild.z2_lens_descriptor(), specbuild.z2z3_descriptor(),
                   ProjectedActionDescriptor(parse_symbol("(1,n2|(3,1))"), cyclic_group(2),
                                             (1, -1), ((0,), (0,)), ((ZERO,), (ZERO,)))]
    descriptors += [_random_descriptor(rng) for _ in range(200)]
    for descriptor in descriptors:
        lifted = lift_action(descriptor)
        fresh = ExtendedProductActionSpec(lifted.symbol, lifted.group, lifted.theta1,
                                          lifted.alpha, lifted.beta, lifted.theta2)
        assert descriptor._int_view == fresh._int_view
        mod = math.lcm(*(v.denominator for row in descriptor.theta2_bar for v in row))
        for n in (mod, 3 * mod):
            fronts = tuple(tuple(v.numerator * n // v.denominator for v in row)
                           for row in descriptor.theta2_bar)
            rebuilt = _from_view(ProjectedActionDescriptor, descriptor.base, descriptor.group,
                                 n, descriptor.epsilon, descriptor.beta_bar, fronts)
            assert rebuilt == descriptor
            assert validate_descriptor(rebuilt)
            spec = lift_action(rebuilt)
            assert spec == lifted
            assert spec.theta1 == tuple(Fraction(1, 2) if e == -1 else ZERO
                                        for e in descriptor.epsilon)


def test_projection_and_lift_build_what_the_constructors_accept():
    # both build their records unchecked; rebuilt field by field through
    # the checked constructors, each must pass and compare equal
    rng = random.Random(7411)
    descriptors = [specbuild.z2_lens_descriptor(), specbuild.z2z3_descriptor()]
    descriptors += [_random_descriptor(rng) for _ in range(200)]
    specs = [specbuild.z2_swap_spec(), specbuild.z2z3_block_spec(),
             specbuild.mixed_crossing_spec(),
             specbuild.trivial_spec("(0,o1|(2,1),(3,1),(2,1),(3,1))", cyclic_group(3))]
    specs += [lift_action(d) for d in descriptors]
    for spec in specs:
        d = project_action(spec)
        assert ProjectedActionDescriptor(d.base, d.group, d.epsilon, d.beta_bar,
                                         d.theta2_bar) == d
        if validate_descriptor(d):
            descriptors.append(d)
    for descriptor in descriptors:
        s = lift_action(descriptor)
        assert ExtendedProductActionSpec(s.symbol, s.group, s.theta1, s.alpha, s.beta,
                                         s.theta2) == s


def test_criterion_10_obstruction_witnesses():
    rng = random.Random(77377)
    for _ in range(500):
        orbit_numbers = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
        b = rng.randint(-30, 30)
        witness = obstruction_witness(b, orbit_numbers)
        g = math.gcd(*orbit_numbers) if len(orbit_numbers) > 1 else orbit_numbers[0]
        if b % g == 0:
            assert witness is not None
            assert len(witness) == len(orbit_numbers)
            assert sum(c * n for c, n in zip(witness, orbit_numbers)) == b
        else:
            assert witness is None
    _pass(10, "obstruction witnesses solve exactly when the gcd divides")


def _obstruction_identity(spec):
    """b = sum over beta orbits O of floor(p_O/q_O)*|O|, so the orbit
    numbers of every valid spec solve its own obstruction class."""
    pairs = spec.symbol.pairs
    orbits = {frozenset(perm[i] for perm in spec.beta) for i in range(len(pairs))}
    parts = []
    for orbit in orbits:
        # law (e): an orbit keeps to equal pairs
        (pair,) = {pairs[i] for i in orbit}
        parts.append(pair.p // pair.q * len(orbit))
    b = obstruction_class(spec.symbol)
    assert sum(parts) == b
    assert obstruction_witness(b, beta_orbit_numbers(spec)) is not None


@settings(max_examples=300, deadline=None)
@given(valid_specs())
def test_obstruction_identity_on_generated_specs(spec):
    assert validate_action_spec(spec)
    _obstruction_identity(spec)


def test_obstruction_identity_on_built_specs_and_lifts():
    # every valid spec specbuild writes, and the lift of every valid
    # descriptor these tests build: the specbuild ones, the random ones,
    # and the mutants of them that still pass the folded laws
    specs = [getattr(specbuild, name)() for name in dir(specbuild)
             if name.endswith("_spec") and name not in ("trivial_spec", "faithful_rotation_spec")]
    specs += [specbuild.faithful_rotation_spec(m) for m in (1, 2, 12)]
    specs += [specbuild.trivial_spec("(2,n2|(3,-4),(1,5),(3,-4))", direct_product(
        cyclic_group(2), cyclic_group(2))),
              specbuild.coboundary_action("(0,o1|(2,3),(1,2),(2,3))", cyclic_group(2), (1, -1),
                                          ((0, 1, 2), (2, 1, 0)), Fraction(1, 3),
                                          (Fraction(1, 4), ZERO, Fraction(1, 2)))]
    rng = random.Random(13013)
    descriptors = [specbuild.z2_lens_descriptor(), specbuild.z2z3_descriptor()]
    descriptors += [_random_descriptor(rng) for _ in range(200)]
    descriptors += [d for d in (_mutate_descriptor(rng, rng.choice(descriptors))
                                for _ in range(2000)) if validate_descriptor(d)]
    specs += [lift_action(d) for d in descriptors]
    assert len(specs) > 250
    seen = set()
    for spec in specs:
        assert validate_action_spec(spec)
        _obstruction_identity(spec)
        seen.add((obstruction_class(spec.symbol) != 0, max(beta_orbit_numbers(spec), default=0) > 1))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _image_group(spec) -> tuple[tuple, tuple]:
    """The naive image group of the datum map, and that map a homomorphism onto it."""
    table, images = oracles.image_group(spec)
    assert oracles.naive_homomorphism(spec.group.table, table, images)
    return table, images


def test_criterion_11_structure_reports():
    sixth = analyze_structure(specbuild.z6_rotation_spec())
    assert sixth.route == "fiber-rotation"
    assert sixth.rotation_order == 6
    assert sixth.shadow_order == 1
    assert sixth.embedding_ok
    table, images = _image_group(specbuild.z6_rotation_spec())
    assert len(table) == len(set(images)) == 6

    blocks = analyze_structure(specbuild.z2z3_block_spec())
    assert blocks.route == "covering-translation"
    assert blocks.factors == "Z2 x H"
    assert blocks.rotation_order == 2
    assert blocks.shadow_order == 3
    assert blocks.embedding_ok
    table, images = _image_group(specbuild.z2z3_block_spec())
    assert len(table) == 6
    assert sorted(images) == list(range(6))
    _pass(11, "structure analysis identifies both product routes")


def test_structure_agrees_with_naive_scan():
    # the report against a scan of the tables that builds no group, and
    # embedding_ok against the naive image group: every specbuild action
    # (all three routes) and 200 lifts
    specs = [specbuild.trivial_spec("(0,o1|(2,1))", cyclic_group(3)),
             specbuild.trivial_spec("(0,o1|(3,1),(3,1))", cyclic_group(2)),
             specbuild.faithful_rotation_spec(8)]
    specs += [getattr(specbuild, name)() for name in dir(specbuild)
              if name.endswith("_spec") and name not in ("trivial_spec", "faithful_rotation_spec")]
    rng = random.Random(24593)
    specs += [lift_action(_random_descriptor(rng)) for _ in range(200)]
    routes = set()
    for spec in specs:
        report = analyze_structure(spec)
        assert (report.route, report.shadow_order, report.embedding_ok) == oracles.structure_scan(spec)
        table, images = _image_group(spec)
        assert report.embedding_ok == (len(table) == spec.group.order)
        routes.add(report.route)
    assert routes == {"covering-translation", "fiber-rotation", "orientation-mixed"}


def test_criterion_12_cli_round_trips_are_deterministic(capsys, docs):
    invocations = [
        (["normalize", "(0,o1|(3,4))"], 0),
        (["normalize", "--porcelain", "(0,o1|(3,4))"], 0),
        (["sum", "(0,o1|(2,1),(3,2))"], 0),
        (["equiv", "(0,o1|(3,4))", "(0,o1|(3,1),(1,1))"], 0),
        (["cover", "(1,n2|(2,1))"], 0),
        (["quotient", "(0,o1|(2,1),(3,1))"], 1),
        (["pi1", "(1,n2|(2,1))"], 0),
        (["orbifold-pi1", "--porcelain", "(1,n2|(2,1))"], 0),
        (["h1", "(1,n2|(2,1))"], 0),
        (["snf", "2,0;0,3"], 0),
        (["validate-action", docs["z4"]], 0),
        (["induced-torus", docs["z4"], "-i", "1", "-g", "1", "--det"], 0),
        (["check-tau", docs["swap"]], 0),
        (["project", docs["swap"]], 0),
        (["lift", docs["lens"]], 0),
        (["obstruction", "--porcelain", "-b", "1", "--orbits", "2,3"], 0),
        (["orbits", docs["blocks"]], 0),
        (["analyze-group", docs["blocks"]], 0),
    ]
    covered = {argv[0] for argv, _ in invocations}
    assert covered == {
        "normalize", "sum", "equiv", "cover", "quotient", "pi1",
        "orbifold-pi1", "h1", "snf", "validate-action", "induced-torus",
        "check-tau", "project", "lift", "obstruction", "orbits",
        "analyze-group"}
    for argv, expected_code in invocations:
        code_a = main(list(argv))
        first = capsys.readouterr()
        code_b = main(list(argv))
        second = capsys.readouterr()
        assert code_a == expected_code
        assert (code_a, first.out, first.err) == (code_b, second.out, second.err)
        assert first.out or first.err
    _pass(12, "command line output is deterministic")
