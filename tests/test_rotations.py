"""Law scans on rotations whose common denominator passes 2**64.

The scans read rotations as integers mod N, N the lcm of a spec's
denominators.  Here the denominators are pairwise coprime primes and 1,
so N is far larger than any one of them, and reading N as anything
short of the lcm changes a verdict or a reported value.  The valid
actions are coboundaries, which take any rotation values; their
one-entry mutants are checked against the naive Fraction scans of
``oracles``, and every reported rotation against the law recomputed
from the witness.
"""

import random
import re
from fractions import Fraction
from math import lcm, prod

import oracles
from specbuild import replace
from seifert import (ExtendedProductActionSpec, ProjectedActionDescriptor, analyze_structure,
                     check_tau_commuting, cyclic_group, lift_action, parse_symbol,
                     validate_action_spec, validate_descriptor)

# pairwise coprime: the largest is about 2**61, their product about 2**128
PRIMES = (2**61 - 1, 2**31 - 1, 65537, 257, 17, 5, 3)
N_ALL = prod(PRIMES)
PAIRS = ("(2,1)", "(3,1)", "(5,2)")


def rotation(rng) -> Fraction:
    """A rotation at an edge of (1/d)Z/Z for a prime d, or 0, or over N_ALL."""
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 5:
        return Fraction(rng.choice((1, N_ALL - 1)), rng.choice((N_ALL, 2 * N_ALL)))
    d = rng.choice(PRIMES)
    k = (1, d - 1, rng.randrange(1, d), 1)[kind - 1]
    return Fraction(k, 2 * d if kind == 4 else d)


def shape(rng):
    """Cyclic group order m, sign character, and a permutation power rho^g."""
    m = rng.choice((2, 4, 6, 8))
    n = rng.randint(3, 6)
    while True:
        rho = list(range(n))
        rng.shuffle(rho)
        power = [tuple(range(n))]
        for _ in range(m):
            power.append(tuple(rho[j] for j in power[-1]))
        if power[m] == power[0]:
            break
    signs = tuple((-1) ** g for g in range(m)) if rng.random() < 0.6 else (1,) * m
    # the pair at i is constant on the orbits of rho, so every beta keeps pairs
    pairs = [None] * n
    for i in range(n):
        if pairs[i] is None:
            text = rng.choice(PAIRS)
            for row in power:
                pairs[row[i]] = text
    return m, n, signs, tuple(power[:m]), ",".join(pairs)


def coboundary_spec(rng) -> ExtendedProductActionSpec:
    # theta1(g) = (alpha(g) - 1) c, theta2(i, g) = alpha(g) c_i - c_beta(g)(i),
    # plus a fiber rotation by g r/m when alpha is trivial
    m, n, alpha, beta, pairs = shape(rng)
    c, cs, r = rotation(rng), [rotation(rng) for _ in range(n)], rng.randrange(m)
    theta1 = tuple(((a - 1) * c if -1 in alpha else Fraction(g * r, m)) % 1
                   for g, a in enumerate(alpha))
    theta2 = tuple(tuple((alpha[g] * cs[i] - cs[beta[g][i]]) % 1 for i in range(n))
                   for g in range(m))
    return ExtendedProductActionSpec(parse_symbol(f"(0,o1|{pairs})"), cyclic_group(m),
                                     theta1, alpha, beta, theta2)


def coboundary_descriptor(rng) -> ProjectedActionDescriptor:
    # theta2_bar(i, g) = c_i - epsilon(g) c_beta_bar(g)(i)
    m, n, epsilon, beta_bar, pairs = shape(rng)
    cs = [rotation(rng) for _ in range(n)]
    theta2_bar = tuple(tuple((cs[i] - epsilon[g] * cs[beta_bar[g][i]]) % 1 for i in range(n))
                       for g in range(m))
    return ProjectedActionDescriptor(parse_symbol(f"(1,n2|{pairs})"), cyclic_group(m),
                                     epsilon, beta_bar, theta2_bar)


def edit(rows, k, value):
    """rows with entry k replaced by value."""
    return rows[:k] + (value,) + rows[k + 1:]


def rerotate(rng, row):
    """row with one entry replaced by a new rotation."""
    return edit(row, rng.randrange(len(row)), rotation(rng))


def swap(rng, row):
    i, j = rng.sample(range(len(row)), 2)
    return edit(edit(row, i, row[j]), j, row[i])


def spec_mutant(rng, spec) -> ExtendedProductActionSpec:
    k = rng.randrange(spec.group.order)
    field = rng.choice(("theta1", "theta2", "theta2", "alpha", "beta"))
    value = {"theta1": lambda: rotation(rng), "theta2": lambda: rerotate(rng, spec.theta2[k]),
             "alpha": lambda: -spec.alpha[k], "beta": lambda: swap(rng, spec.beta[k])}[field]()
    return replace(spec, **{field: edit(getattr(spec, field), k, value)})


def descriptor_mutant(rng, d) -> ProjectedActionDescriptor:
    k = rng.randrange(d.group.order)
    field = rng.choice(("theta2_bar", "theta2_bar", "theta2_bar", "epsilon", "beta_bar"))
    value = {"theta2_bar": lambda: rerotate(rng, d.theta2_bar[k]),
             "epsilon": lambda: -d.epsilon[k], "beta_bar": lambda: swap(rng, d.beta_bar[k])}[field]()
    return replace(d, **{field: edit(getattr(d, field), k, value)})


def reported(message):
    value, want = re.search(r"= (\S+), law gives (\S+)$", message).groups()
    return Fraction(value), Fraction(want)


def spec_law_values(spec, law, witness):
    """(value, want) of a theta1 or theta2 failure, from the Fraction tables."""
    alpha, theta1, beta, theta2 = spec.alpha, spec.theta1, spec.beta, spec.theta2
    g, h = witness[:2]
    gh = spec.group.mul(g, h)
    if law == "theta1":
        return theta1[gh], (theta1[g] + alpha[g] * theta1[h]) % 1
    i = witness[2]
    return theta2[gh][i], (theta2[g][beta[h][i]] + alpha[g] * theta2[h][i]) % 1


def denominators(spec):
    return {v.denominator for row in (spec.theta1, *spec.theta2) for v in row}


def test_coprime_denominators_agree_with_naive_scans():
    rng = random.Random(70001)
    specs = [coboundary_spec(rng) for _ in range(60)]
    descriptors = [coboundary_descriptor(rng) for _ in range(60)]
    lifts = [lift_action(d) for d in descriptors]
    # N passes 2**64 while no single denominator reaches it
    wide = [s for s in specs + lifts if lcm(*denominators(s)) > max(2**64, *denominators(s))]
    assert len(wide) >= 25
    for spec in specs + lifts:
        assert validate_action_spec(spec).ok and oracles.law_scan(spec) == (True, None, None)
        report = analyze_structure(spec)
        assert (report.route, report.shadow_order, report.embedding_ok) == oracles.structure_scan(spec)
        assert report.rotation_order == lcm(*(t.denominator for t, a in zip(spec.theta1, spec.alpha)
                                              if a == 1))
    for d, spec in zip(descriptors, lifts):
        assert validate_descriptor(d).ok and check_tau_commuting(spec).ok

    laws = []
    for step in range(600):
        mutant = spec_mutant(rng, specs[step % len(specs)])
        report = validate_action_spec(mutant)
        assert (report.ok, report.law, report.witness) == oracles.law_scan(mutant)
        laws.append(report.law)
        if report.law in ("theta1", "theta2"):
            assert reported(report.message) == spec_law_values(mutant, report.law, report.witness)
    for step in range(600):
        mutant = descriptor_mutant(rng, descriptors[step % len(descriptors)])
        report = validate_descriptor(mutant)
        assert (report.ok, report.law, report.witness) == oracles.folded_law_scan(mutant)
        laws.append(report.law)
        if report.law == "theta2_bar":
            g, h, i = report.witness
            eps, perm, rot = mutant.epsilon, mutant.beta_bar, mutant.theta2_bar
            want = (eps[h] * rot[g][perm[h][i]] + rot[h][i]) % 1
            assert reported(report.message) == (rot[mutant.group.mul(g, h)][i], want)
    assert {"theta1", "theta2", "alpha", "beta", "theta2_bar", "epsilon", "beta_bar"} <= set(laws)
    assert laws.count("theta1") + laws.count("theta2") >= 200 and laws.count("theta2_bar") >= 200
