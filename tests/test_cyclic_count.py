"""The closed-form count of descriptors over a cyclic group, against two
brute forces through validate_descriptor: every table, and every
generator image with the table filled by the folded law."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, prod

import pytest

import oracles
from budget import needs_alarm, time_budget
from seifert import ProjectedActionDescriptor, cyclic_group, parse_symbol, validate_descriptor


def brute_force_count(base, m: int, N: int) -> int:
    """Descriptors over base for Z/m with theta2_bar in (1/N)Z/Z that
    validate_descriptor accepts.

    Every generator image (e, beta_bar(1), row(1)) is tried, all n!
    permutations and all N^n rows, and the tables are filled by the
    folded law at (k, 1): epsilon(k+1) = epsilon(k) * e, beta_bar(k+1) =
    beta_bar(k) o beta_bar(1), row(k+1)[i] = e * row(k)[beta_bar(1)(i)]
    + row(1)[i] mod N.  Distinct descriptors are counted, so the images
    Z/1 ignores count once.
    """
    group, n = cyclic_group(m), len(base.pairs)
    valid = set()
    for e, pi, r in product((1, -1), permutations(range(n)), product(range(N), repeat=n)):
        epsilon, beta_bar, rows = [1], [tuple(range(n))], [(0,) * n]
        for _ in range(1, m):
            epsilon.append(epsilon[-1] * e)
            beta_bar.append(tuple(beta_bar[-1][j] for j in pi))
            rows.append(tuple((e * rows[-1][pi[i]] + r[i]) % N for i in range(n)))
        descriptor = ProjectedActionDescriptor(
            base, group, tuple(epsilon), tuple(beta_bar),
            tuple(tuple(Fraction(v, N) for v in row) for row in rows))
        if validate_descriptor(descriptor):
            valid.add(descriptor)
    return len(valid)


def every_table_count(base, m: int, N: int) -> int:
    """Descriptors over base for Z/m with theta2_bar in (1/N)Z/Z that
    validate_descriptor accepts, over every table with the identity's
    datum trivial: no law is used to fill one."""
    group, n = cyclic_group(m), len(base.pairs)
    identity = (1, tuple(range(n)), (Fraction(0),) * n)
    data = list(product((1, -1), permutations(range(n)),
                        product([Fraction(v, N) for v in range(N)], repeat=n)))
    count = 0
    for rest in product(data, repeat=m - 1):
        epsilon, beta_bar, rows = zip(identity, *rest)
        count += bool(validate_descriptor(
            ProjectedActionDescriptor(base, group, epsilon, beta_bar, rows)))
    return count


@pytest.mark.parametrize("base, m, N", [
    ("(1,n2|)", 4, 1), ("(1,n2|(2,1))", 2, 4), ("(1,n2|(2,1))", 3, 3), ("(1,n2|(3,1))", 4, 2),
    ("(1,n2|(2,1),(2,1))", 2, 3), ("(1,n2|(2,1),(3,1))", 2, 4), ("(2,n2|(2,1),(2,1))", 3, 2),
    ("(1,n2|(2,1),(2,1))", 2, 4), ("(1,n2|(2,1),(2,1))", 3, 3), ("(1,n2|(2,1),(2,1))", 4, 2),
])
def test_closed_form_equals_every_table_brute_force(base, m, N):
    symbol = parse_symbol(base)
    assert oracles.cyclic_descriptor_count(symbol, m, N) == every_table_count(symbol, m, N)


@pytest.mark.parametrize("base, m, N, count", [
    ("(1,n2|(2,1),(2,1))", 4, 4, 48),
    ("(1,n2|(2,1),(2,1),(2,1))", 4, 5, 216),   # odd N with epsilon = -1
    ("(1,n2|(2,1),(3,1))", 6, 3, 18),
    ("(1,n2|(2,1),(2,1))", 3, 3, 9),
])
def test_closed_form_goldens(base, m, N, count):
    symbol = parse_symbol(base)
    assert oracles.cyclic_descriptor_count(symbol, m, N) == count
    assert brute_force_count(symbol, m, N) == count


@needs_alarm
def test_closed_form_equals_brute_force_on_seeded_bases():
    rng = random.Random(9091)
    pairs = ("(2,1)", "(3,1)", "(3,2)", "(5,2)")
    cases, reached = set(), set()
    with time_budget(120):
        while len(cases) < 80:
            n, m, N = rng.randint(0, 3), rng.randint(1, 6), rng.randint(1, 5)
            chosen = rng.choices(pairs, k=n)
            text = f"({rng.randint(1, 2)},n2|{','.join(chosen)})"
            if 2 * factorial(n) * N ** n > 2500 or (text, m, N) in cases:
                continue
            cases.add((text, m, N))
            reached.add((len(set(chosen)) > 1, m % 2 == 0, N % 2 == 1))
            base = parse_symbol(text)
            assert oracles.cyclic_descriptor_count(base, m, N) == brute_force_count(base, m, N), \
                (text, m, N)
    # unequal pairs, epsilon = -1 (even m) and odd N meet in some case
    assert (True, True, True) in reached


def cycle_lengths(pi) -> list[int]:
    seen, lengths = set(), []
    for start in range(len(pi)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = pi[i], length + 1
        if length:
            lengths.append(length)
    return lengths


@pytest.mark.parametrize("k", range(7))
def test_cycle_type_sum_is_the_permutation_sum(k):
    # k equal pairs: the sum by cycle type, weighted by the number of
    # permutations of each type, against the sum over all k! permutations
    base = parse_symbol("(1,n2|" + ",".join(["(2,1)"] * k) + ")")
    lengths = [cycle_lengths(pi) for pi in permutations(range(k))]
    for m in range(1, 7):
        for N in range(1, 5):
            total = sum(prod(N ** (l - 1) * gcd(m // l if e ** l == 1 else 0, N) for l in ls)
                        for e in (1, -1) if e ** m == 1
                        for ls in lengths if all(m % l == 0 for l in ls))
            assert oracles.cyclic_descriptor_count(base, m, N) == total, (k, m, N)
