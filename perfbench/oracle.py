"""Independent checkers for the package's answers.

Nothing here imports seifert.  Documents and symbols are read from their
text, H1 comes from sympy's Smith normal form of a relation matrix built
here from the textbook presentation (crosscap generators for class n2,
not the package's handle-plus-crosscap layout), and the action checks
are naive scans written straight from the laws in the package's
documentation.  Each check returns a list of problems; empty means the
answer agrees.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

F = Fraction
HALF = F(1, 2)

_SYMBOL = re.compile(r"^\(\s*(\d+)\s*,\s*(o1|n2)\s*\|(.*)\)\s*$")
_PAIR = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


# ---------------------------------------------------------------- symbols

def read_symbol(text: str) -> tuple[int, str, list[tuple[int, int]]]:
    m = _SYMBOL.match(text.strip())
    if not m:
        raise ValueError(f"not a symbol: {text!r}")
    pairs = [(int(q), int(p)) for q, p in _PAIR.findall(m.group(3))]
    return int(m.group(1)), m.group(2), pairs


def relation_matrix(genus: int, cls: str, pairs) -> tuple[list[list[int]], int]:
    """Abelianized relations of pi1, one row per relation.

    Class o1, genus g: generators a1,b1..ag,bg, c1..cn, t; relations
    q_j c_j + p_j t and c_1 + ... + c_n (the commutators vanish).
    Class n2 with k crosscaps: generators v1..vk, c1..cn, t; each v_i
    inverts t, giving 2t; q_j c_j + p_j t; and 2(v_1 + ... + v_k) + sum c_j.
    """
    n = len(pairs)
    lead = 2 * genus if cls == "o1" else genus
    cols = lead + n + 1
    t = cols - 1
    rows = []
    for j, (q, p) in enumerate(pairs):
        row = [0] * cols
        row[lead + j], row[t] = q, p
        rows.append(row)
    surface = [0] * cols
    for j in range(n):
        surface[lead + j] = 1
    if cls == "n2":
        for i in range(genus):
            surface[i] = 2
        fiber = [0] * cols
        fiber[t] = 2
        rows.append(fiber)
    rows.append(surface)
    return rows, cols


def invariant_chain(entries) -> list[int]:
    """Nonzero |entries| rearranged into a divisor chain d1 | d2 | ...

    Replacing a pair by its gcd and lcm keeps the group; after pass i,
    entry i divides every later one.
    """
    d = sorted(abs(v) for v in entries if v)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def smith_diagonal(rows) -> list[int]:
    """Smith invariants by sympy, normalized to a chain, zeros last."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    size = min(len(rows), len(rows[0]))
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    chain = invariant_chain(snf[i, i] for i in range(size))
    return chain + [0] * (size - len(chain))


def abelian_invariants(rows, cols: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion chain) of Z^cols modulo the row span."""
    if not rows:
        return cols, ()
    diag = smith_diagonal(rows)
    rank = sum(1 for d in diag if d)
    return cols - rank, tuple(d for d in diag if d > 1)


def expected_h1(text: str) -> tuple[int, tuple[int, ...]]:
    rows, cols = relation_matrix(*read_symbol(text))
    return abelian_invariants(rows, cols)


def check_h1(text: str, free_rank: int, torsion) -> list[str]:
    torsion = tuple(torsion)
    want = expected_h1(text)
    problems = []
    if (free_rank, torsion) != want:
        problems.append(f"H1 of {text}: got {(free_rank, torsion)}, sympy gives {want}")
    genus, cls, pairs = read_symbol(text)
    euler = sum((F(p, q) for q, p in pairs), F(0))
    if cls == "o1" and euler:
        order = abs(euler) * math.prod(q for q, _ in pairs)
        if free_rank != 2 * genus:
            problems.append(f"H1 of {text}: free rank {free_rank}, closed form 2g = {2 * genus}")
        if math.prod(torsion) != order:
            problems.append(f"H1 of {text}: torsion order {math.prod(torsion)}, "
                            f"closed form |e| prod q = {order}")
    return problems


def check_cover(text: str, cover: str) -> list[str]:
    genus, cls, pairs = read_symbol(text)
    cg, ccls, cpairs = read_symbol(cover)
    doubled = Counter(pairs)
    for pr in doubled:
        doubled[pr] *= 2
    if (cg, ccls, Counter(cpairs)) != (genus - 1, "o1", doubled):
        return [f"cover of {text}: got {cover}"]
    return []


def check_quotient(cover: str, quotient: str, original: str) -> list[str]:
    """The quotient of a literally doubled cover is the original symbol."""
    genus, _, pairs = read_symbol(original)
    qg, qcls, qpairs = read_symbol(quotient)
    if (qg, qcls, Counter(qpairs)) != (genus, "n2", Counter(pairs)):
        return [f"quotient of {cover}: got {quotient}, want the pairs of {original}"]
    return []


def normal_form(text: str) -> tuple[str, int]:
    """Expanded normal form and obstruction class, from their definition."""
    genus, cls, pairs = read_symbol(text)
    b = 0
    exceptional = []
    for q, p in pairs:
        if q == 1:
            b += p
        else:
            b += p // q
            exceptional.append((q, p % q))
    body = ",".join(f"({q},{p})" for q, p in sorted(exceptional) + [(1, b)])
    return f"({genus},{cls}|{body})", b


# ---------------------------------------------------------------- actions

@dataclass(frozen=True)
class Doc:
    """An action document as read here; tables indexed by element."""

    genus: int
    cls: str
    pairs: tuple
    table: tuple
    theta1: tuple
    alpha: tuple
    beta: tuple
    theta2: tuple   # theta2[g][i]


@dataclass(frozen=True)
class Desc:
    genus: int
    pairs: tuple
    table: tuple
    epsilon: tuple
    beta_bar: tuple
    theta2_bar: tuple


def _constructor(text: str) -> tuple[list[list[int]], str]:
    if text.startswith("cyclic:"):
        digits = re.match(r"\d+", text[7:]).group()
        m = int(digits)
        return [[(i + j) % m for j in range(m)] for i in range(m)], text[7 + len(digits):]
    if text.startswith("product:"):
        a, rest = _constructor(text[8:])
        b, rest = _constructor(rest[1:])
        na, nb = len(a), len(b)
        table = [[a[g // nb][h // nb] * nb + b[g % nb][h % nb] for h in range(na * nb)]
                 for g in range(na * nb)]
        return table, rest
    raise ValueError(f"unknown constructor {text!r}")


def read_table(field) -> tuple:
    table = _constructor(field)[0] if isinstance(field, str) else field["table"]
    return tuple(tuple(row) for row in table)


def _by_element(rows, order: int) -> tuple:
    n = len(rows)
    return tuple(tuple(F(rows[i][g]) % 1 for i in range(n)) for g in range(order))


def read_action(text: str) -> Doc:
    doc = json.loads(text)
    genus, cls, pairs = read_symbol(doc["symbol"])
    table = read_table(doc["group"])
    return Doc(genus, cls, tuple(pairs), table,
               tuple(F(v) % 1 for v in doc["theta1"]), tuple(doc["alpha"]),
               tuple(tuple(v - 1 for v in row) for row in doc["beta"]),
               _by_element(doc["theta2"], len(table)))


def read_descriptor(text: str) -> Desc:
    doc = json.loads(text)
    genus, _, pairs = read_symbol(doc["symbol"])
    table = read_table(doc["group"])
    return Desc(genus, tuple(pairs), table, tuple(doc["epsilon"]),
                tuple(tuple(v - 1 for v in row) for row in doc["beta_bar"]),
                _by_element(doc["theta2_bar"], len(table)))


def law_scan(d: Doc):
    """First failing law and its witness, or None, in the documented order:
    identity, alpha, theta1, beta, theta2, pairs; g, then h, then i."""
    m, n = len(d.table), len(d.pairs)
    if d.theta1[0] or d.alpha[0] != 1 or d.beta[0] != tuple(range(n)) or any(d.theta2[0]):
        return "identity", (0,)
    pairs_gh = [(g, h, d.table[g][h]) for g in range(m) for h in range(m)]
    for g, h, gh in pairs_gh:
        if d.alpha[gh] != d.alpha[g] * d.alpha[h]:
            return "alpha", (g, h)
    for g, h, gh in pairs_gh:
        if d.theta1[gh] != (d.theta1[g] + d.alpha[g] * d.theta1[h]) % 1:
            return "theta1", (g, h)
    for g, h, gh in pairs_gh:
        if any(d.beta[gh][i] != d.beta[g][d.beta[h][i]] for i in range(n)):
            return "beta", (g, h)
    for g, h, gh in pairs_gh:
        for i in range(n):
            if d.theta2[gh][i] != (d.theta2[g][d.beta[h][i]] + d.alpha[g] * d.theta2[h][i]) % 1:
                return "theta2", (g, h, i)
    for g in range(m):
        for i in range(n):
            if d.pairs[d.beta[g][i]] != d.pairs[i]:
                return "pairs", (g, i)
    return None


class NotApplicable(ValueError):
    """The covering-translation test does not apply to this document."""


def tau_scan(d: Doc):
    """First failing covering-translation condition, or None.

    Applies to class o1 symbols doubled in blocks (pair i equals pair
    i+n) with alpha identically 1; sigma swaps i and i+n.
    """
    n2 = len(d.pairs)
    if d.cls != "o1" or n2 % 2 or d.pairs[:n2 // 2] != d.pairs[n2 // 2:]:
        raise NotApplicable("symbol is not doubled in blocks")
    if any(a != 1 for a in d.alpha):
        raise NotApplicable("alpha is not identically 1")
    n = n2 // 2
    m = len(d.table)
    sigma = [(i + n) % n2 for i in range(n2)]
    for g in range(m):
        if d.theta1[g] not in (0, HALF):
            return "half-rotation", (g,)
    for g in range(m):
        for i in range(n2):
            if d.beta[g][sigma[i]] != sigma[d.beta[g][i]]:
                return "sigma-equivariance", (g, i)
    for g in range(m):
        for i in range(n2):
            if d.theta2[g][sigma[i]] != (-d.theta2[g][i]) % 1:
                return "meridian-antisymmetry", (g, i)
    return None


def fold(d: Doc) -> Desc:
    n = len(d.pairs) // 2
    return Desc(d.genus + 1, d.pairs[:n], d.table,
                tuple(1 if t == 0 else -1 for t in d.theta1),
                tuple(tuple(v % n for v in row[:n]) for row in d.beta),
                tuple(row[:n] for row in d.theta2))


def lift(desc: Desc) -> Doc:
    n = len(desc.pairs)
    beta, theta2 = [], []
    for g, eps in enumerate(desc.epsilon):
        row = [0] * (2 * n)
        for i, j in enumerate(desc.beta_bar[g]):
            row[i], row[i + n] = (j + n, j) if eps == -1 else (j, j + n)
        beta.append(tuple(row))
        theta2.append(desc.theta2_bar[g] + tuple((-v) % 1 for v in desc.theta2_bar[g]))
    return Doc(desc.genus - 1, "o1", desc.pairs + desc.pairs, desc.table,
               tuple(F(0) if e == 1 else HALF for e in desc.epsilon),
               (1,) * len(desc.table), tuple(beta), tuple(theta2))


def descriptor_law_scan(d: Desc):
    """First failing folded law: identity, epsilon, beta_bar, theta2_bar
    (theta2_bar(i,gh) = epsilon(h) theta2_bar(beta_bar(h)(i), g) + theta2_bar(i,h)),
    pairs; or None."""
    m, n = len(d.table), len(d.pairs)
    if d.epsilon[0] != 1 or d.beta_bar[0] != tuple(range(n)) or any(d.theta2_bar[0]):
        return "identity", (0,)
    pairs_gh = [(g, h, d.table[g][h]) for g in range(m) for h in range(m)]
    for g, h, gh in pairs_gh:
        if d.epsilon[gh] != d.epsilon[g] * d.epsilon[h]:
            return "epsilon", (g, h)
    for g, h, gh in pairs_gh:
        if any(d.beta_bar[gh][i] != d.beta_bar[g][d.beta_bar[h][i]] for i in range(n)):
            return "beta_bar", (g, h)
    for g, h, gh in pairs_gh:
        for i in range(n):
            want = (d.epsilon[h] * d.theta2_bar[g][d.beta_bar[h][i]] + d.theta2_bar[h][i]) % 1
            if d.theta2_bar[gh][i] != want:
                return "theta2_bar", (g, h, i)
    for g in range(m):
        for i in range(n):
            if d.pairs[d.beta_bar[g][i]] != d.pairs[i]:
                return "pairs", (g, i)
    return None


def orbit_sizes(d: Doc) -> tuple[int, ...]:
    """Orbit sizes of the boundary indices under every beta(g), by union-find."""
    parent = list(range(len(d.pairs)))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in d.beta:
        for i, j in enumerate(row):
            parent[root(i)] = root(j)
    return tuple(sorted(Counter(root(i) for i in range(len(parent))).values()))


def structure(d: Doc) -> dict:
    """The structure report of a valid action, recomputed from its data.

    The route is covering-translation when alpha is identically 1 and the
    covering-translation test passes, fiber-rotation for other alpha = 1
    actions and orientation-mixed otherwise.  For a valid action the
    report's map into the target group is a homomorphism, so it embeds
    exactly when distinct elements have distinct images: (theta1 = 1/2,
    shadow), (theta1, shadow) or the full datum respectively, the shadow
    of g being (beta(g), theta2(g), alpha(g)).
    """
    m = len(d.table)
    kernel = [g for g in range(m) if d.alpha[g] == 1]
    rotation_order = math.lcm(*(d.theta1[g].denominator for g in kernel))
    shadows = [(d.beta[g], d.theta2[g], d.alpha[g]) for g in range(m)]
    try:
        commutes = all(a == 1 for a in d.alpha) and tau_scan(d) is None
    except NotApplicable:
        commutes = False
    if commutes:
        route, factors = "covering-translation", "Z2 x H"
        images = [(d.theta1[g] == HALF, shadows[g]) for g in range(m)]
    elif len(kernel) == m:
        route, factors = "fiber-rotation", f"Z{rotation_order} x H"
        images = [(d.theta1[g], shadows[g]) for g in range(m)]
    else:
        route = "orientation-mixed"
        images = [(d.theta1[g],) + shadows[g] for g in range(m)]
        if any(d.alpha[g] == -1 and d.table[g][g] == 0 for g in range(m)):
            factors = f"(Z{rotation_order} x H+) semidirect Z2"
        else:
            factors = "no product decomposition"
    return {"route": route, "rotation_order": rotation_order,
            "alpha_image_order": 1 if len(kernel) == m else 2,
            "shadow_order": len(set(shadows)), "factors": factors,
            "embedding_ok": len(set(images)) == m}


def check_structure(d: Doc, report: dict) -> list[str]:
    want = structure(d)
    problems = []
    for key, value in want.items():
        got = report.get(key)
        if key == "factors" and isinstance(got, str) and got.startswith(value):
            continue
        if got != value:
            problems.append(f"structure {key}: got {got!r}, want {value!r}")
    return problems


# ------------------------------------------------------ command-line output

def porcelain(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out.setdefault(key, []).append(value)
    return out


def word_exponents(words, generators) -> list[list[int]]:
    """Exponent-sum rows of relator words written as ``c1^2*t*x^-1``."""
    index = {name: k for k, name in enumerate(generators)}
    rows = []
    for w in words:
        row = [0] * len(generators)
        if w != "1":
            for syllable in w.split("*"):
                name, _, exp = syllable.partition("^")
                row[index[name]] += int(exp) if exp else 1
        rows.append(row)
    return rows


def orbifold_relation_matrix(genus: int, cls: str, pairs):
    """Abelianized base orbifold group: relations q_j c_j and the surface."""
    rows, cols = relation_matrix(genus, cls, pairs)
    n = len(pairs)
    lead = cols - n - 1
    out = [row[:-1] for row in rows[:n]]
    out.append(rows[-1][:-1])
    return out, lead + n
