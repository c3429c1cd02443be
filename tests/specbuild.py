"""Action specs and descriptors the test files keep coming back to."""

from __future__ import annotations

from fractions import Fraction

from seifert import (
    ExtendedProductActionSpec,
    FiniteGroup,
    ProjectedActionDescriptor,
    cyclic_group,
    direct_product,
    parse_symbol,
)

F = Fraction
ZERO = F(0)


def replace(record, **changes):
    """record with the named fields changed, rebuilt through its checked constructor."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def trivial_spec(symbol_text: str, group) -> ExtendedProductActionSpec:
    symbol = parse_symbol(symbol_text)
    n = len(symbol.pairs)
    order = group.order
    return ExtendedProductActionSpec(
        symbol=symbol,
        group=group,
        theta1=(ZERO,) * order,
        alpha=(1,) * order,
        beta=(tuple(range(n)),) * order,
        theta2=((ZERO,) * n,) * order,
    )


def z4_swap_spec() -> ExtendedProductActionSpec:
    """Z4 rotating the fiber by quarters while odd powers swap the two pairs."""
    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(3,1),(3,1))"),
        group=cyclic_group(4),
        theta1=tuple(F(k, 4) for k in range(4)),
        alpha=(1, 1, 1, 1),
        beta=((0, 1), (1, 0), (0, 1), (1, 0)),
        theta2=((ZERO, ZERO),) * 4,
    )


def z2_swap_spec() -> ExtendedProductActionSpec:
    """The involution on the doubled lens symbol: half fiber turn plus swap."""
    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(2,1),(2,1))"),
        group=cyclic_group(2),
        theta1=(ZERO, F(1, 2)),
        alpha=(1, 1),
        beta=((0, 1), (1, 0)),
        theta2=((ZERO, ZERO),) * 2,
    )


def z3_rotation_spec() -> ExtendedProductActionSpec:
    """Pure third-turn rotations on the doubled symbol; breaks the half-turn rule."""
    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(2,1),(2,1))"),
        group=cyclic_group(3),
        theta1=(ZERO, F(1, 3), F(2, 3)),
        alpha=(1, 1, 1),
        beta=((0, 1),) * 3,
        theta2=((ZERO, ZERO),) * 3,
    )


def z6_rotation_spec() -> ExtendedProductActionSpec:
    """Z6 turning the fiber by sixths over a single exceptional orbit."""
    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(2,1))"),
        group=cyclic_group(6),
        theta1=tuple(F(k, 6) for k in range(6)),
        alpha=(1,) * 6,
        beta=((0,),) * 6,
        theta2=((ZERO,),) * 6,
    )


def faithful_rotation_spec(m: int) -> ExtendedProductActionSpec:
    """Z_m turning the fiber and the one meridian both by g/m.

    Both the fiber rotation and the boundary shadow are faithful, so the
    product Z_m x H has order m^2 while the action reaches only m of it.
    """
    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(2,1))"),
        group=cyclic_group(m),
        theta1=tuple(F(g, m) for g in range(m)),
        alpha=(1,) * m,
        beta=((0,),) * m,
        theta2=tuple((F(g, m),) for g in range(m)),
    )


def coboundary_action(symbol_text: str, group, alpha, beta, t, v) -> ExtendedProductActionSpec:
    """The spec over homomorphisms alpha and beta whose rotations are coboundaries.

    theta1(g) = alpha(g)*t - t and theta2(i, g) = v[beta(g)(i)] - alpha(g)*v[i]
    (mod 1) obey laws (b) and (d) whatever t and v are.
    """
    return ExtendedProductActionSpec(
        symbol=parse_symbol(symbol_text),
        group=group,
        theta1=tuple((a * t - t) % 1 for a in alpha),
        alpha=tuple(alpha),
        beta=tuple(beta),
        theta2=tuple(tuple((v[perm[i]] - a * v[i]) % 1 for i in range(len(v)))
                     for a, perm in zip(alpha, beta)),
    )


def z2_z32_spec() -> ExtendedProductActionSpec:
    """Z2 x Z32, element 32*i + j: alpha = (-1)^i, j turns four equal
    pairs by j mod 4 and i swaps two more; a seventh pair stays put."""
    return coboundary_action(
        "(0,o1|(2,1),(2,1),(2,1),(2,1),(3,1),(3,1),(5,2))",
        direct_product(cyclic_group(2), cyclic_group(32)),
        [(-1) ** i for i in range(2) for _ in range(32)],
        [tuple((k + j) % 4 for k in range(4)) + ((5, 4) if i else (4, 5)) + (6,)
         for i in range(2) for j in range(32)],
        F(1, 8), (F(1, 7), F(2, 7), F(3, 7), F(4, 7), F(1, 5), F(2, 5), F(1, 3)))


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n, r^k s^e at index e*n + k."""
    def mul(x, y):
        (e1, k1), (e2, k2) = divmod(x, n), divmod(y, n)
        return (e1 ^ e2) * n + (k1 + (-1) ** e1 * k2) % n
    return FiniteGroup(tuple(tuple(mul(x, y) for y in range(2 * n)) for x in range(2 * n)))


def d16_spec() -> ExtendedProductActionSpec:
    """D16 (order 32), r^k s^e reversing the fiber when e = 1 and acting
    on four equal pairs as i -> k + (-1)^e i mod 4; a fifth pair stays put."""
    return coboundary_action(
        "(0,o1|(3,1),(3,1),(3,1),(3,1),(5,1))",
        dihedral_group(16),
        [(-1) ** e for e in range(2) for _ in range(16)],
        [tuple((k + (-1) ** e * i) % 4 for i in range(4)) + (4,)
         for e in range(2) for k in range(16)],
        F(1, 6), (F(1, 9), F(2, 9), F(4, 9), F(5, 9), F(1, 4)))


def z2z3_block_spec() -> ExtendedProductActionSpec:
    """Z2 x Z3 on six equal pairs: half turns from Z2, block rotations from Z3.

    Element 3*i + j is (i, j).  No element crosses the two blocks, so the
    orientation character lives entirely in the fiber rotation.
    """
    def rotate(j: int) -> tuple[int, ...]:
        return tuple([(k + j) % 3 for k in range(3)]
                     + [3 + (k + j) % 3 for k in range(3)])

    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1))"),
        group=direct_product(cyclic_group(2), cyclic_group(3)),
        theta1=tuple(F(i, 2) for i in range(2) for _ in range(3)),
        alpha=(1,) * 6,
        beta=tuple(rotate(j) for _ in range(2) for j in range(3)),
        theta2=((ZERO,) * 6,) * 6,
    )


def reflection_spec() -> ExtendedProductActionSpec:
    """A single fiber-orientation-reversing involution, everything else trivial."""
    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(1,0))"),
        group=cyclic_group(2),
        theta1=(ZERO, ZERO),
        alpha=(1, -1),
        beta=((0,), (0,)),
        theta2=((ZERO,), (ZERO,)),
    )


def alternating_alpha_spec() -> ExtendedProductActionSpec:
    """Z4 hitting alpha = -1 only at odd powers; no reversing involution exists."""
    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(1,0))"),
        group=cyclic_group(4),
        theta1=(ZERO,) * 4,
        alpha=(1, -1, 1, -1),
        beta=((0,),) * 4,
        theta2=((ZERO,),) * 4,
    )


def mixed_crossing_spec() -> ExtendedProductActionSpec:
    """An involution crossing the two blocks at one index pair but not the other.

    Valid, and it commutes with the covering translation, but folding it
    onto the base loses the index-0 meridian data: the folded tables break
    the descriptor composition law.
    """
    return ExtendedProductActionSpec(
        symbol=parse_symbol("(0,o1|(3,1),(3,1),(3,1),(3,1))"),
        group=cyclic_group(2),
        theta1=(ZERO, ZERO),
        alpha=(1, 1),
        beta=((0, 1, 2, 3), (2, 1, 0, 3)),
        theta2=((ZERO,) * 4, (F(1, 3), ZERO, F(2, 3), ZERO)),
    )


def z2_lens_descriptor() -> ProjectedActionDescriptor:
    return ProjectedActionDescriptor(
        base=parse_symbol("(1,n2|(2,1))"),
        group=cyclic_group(2),
        epsilon=(1, -1),
        beta_bar=((0,), (0,)),
        theta2_bar=((ZERO,), (ZERO,)),
    )


def z2z3_descriptor() -> ProjectedActionDescriptor:
    """Z2 x Z3 on the nonorientable base with three equal exceptional orbits."""
    def rotate(j: int) -> tuple[int, ...]:
        return tuple((k + j) % 3 for k in range(3))

    return ProjectedActionDescriptor(
        base=parse_symbol("(1,n2|(2,1),(2,1),(2,1))"),
        group=direct_product(cyclic_group(2), cyclic_group(3)),
        epsilon=tuple((-1) ** i for i in range(2) for _ in range(3)),
        beta_bar=tuple(rotate(j) for _ in range(2) for j in range(3)),
        theta2_bar=((ZERO,) * 3,) * 6,
    )
