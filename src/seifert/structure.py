"""Group-theoretic shape of a validated extended product action.

The acting group is examined through two exact shadows of its data: the
fiber rotation theta1 together with the sign alpha, and the boundary
datum (beta, theta2 row, alpha).  Both compose by the cocycle laws, so
each shadow map is a homomorphism and its image is a concrete finite
group we can build tables for.  The surface behavior away from the
boundary is not modeled; when the shadows fail to separate group
elements the report says so (embedding_ok false) instead of erroring.

Three report routes, most specific first:

* actions commuting with the covering translation embed into
  Z2 x H, the Z2 coordinate reading theta1 in {0, 1/2};
* fiber-orientation-preserving actions embed into Zn x H, n the least
  common order of the fiber rotations;
* orientation-mixed actions map onto the image group of their full
  datum, reported as (Zn x H+) semidirect Z2 when some
  orientation-reversing element is an involution.

H is the image group of the boundary shadow, H+ the same over the
orientation-preserving part.  Both image groups compose by the one datum
composition of :mod:`seifert.actions`.  The law check reads the report
the spec keeps, so a spec validated before costs no second scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .actions import (ExtendedProductActionSpec, _compose, _data, _require_valid,
                      check_tau_commuting)
from .groups import FiniteGroup, GroupMap, cyclic_group, direct_product, is_injective


def _image_group(values: list) -> tuple[FiniteGroup, dict]:
    """Concrete group on the distinct data, values[0] (the identity's) at index 0."""
    elems = [values[0]] + sorted(set(values) - {values[0]})
    index = {v: i for i, v in enumerate(elems)}
    table = tuple(tuple(index[_compose(a, b)] for b in elems) for a in elems)
    return FiniteGroup(table), index


@dataclass(frozen=True)
class StructureReport:
    """Shape of the acting group as seen through its exact data.

    ``embedding`` is the combined map into the reported target group, a
    homomorphism by the cocycle laws; ``embedding_ok`` says it is
    injective, i.e. the modeled data already separates the group elements.
    """

    route: str
    rotation_order: int
    alpha_image_order: int
    shadow_order: int
    factors: str
    embedding_ok: bool
    embedding: GroupMap


def _tau_applies(spec: ExtendedProductActionSpec) -> bool:
    try:
        return bool(check_tau_commuting(spec))
    except ValueError:
        return False


def analyze_structure(spec: ExtendedProductActionSpec) -> StructureReport:
    """Classify a validated action; invalid specs are rejected.

    rotation_order is the least common denominator of the fiber
    rotations over the orientation-preserving part, so it is the order
    of the cyclic rotation factor in every route.
    """
    _require_valid(spec)
    group = spec.group
    kernel = [g for g in group.elements() if spec.alpha[g] == 1]
    rotation_order = lcm(*(spec.theta1[g].denominator for g in kernel))
    alpha_image_order = 2 if len(kernel) < group.order else 1

    data = _data(spec)
    # the boundary shadow: each datum with its fiber rotation forgotten
    shadows = [(sign, 0, perm, row) for sign, _, perm, row in data]
    shadow_group, shadow_index = _image_group(shadows)

    if alpha_image_order == 1 and _tau_applies(spec):
        half = Fraction(1, 2)
        target = direct_product(cyclic_group(2), shadow_group)
        images = tuple((1 if spec.theta1[g] == half else 0) * shadow_group.order
                       + shadow_index[shadows[g]] for g in group.elements())
        route, factors = "covering-translation", "Z2 x H"
    elif alpha_image_order == 1:
        target = direct_product(cyclic_group(rotation_order), shadow_group)
        images = tuple(int(spec.theta1[g] * rotation_order) * shadow_group.order
                       + shadow_index[shadows[g]] for g in group.elements())
        route, factors = "fiber-rotation", f"Z{rotation_order} x H"
    else:
        target, datum_index = _image_group(data)
        images = tuple(datum_index[d] for d in data)
        route = "orientation-mixed"
        reversing_involution = any(
            spec.alpha[g] == -1 and group.mul(g, g) == 0 for g in group.elements())
        if reversing_involution:
            factors = f"(Z{rotation_order} x H+) semidirect Z2"
        else:
            factors = "no product decomposition (every orientation-reversing element has order > 2)"

    embedding = GroupMap(group, target, images)
    return StructureReport(route, rotation_order, alpha_image_order,
                           shadow_group.order, factors, is_injective(embedding), embedding)
