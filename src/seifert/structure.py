"""Group-theoretic shape of a validated extended product action.

The acting group is examined through its exact data: per element the
datum (alpha, theta1, beta row, theta2 row), read in the spec's integer
view, rotations as integers mod N with N the lcm of their denominators;
the reports themselves carry no rotations.  The data compose by the
one datum composition of :mod:`seifert.actions`, so g -> datum(g) is a
homomorphism by the cocycle laws, and its image, the set of distinct
data, is a concrete finite group.  That image is the target on every
route; it sits inside the product the route names.  The six reported
fields are counts over the data, O(|G| n); the image's table, the
``embedding`` of a report, is built only when it is read.  The surface
behavior away from the boundary is not modeled; when the data fail to
separate group elements the report says so (embedding_ok false) instead
of erroring.

Three report routes, most specific first:

* actions commuting with the covering translation map into Z2 x H, the
  Z2 coordinate reading theta1 in {0, 1/2};
* fiber-orientation-preserving actions map into Zn x H, n the least
  common order of the fiber rotations;
* orientation-mixed actions are reported as (Zn x H+) semidirect Z2
  when some orientation-reversing element is an involution.

H is the image of the boundary shadow g -> (alpha, beta row, theta2
row), H+ the same over the orientation-preserving part.  With alpha
identically +1 the datum of g is its (theta1, shadow) coordinate in
Zn x H, so the datum image is the image of the product coordinates.
The law check reads the report the spec keeps, so a spec validated
before costs no second scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .actions import ExtendedProductActionSpec, _compose, _require_valid, check_tau_commuting
from .groups import FiniteGroup, GroupMap


@dataclass(frozen=True)
class StructureReport:
    """Shape of the acting group as seen through its exact data.

    ``embedding`` maps each element to its datum in ``embedding.target``,
    the image of the datum map: a subgroup of the product that ``factors``
    names, of order at most |G|.  It is a homomorphism by the cocycle
    laws; ``embedding_ok`` says it is injective, i.e. the modeled data
    already separates the group elements.  ``shadow_order`` is |H|, the
    number of distinct boundary shadows.  ``embedding`` is computed on
    first read, from the spec the report was made from.
    """

    route: str
    rotation_order: int
    alpha_image_order: int
    shadow_order: int
    factors: str
    embedding_ok: bool
    spec: ExtendedProductActionSpec = field(repr=False, compare=False)

    @cached_property
    def embedding(self) -> GroupMap:
        # the distinct data with the identity's first, so it lands at index 0;
        # v -> v*N keeps the order of rotations, so the numbering is theirs
        mod, data = self.spec._int_view
        elems = [data[0]] + sorted(set(data) - {data[0]})
        index = {v: i for i, v in enumerate(elems)}
        table = tuple(tuple(index[_compose(a, b, mod)] for b in elems) for a in elems)
        return GroupMap(self.spec.group, FiniteGroup(table), tuple(index[d] for d in data))


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
    mod, data = spec._int_view
    kernel_rotations = [t for a, t, _, _ in data if a == 1]
    # t/N has denominator N/gcd(t, N); their lcm is N/gcd(N, all t)
    rotation_order = mod // gcd(mod, *kernel_rotations)
    alpha_image_order = 2 if len(kernel_rotations) < group.order else 1

    if alpha_image_order == 1 and _tau_applies(spec):
        route, factors = "covering-translation", "Z2 x H"
    elif alpha_image_order == 1:
        route, factors = "fiber-rotation", f"Z{rotation_order} x H"
    else:
        route = "orientation-mixed"
        reversing_involution = any(
            spec.alpha[g] == -1 and group.mul(g, g) == 0 for g in group.elements())
        if reversing_involution:
            factors = f"(Z{rotation_order} x H+) semidirect Z2"
        else:
            factors = "no product decomposition (every orientation-reversing element has order > 2)"

    # the shadow map is a homomorphism, so its image is its set of values
    shadow_order = len({(sign, perm, row) for sign, _, perm, row in data})
    return StructureReport(route, rotation_order, alpha_image_order,
                           shadow_order, factors, len(set(data)) == group.order, spec)
