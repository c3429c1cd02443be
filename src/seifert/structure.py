"""Group-theoretic shape of a validated extended product action.

The acting group is examined through its exact data: per element the
datum (alpha, theta1, beta row, theta2 row), read in the spec's integer
view, rotations as integers mod N with N the lcm of their denominators;
the reports themselves carry no rotations.  g -> datum(g) is a
homomorphism by the cocycle laws, and its image, the set of distinct
data, is a finite group inside the product the route names.  A report
holds counts over the data, O(|G| n), and builds no group table.  The
surface behavior away from the boundary is not modeled; when the data
fail to separate group elements the report says so (embedding_ok false)
instead of erroring.

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

from dataclasses import dataclass
from math import gcd

from .actions import ExtendedProductActionSpec, _require_valid, check_tau_commuting


@dataclass(frozen=True)
class StructureReport:
    """Shape of the acting group as seen through its exact data.

    ``embedding_ok`` says the datum map is injective, i.e. the modeled
    data already separate the group elements; its image, of order at
    most |G|, is a subgroup of the product that ``factors`` names.
    ``shadow_order`` is |H|, the number of distinct boundary shadows.
    """

    route: str
    rotation_order: int
    alpha_image_order: int
    shadow_order: int
    factors: str
    embedding_ok: bool


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
                           shadow_order, factors, len(set(data)) == group.order)
