"""Fixed points of automorphisms on a regular Belyi cover, and the H^1 character.

Points of the cover above 0, 1, infinity are the coset spaces of the cyclic
subgroups generated by the triple entries; a nontrivial automorphism fixes
no point elsewhere, so its fixed points are exactly its fixed cosets.  The
Lefschetz identity chi(h) = 2 - Fix(h) then gives the character on H^1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dessins import TriangleTriple, genus_of
from .group import FinGroup, subgroup_closure


def ramification_point_count(G: FinGroup, t: TriangleTriple) -> int:
    """Total number of points above the three branch points (fiber sizes)."""
    return sum(G.order // G.element_order(s) for s in (t.x, t.y, t.z))


def _coset_fixed_counts(G: FinGroup, s: int):
    """Per conjugacy class h^G: the number of right cosets of <s> fixed by h.

    Orbit counting: <s>g is fixed by h iff g h g^-1 lies in <s>, and each
    element of h^G is g h g^-1 for |G| / |h^G| elements g, so the count is
    |G| |h^G & <s>| / (|h^G| |<s>|).  One pass over <s> gives every class;
    the identity class gets the number of cosets.
    """
    sub = subgroup_closure(G, [s])
    meets = [0] * len(G.conjugacy_classes())
    for i in sub:
        meets[G.class_of(i)] += 1
    return [G.order * m // (len(cls) * len(sub))
            for m, cls in zip(meets, G.conjugacy_classes())]


def _fixed_by_class(G: FinGroup, t: TriangleTriple):
    """Fix(h) per conjugacy class (class function); None for the identity."""
    counts = [_coset_fixed_counts(G, s) for s in (t.x, t.y, t.z)]
    return [None if cls[0] == 0 else sum(fix)
            for cls, fix in zip(G.conjugacy_classes(), zip(*counts))]


@dataclass(frozen=True)
class ClassFunction:
    """Rational values, one per conjugacy class in canonical order."""
    group: FinGroup
    values: tuple

    def inner_product(self, other: "ClassFunction") -> Fraction:
        G = self.group
        total = Fraction(0)
        for ci, cls in enumerate(G.conjugacy_classes()):
            total += len(cls) * Fraction(self.values[ci]) * Fraction(other.values[ci])
        return total / G.order


def trivial_character(G: FinGroup) -> ClassFunction:
    return ClassFunction(G, tuple(1 for _ in G.conjugacy_classes()))


@dataclass(frozen=True)
class H1Character:
    character: ClassFunction
    genus: int
    faithful: bool


def h1_character(G: FinGroup, t: TriangleTriple) -> H1Character:
    """Character of the G-action on H^1 of the cover, via Lefschetz numbers.

    chi(1) = 2g; chi(h) = 2 - Fix(h) for h != 1.  The action is faithful
    iff no nontrivial class attains chi(1).
    """
    g = genus_of(G.order, t.orders())
    if g < 2:
        raise ValueError(f"genus {g} < 2: no hyperbolic cover")
    by_class = _fixed_by_class(G, t)
    values = [2 * g if fix is None else 2 - fix for fix in by_class]
    chi = ClassFunction(G, tuple(values))
    faithful = all(v != 2 * g for v in values[1:])
    return H1Character(chi, g, faithful)


def character_report(G: FinGroup, t: TriangleTriple) -> dict:
    """JSON-able character rows for census reports."""
    h1 = h1_character(G, t)
    rows = []
    for ci, cls in enumerate(G.conjugacy_classes()):
        rows.append({
            "class_order": G.element_order(cls[0]),
            "class_size": len(cls),
            "chi_value": int(h1.character.values[ci]),
        })
    triv = trivial_character(G)
    return {
        "genus": h1.genus,
        "faithful": h1.faithful,
        "rows": rows,
        "trivial_multiplicity": str(h1.character.inner_product(triv)),
    }
