"""Regular dessins as generating triples, with classification and census.

A regular dessin of type (p, q, r) with group G is a generating triple
(x, y, z), xyz = 1, of element orders p, q, r; two triples give the same
dessin iff mapping one pair to the other extends to an automorphism, i.e.
iff the corresponding epimorphisms from the triangle group have equal
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .group import CapExceededError, FinGroup, classify_pairs


@dataclass(frozen=True)
class TriangleTriple:
    """Indices of a generating triple x*y*z = 1 in its group."""
    group: FinGroup
    x: int
    y: int
    z: int
    type: tuple

    def orders(self):
        G = self.group
        return (G.element_order(self.x), G.element_order(self.y),
                G.element_order(self.z))


@dataclass(frozen=True)
class DessinClass:
    representative: TriangleTriple
    genus: int
    passport: tuple
    class_size: int
    key: tuple = field(default=None, compare=False, repr=False)  # its kernel key


def genus_of(order: int, type_) -> int:
    """Genus of a regular cover: 2g - 2 = |G| (1 - 1/p - 1/q - 1/r)."""
    p, q, r = type_
    if min(p, q, r) < 1:
        raise ValueError("type entries must be >= 1")
    rhs = order * (1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r))
    if rhs.denominator != 1:
        raise ValueError(f"2g-2 = {rhs} is not an integer for order {order}, "
                         f"type {tuple(type_)}")
    rhs = int(rhs)
    if rhs % 2 != 0:
        raise ValueError(f"2g-2 = {rhs} is odd for order {order}, type {tuple(type_)}")
    g = (rhs + 2) // 2
    if g < 0:
        raise ValueError(f"negative genus for order {order}, type {tuple(type_)}")
    return g


def passport(t: TriangleTriple) -> tuple:
    """Fingerprint: order, type, (order, class size) per entry, z-class label."""
    G = t.group
    G.conjugacy_classes()
    entry = tuple((G.element_order(i), G.class_size(i)) for i in (t.x, t.y, t.z))
    return (G.order, tuple(t.type), entry, G.class_of(t.z))


def _order_matches(orders, target: int, mode: str):
    """Does an element order, or each entry of an array of them, match the
    target: equal to it ("exact") or dividing it ("dividing")?"""
    if mode == "exact":
        return orders == target
    if mode == "dividing":
        return target % orders == 0
    raise ValueError(f"unknown mode {mode!r} (want 'exact' or 'dividing')")


def enumerate_triples(G: FinGroup, type_, mode: str = "exact"):
    """All dessin classes of the given type with group G, canonically ordered.

    `classify_pairs` runs x over conjugacy-class representatives of matching
    order (results weighted by class size) and y over all matching elements,
    keeps the candidates with order(xy) matching r, and classifies them by
    the canonical Cayley key `kernel_key(G, (x, y))`.  Each class keeps its
    first candidate in scan order.  Its `batch` is the table of products xy
    of a chunk of representatives xs with every y, one `products` call.
    """
    p, q, r = type_
    orders = np.array(G.element_orders())
    ys = np.flatnonzero(_order_matches(orders, q, mode))
    inv_idx = G.inverse_indices()
    found = classify_pairs(G, _order_matches(orders, p, mode), ys,
                           lambda xs: G.product_table(xs, ys),
                           _order_matches(orders, r, mode))
    out = []
    for key, ((x, y, xy), weight) in found.items():
        t = TriangleTriple(G, x, y, inv_idx[xy], tuple(type_))
        out.append(DessinClass(t, genus_of(G.order, t.orders()), passport(t), weight,
                               key))
    out.sort(key=lambda c: (c.passport, c.representative.x, c.representative.y))
    return out


# -- Hurwitz census -----------------------------------------------------------

def order_for_genus(g: int, type_):
    """Group order forced by the genus for a hyperbolic type, or None."""
    p, q, r = type_
    excess = 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)
    if excess <= 0:
        raise ValueError("census requires a hyperbolic type")
    order = Fraction(2 * g - 2) / excess
    if order.denominator != 1 or order <= 0:
        return None
    return int(order)


def hurwitz_census(catalog, g_max: int, type_=(2, 3, 7)):
    """Count dessin classes per genus over the catalog's perfect candidates.

    Classes found in different (possibly isomorphic) candidate groups are
    deduplicated by their canonical Cayley key, so each curve is counted
    once; passports are reported data only.  The result is
    catalog-conditional by construction, and an order whose candidates
    exceed the group-order cap is listed in "unchecked_orders".
    """
    rows = []
    unchecked = []
    for g in range(2, g_max + 1):
        order = order_for_genus(g, type_)
        if order is None:
            continue
        try:
            candidates = catalog.perfect_candidates(order)
        except CapExceededError:
            unchecked.append(order)
            continue
        kept = {}  # kernel key -> (group, DessinClass)
        for G in candidates:
            for cls in enumerate_triples(G, type_):
                kept.setdefault(cls.key, (G, cls))
        rows.append({
            "genus": g,
            "order": order,
            "count": len(kept),
            "groups": _group_rows(kept.values()),
            "searched": [G.name for G in candidates] + catalog.searched_families(order),
        })
    return {
        "type": list(type_),
        "max_genus": g_max,
        "catalog_version": catalog.version,
        "catalog_conditional": True,
        "counts": {str(row["genus"]): row["count"] for row in rows},
        "census": rows,
        "unchecked_orders": unchecked,
    }


def _group_rows(kept):
    by_group = {}
    for G, cls in kept:
        by_group.setdefault(G.name, []).append(cls)
    out = []
    for name in sorted(by_group):
        out.append({
            "name": name,
            "classes": [serialize_class(c) for c in by_group[name]],
        })
    return out


def serialize_class(c: DessinClass) -> dict:
    t = c.representative
    return {
        "genus": c.genus,
        "passport": _passport_json(c.passport),
        "class_size": c.class_size,
        "representative": {
            "x": t.x, "y": t.y, "z": t.z,
            "orders": list(t.orders()),
        },
    }


def _passport_json(pp):
    order, type_, entries, z_label = pp
    return {
        "order": order,
        "type": list(type_),
        "entries": [list(e) for e in entries],
        "z_class": z_label,
    }
