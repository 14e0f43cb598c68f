"""Hurwitz origamis as generating pairs with commutator of order exactly two.

The once-punctured-torus orbifold group <a, b, c | c^2, [a,b] c> maps onto
G exactly when G is generated by a pair whose commutator has order two, so
classifying Hurwitz origamis with deck group G reduces to classifying such
pairs up to automorphism.  Commutator order exactly two (not dividing) is
required: a trivial commutator gives an unramified genus-one cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog as _catalog
from .fields import is_prime
from .group import (DEFAULT_CAP, CapExceededError, FinGroup, classify_pairs,
                    normal_closure)


@dataclass(frozen=True)
class OrigamiPair:
    group: FinGroup
    a: int
    b: int

    @property
    def commutator(self) -> int:
        return self.group.commutator(self.a, self.b)


@dataclass(frozen=True)
class OrigamiClass:
    representative: OrigamiPair
    genus: int
    class_size: int


def origami_genus(order: int) -> int:
    """Genus attaining the translation-surface bound: |G| = 4(g - 1)."""
    if order % 4 != 0:
        raise ValueError(f"group order {order} is not divisible by 4")
    return 1 + order // 4


def enumerate_origami_pairs(G: FinGroup):
    """Automorphism classes of generating pairs with commutator of order 2.

    `classify_pairs` runs a over conjugacy-class representatives (weighted
    by class size) and b over all elements, keeps the pairs whose commutator
    has order 2, and classifies them by the canonical Cayley key
    `kernel_key(G, (a, b))`.  Each class keeps its first candidate in scan
    order.  Its `batch` gives the commutators of a chunk of representatives
    with every b in three `products` calls.  Only a group that
    `_may_have_pairs` is scanned.
    """
    if not _may_have_pairs(G):
        return []
    orders = np.array(G.element_orders())
    bs = np.arange(G.order)
    inverses = np.array(G.inverse_indices())

    def commutators(reps):
        # [a, b] = (a^-1 b^-1)(a b) for every a in reps and every b at once
        left = G.product_table(inverses[reps], inverses).ravel()
        return G.products(left, G.product_table(reps, bs).ravel()).reshape(len(reps), -1)

    g = origami_genus(G.order)
    found = classify_pairs(G, np.ones(G.order, dtype=bool), bs, commutators,
                           orders == 2)
    out = [OrigamiClass(OrigamiPair(G, a, b), g, weight)
           for (a, b, _), weight in found.values()]
    out.sort(key=lambda c: (c.representative.a, c.representative.b))
    return out


def _may_have_pairs(G: FinGroup) -> bool:
    """Can a pair with commutator c of order 2 generate G?  Then 4 divides
    |G| = 4(g - 1), and G' is the normal closure of the involution c (the
    pair's images in G/<<c>> commute), so |G'| is even and some involution
    of G' has normal closure G'.

    The involutions of G' come from one `products` batch of its squares and
    are tried in index order.  One that lies in an earlier, smaller closure
    is skipped: that closure is normal, so it holds the whole class."""
    if G.order % 4:
        return False
    derived = np.array(G.commutator_subgroup())
    if len(derived) % 2:
        return False
    covered = np.zeros(G.order, dtype=bool)
    covered[0] = True
    for c in derived[G.products(derived, derived) == 0].tolist():
        if covered[c]:
            continue
        closure = normal_closure(G, [c])
        if len(closure) == len(derived):
            return True
        covered[closure] = True
    return False


@dataclass(frozen=True)
class ExistenceVerdict:
    genus: int
    order: int
    verdict: str  # "witness" | "exhaustive_no" | "unknown_no_witness"
    witness: OrigamiPair | None
    searched_groups: tuple

    def to_json(self) -> dict:
        out = {
            "genus": self.genus,
            "order": self.order,
            "verdict": self.verdict,
            "searched_groups": list(self.searched_groups),
        }
        if self.witness is not None:
            w = self.witness
            out["witness"] = {"group": w.group.name, "a": w.a, "b": w.b,
                              "commutator_order": w.group.element_order(w.commutator)}
        return out


def origami_existence(g: int, groups=None, cap=DEFAULT_CAP) -> ExistenceVerdict:
    """Search for a Hurwitz origami in genus g over groups of order 4(g-1).

    Without `groups`, the catalog's groups of the order are searched: its
    abelian types are named in `searched_groups` but never built, since
    their commutators are trivial, and an order above the cap raises
    `CapExceededError` before any group is built.

    exhaustive_no is only issued when the searched list provably covers all
    isomorphism types of the order (orders 4 and 4p for odd primes p);
    otherwise a fruitless search reports unknown_no_witness.
    """
    if g < 2:
        raise ValueError("genus must be >= 2")
    order = 4 * (g - 1)
    complete = False
    named = ()
    if groups is None:
        if order > cap:
            raise CapExceededError(f"origami search: order {order} > cap {cap}")
        p = order // 4
        if is_prime(p) and p > 2:
            types, groups = _catalog.groups_of_order_4p_split(p, cap=cap)
            complete = True
        else:
            types, groups = _catalog.groups_of_order_split(order, cap=cap)
            complete = order == 4
        named = tuple(map(_catalog.abelian_name, types))
    searched = named + tuple(G.name for G in groups)
    for G in groups:
        if G.order != order:
            raise ValueError(f"{G.name} has order {G.order}, expected {order}")
        classes = enumerate_origami_pairs(G)
        if classes:
            return ExistenceVerdict(g, order, "witness",
                                    classes[0].representative, searched)
    verdict = "exhaustive_no" if complete else "unknown_no_witness"
    return ExistenceVerdict(g, order, verdict, None, searched)
