import weakref

import numpy as np

from hurwitz import catalog
from hurwitz.fields import is_prime

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def _base(elements):
    """The oracle's own base of the permutations `elements`.

    A base is a list of points whose images determine an element (Sims; Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).
    Points join in order when they separate more elements, until all
    elements have distinct images: the rule `group._base_product` applies
    to its prefix codes, here on tuples in a set.
    """
    base = []
    images = [()] * len(elements)
    distinct = 1
    for p in range(len(elements[0])):
        if distinct == len(elements):
            break
        extended = [im + (e[p],) for im, e in zip(images, elements)]
        count = len(set(extended))
        if count > distinct:
            base.append(p)
            images, distinct = extended, count
    return base


def _base_columns(G):
    """G's permutation rows as an array, and the base `_base` picks."""
    A = np.array(G.elements, dtype=np.intp).reshape(G.order, G.degree)
    return A, _base(G.elements)


def base_images(G):
    """Each element's images of the base, as tuples in element order."""
    A, base = _base_columns(G)
    return [tuple(row) for row in A[:, base].tolist()]


_TUPLE_MULS = weakref.WeakKeyDictionary()


def tuple_mul(G):
    """Oracle for `FinGroup.mul`: the scalar base-image product on tuples.

    a*b maps a base point p to a[b[p]], the `pmul` image; the tuple of
    those images is looked up in a dict.  Its base comes from its own
    `_base`, so it shares no code with `FinGroup.products`; it is built
    once per group.
    """
    if G not in _TUPLE_MULS:
        rows = G.elements
        A, base = _base_columns(G)
        by_base = {tuple(row): i for i, row in enumerate(A[:, base].tolist())}
        _TUPLE_MULS[G] = lambda i, j: by_base[tuple([rows[i][rows[j][p]] for p in base])]
    return _TUPLE_MULS[G]


def catalog_search_groups(g):
    """Every catalog group of order 4(g - 1) in the order the genus-g origami
    search names them, all built: `groups_of_order_4p` when g - 1 is an odd
    prime, else `groups_of_order`."""
    if is_prime(g - 1) and g > 3:
        return catalog.groups_of_order_4p(g - 1)
    return catalog.groups_of_order(4 * (g - 1))
