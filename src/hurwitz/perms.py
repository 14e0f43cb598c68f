"""Permutations as image tuples, 0-based."""

from __future__ import annotations

from math import lcm

Perm = tuple  # images: Perm[i] is the image of point i


def identity(n: int) -> Perm:
    return tuple(range(n))


def pmul(a: Perm, b: Perm) -> Perm:
    """Product a*b, acting as b first in the image convention (a*b)[i] = a[b[i]].

    Kept only for the oracles `FinGroup.centralizer_size` and
    `dessins.count_triples_brute`; the library multiplies element indices
    with the group's one batch product, `FinGroup.products`, and closes
    permutation groups with `operator.itemgetter` gathers.
    """
    return tuple(map(a.__getitem__, b))


def pinv(a: Perm) -> Perm:
    """Inverse permutation.

    Kept as the test oracle for `FinGroup.inverse_indices`.
    """
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def porder(a: Perm) -> int:
    """Order of a permutation via its cycle lengths.

    Kept as the test oracle for `FinGroup.element_orders`.
    """
    n = len(a)
    seen = [False] * n
    o = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        o = lcm(o, length)
    return o

