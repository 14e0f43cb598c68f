"""Permutations as image tuples, 0-based."""

from __future__ import annotations

Perm = tuple  # images: Perm[i] is the image of point i


def identity(n: int) -> Perm:
    return tuple(range(n))


def pmul(a: Perm, b: Perm) -> Perm:
    """Product a*b, acting as b first in the image convention (a*b)[i] = a[b[i]].

    Kept because `perfbench/spans.py` binds it to count its calls; the
    library multiplies element indices with the group's one batch product,
    `FinGroup.products`, and closes permutation groups with
    `operator.itemgetter` gathers.
    """
    return tuple(map(a.__getitem__, b))
