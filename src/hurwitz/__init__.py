"""Finite-group computations for Hurwitz curves, origamis, and congruence data."""

__version__ = "0.1.0"

from .group import FinGroup, group_from_generators, kernel_key, pair_isomorphic
from .dessins import enumerate_triples, genus_of, hurwitz_census
from .origami import enumerate_origami_pairs, origami_existence
from .arith import congruence_curves, macbeath_class, splitting_in_k

__all__ = [
    "FinGroup",
    "group_from_generators",
    "kernel_key",
    "pair_isomorphic",
    "enumerate_triples",
    "genus_of",
    "hurwitz_census",
    "enumerate_origami_pairs",
    "origami_existence",
    "congruence_curves",
    "macbeath_class",
    "splitting_in_k",
    "__version__",
]
