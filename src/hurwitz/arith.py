"""Arithmetic of the cubic field k = Q(cos 2pi/7).

Prime splitting is read off from the factorization type of the minimal
polynomial x^3 + x^2 - 2x - 1 of 2 cos(2pi/7) modulo the rational prime.
The classification of which PSL(2, q) are Hurwitz groups is shipped as a
closed-form criterion; the test suite re-derives every in-range value by
exhaustive triple enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import psl2, psl2_order
from .fields import is_prime, prime_power
from .group import FinGroup

# minimal polynomial of 2 cos(2pi/7), little-endian coefficients
MIN_POLY = (-1, -2, 1, 1)


@dataclass(frozen=True)
class PrimeSplit:
    """Splitting data (e, f, g) of a rational prime in k; e*f*g = 3."""
    ell: int
    e: int
    f: int
    g: int

    @property
    def residue_q(self) -> int:
        return self.ell ** self.f

    def residue_fields(self):
        return [self.residue_q] * self.g


def splitting_in_k(ell: int) -> PrimeSplit:
    """Splitting type of a rational prime in the cubic Galois field k."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if ell == 7:
        return PrimeSplit(7, e=3, f=1, g=1)  # the unique ramified prime
    roots = sum(1 for x in range(ell)
                if sum(c * pow(x, i, ell) for i, c in enumerate(MIN_POLY)) % ell == 0)
    # Galois cubic, unramified: either three roots or none.
    if roots == 3:
        return PrimeSplit(ell, e=1, f=1, g=3)
    if roots == 0:
        return PrimeSplit(ell, e=1, f=3, g=1)
    raise RuntimeError(f"unexpected root count {roots} mod {ell}")  # unreachable


@dataclass(frozen=True)
class HurwitzStatus:
    is_hurwitz: bool
    orbit_count: int = 0

    def __bool__(self):
        return self.is_hurwitz


NOT_HURWITZ = HurwitzStatus(False, 0)


def macbeath_class(q: int) -> HurwitzStatus:
    """Is PSL(2, q) a Hurwitz group, and with how many dessin classes?

    q = 7 gives one class; q = p with p = +-1 mod 7 gives three; q = p^3
    with p not 0, +-1 mod 7 gives one; all other prime powers give none.
    """
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    p, f = pp
    if q == 7:
        return HurwitzStatus(True, 1)
    if f == 1 and p % 7 in (1, 6):
        return HurwitzStatus(True, 3)
    if f == 3 and p % 7 not in (0, 1, 6):
        return HurwitzStatus(True, 1)
    return NOT_HURWITZ


@dataclass(frozen=True)
class CongruenceCurve:
    genus: int
    group_descriptor: str
    moduli_field_descriptor: str
    orbit_size: int


def congruence_curves(ell: int):
    """Hurwitz curves from the principal congruence quotients at primes above ell.

    One entry per prime of k over ell; the moduli field is the splitting
    field of ell in k/Q, and the Galois orbit has size equal to the number
    of primes above ell.
    """
    split = splitting_in_k(ell)
    q = split.residue_q
    if not macbeath_class(q):
        return []
    genus = 1 + psl2_order(q) // 84
    moduli = "Q" if split.g == 1 else "k (degree 3)"
    return [CongruenceCurve(genus, f"PSL(2,{q})", moduli, split.g)
            for _ in range(split.g)]


@dataclass(frozen=True)
class CongruenceMatch:
    ell: int
    f: int
    residue_q: int


def _class_fingerprint(G: FinGroup):
    return sorted((G.element_order(cls[0]), len(cls))
                  for cls in G.conjugacy_classes())


def congruence_match(G: FinGroup):
    """Match G against the prime-level congruence quotients PSL(2, q).

    Returns the prime level when |G| equals |PSL(2, q)| for a Macbeath-
    eligible q and G is simple with the same conjugacy-class fingerprint;
    otherwise None.  Composite moduli are deliberately out of scope.
    """
    for ell in range(2, 200):
        if not is_prime(ell):
            continue
        split = splitting_in_k(ell)
        q = split.residue_q
        if not macbeath_class(q):
            continue
        if psl2_order(q) != G.order:
            continue
        if not G.is_simple():
            continue
        ref = psl2(q)
        if _class_fingerprint(G) == _class_fingerprint(ref):
            return CongruenceMatch(ell, split.f, q)
    return None
