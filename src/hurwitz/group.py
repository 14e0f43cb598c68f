"""Table-based finite permutation groups.

Groups are enumerated completely by breadth-first closure over their
generators, so every query afterwards is exact.  A hard order cap keeps
the table-based approach honest; everything in scope fits well below it.
"""

from __future__ import annotations

from .perms import identity, pinv, pmul, porder

DEFAULT_CAP = 200_000


class CapExceededError(RuntimeError):
    """Group too large for table-based methods."""


class FinGroup:
    """A finite group given by its full element table.

    Elements are stored in BFS discovery order (identity first) so indices,
    class representatives and all derived output are reproducible.
    """

    def __init__(self, degree, generators, elements, index, name):
        self.degree = degree
        self.generators = list(generators)
        self.elements = elements
        self.index = index
        self.order = len(elements)
        self.name = name
        self._orders = None
        self._inverses = None
        self._classes = None
        self._class_of = None
        self._derived = None

    def __repr__(self):
        return f"FinGroup({self.name!r}, order={self.order}, degree={self.degree})"

    def __len__(self):
        return self.order

    # -- basic element arithmetic on indices --------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.index[pmul(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        return self.inverse_indices()[i]

    def conj(self, i: int, g: int) -> int:
        """g^-1 * i * g."""
        gp = self.elements[g]
        return self.index[pmul(pmul(pinv(gp), self.elements[i]), gp)]

    def element_order(self, i: int) -> int:
        orders = self.element_orders()
        return orders[i]

    def element_orders(self):
        if self._orders is None:
            self._orders = [porder(e) for e in self.elements]
        return self._orders

    def inverse_indices(self):
        if self._inverses is None:
            self._inverses = [self.index[pinv(e)] for e in self.elements]
        return self._inverses

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self):
        """Partition of element indices into classes, canonically sorted.

        Classes are ordered by element order, then class size, then by the
        lexicographically least member permutation.
        """
        if self._classes is None:
            self._classes = conjugacy_classes(self)
            self._class_of = [0] * self.order
            for ci, cls in enumerate(self._classes):
                for i in cls:
                    self._class_of[i] = ci
        return self._classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        return self._class_of[i]

    def class_size(self, i: int) -> int:
        return len(self.conjugacy_classes()[self.class_of(i)])

    def centralizer_size(self, i: int) -> int:
        """Computed by direct scan; equals |G| / class size (orbit-stabilizer).

        Kept as the test oracle for the class sizes.
        """
        e = self.elements[i]
        return sum(1 for g in self.elements if pmul(g, e) == pmul(e, g))

    def commutator(self, a: int, b: int) -> int:
        """a^-1 * b^-1 * a * b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def commutator_subgroup(self):
        """Sorted indices of the derived subgroup (cached)."""
        if self._derived is None:
            self._derived = commutator_subgroup(self)
        return self._derived

    def is_perfect(self) -> bool:
        return len(self.commutator_subgroup()) == self.order

    def is_abelian(self) -> bool:
        return len(self.commutator_subgroup()) == 1

    def is_simple(self) -> bool:
        """True iff every nontrivial conjugacy class has normal closure G."""
        if self.order == 1:
            return False
        for cls in self.conjugacy_classes():
            if 0 in cls:  # identity class
                continue
            if len(normal_closure(self, [cls[0]])) != self.order:
                return False
        return True

    def right_mult_table(self, i: int):
        """Array m with m[u] = index of u * elements[i]."""
        e = self.elements[i]
        idx = self.index
        return [idx[pmul(u, e)] for u in self.elements]


def group_from_generators(gens, cap=DEFAULT_CAP, name=None) -> FinGroup:
    """Enumerate the group generated by permutations via BFS closure."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValueError("generators must share one degree")
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
    e = identity(degree)
    elements = [e]
    index = {e: 0}
    pos = 0
    while pos < len(elements):
        u = elements[pos]
        pos += 1
        for s in gens:
            v = pmul(u, s)
            if v not in index:
                if len(elements) >= cap:
                    raise CapExceededError(
                        f"order exceeds cap {cap} (group {name or 'unnamed'})"
                    )
                index[v] = len(elements)
                elements.append(v)
    return FinGroup(degree, gens, elements, index, name or f"<{len(gens)} gens>")


def conjugacy_classes(G: FinGroup):
    """Brute-force classes as orbits under conjugation by the generators."""
    n = G.order
    assigned = [False] * n
    gen_idx = [G.index[g] for g in G.generators]
    gen_inv = [G.index[pinv(g)] for g in G.generators]
    classes = []
    for start in range(n):
        if assigned[start]:
            continue
        orbit = [start]
        assigned[start] = True
        queue = [start]
        while queue:
            i = queue.pop()
            ei = G.elements[i]
            for gi, gii in zip(gen_idx, gen_inv):
                c = G.index[pmul(pmul(G.elements[gii], ei), G.elements[gi])]
                if not assigned[c]:
                    assigned[c] = True
                    orbit.append(c)
                    queue.append(c)
        classes.append(sorted(orbit))
    orders = G.element_orders()
    classes.sort(key=lambda cls: (orders[cls[0]], len(cls),
                                  min(G.elements[i] for i in cls)))
    return classes


def subgroup_closure(G: FinGroup, gen_indices, stop_above=None):
    """Indices of the subgroup generated by the given elements.

    If stop_above is set, stop as soon as the partial closure exceeds it and
    return None (used for fast generation tests).
    """
    gens = [G.elements[i] for i in gen_indices]
    e = G.elements[0]
    seen = {e}
    elems = [e]
    pos = 0
    while pos < len(elems):
        u = elems[pos]
        pos += 1
        for s in gens:
            v = pmul(u, s)
            if v not in seen:
                seen.add(v)
                elems.append(v)
                if stop_above is not None and len(elems) > stop_above:
                    return None
    return [G.index[x] for x in elems]


def generates(G: FinGroup, gen_indices) -> bool:
    """Do the given elements generate G?

    A subgroup of order > |G|/2 must be G itself, so the closure can stop
    early either way.
    """
    half = G.order // 2
    closure = subgroup_closure(G, gen_indices, stop_above=half)
    if closure is None:
        return True
    return len(closure) == G.order


def normal_closure(G: FinGroup, seeds):
    """Sorted indices of the normal closure of the seed elements in G.

    One BFS from the identity: each element found is multiplied on the right
    by every seed and conjugated by every generator of G.  The orbit is
    closed under both maps, hence under right multiplication by every
    conjugate of a seed, so it is the normal closure itself.
    """
    elements, index = G.elements, G.index
    seeds = [elements[s] for s in seeds]
    conjugators = [(pinv(g), g) for g in G.generators]
    seen = {0}
    queue = [0]
    for u in queue:
        up = elements[u]
        images = [pmul(up, s) for s in seeds]
        images += [pmul(pmul(ginv, up), g) for ginv, g in conjugators]
        for v in images:
            v = index[v]
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return sorted(seen)


def commutator_subgroup(G: FinGroup):
    """Derived subgroup, as sorted indices: normal closure of generator commutators."""
    gen_idx = [G.index[g] for g in G.generators]
    seeds = {G.commutator(a, b) for a in gen_idx for b in gen_idx} - {0}
    return normal_closure(G, seeds)


def cayley_labels(G: FinGroup, gens):
    """Canonical labels of the Cayley graph of <gens>, yielded lazily.

    BFS from the identity, trying the generators in the given order, numbers
    the elements in discovery order; for each element u in that order and
    each generator s it yields the number of u*s.  The sequence describes the
    right-regular action of <gens> up to relabelling, so two generator tuples
    give equal sequences exactly when gens1 -> gens2 extends to an
    isomorphism <gens1> -> <gens2>.  `gens` are element indices.
    """
    elements, index = G.elements, G.index
    gens = [elements[s] for s in gens]
    number = [-1] * G.order
    number[0] = 0
    queue = [0]
    for u in queue:
        up = elements[u]
        for s in gens:
            v = index[pmul(up, s)]
            label = number[v]
            if label < 0:
                label = number[v] = len(queue)
                queue.append(v)
            yield label


def kernel_key(G: FinGroup, gens):
    """The full `cayley_labels` tuple, or None when gens do not generate G.

    Equal keys mean exactly that gens1 -> gens2 extends to an isomorphism,
    i.e. that the two epimorphisms from the free group have equal kernels.
    """
    key = tuple(cayley_labels(G, gens))
    return key if len(key) == len(gens) * G.order else None


def pair_isomorphic(G: FinGroup, pair1, pair2, H: FinGroup | None = None) -> bool:
    """Does x1 -> x2, y1 -> y2 extend to an isomorphism G -> H (H defaults to G)?

    Key equality of the two canonical Cayley keys.  Both pairs must
    generate (checked).
    """
    H = G if H is None else H
    pair1 = [G.index[tuple(p)] if not isinstance(p, int) else p for p in pair1]
    pair2 = [H.index[tuple(p)] if not isinstance(p, int) else p for p in pair2]
    key1 = kernel_key(G, pair1)
    if key1 is None:
        raise ValueError("first pair does not generate the group")
    key2 = kernel_key(H, pair2)
    if key2 is None:
        raise ValueError("second pair does not generate the group")
    return key1 == key2
