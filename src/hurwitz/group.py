"""Table-based finite groups: permutation groups, and groups given by a
product rule on integer codes.

Groups are enumerated completely by breadth-first closure over their
generators, so every query afterwards is exact.  A hard order cap keeps
the table-based approach honest; everything in scope fits well below it.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain
from operator import itemgetter

import numpy as np

from .perms import identity

DEFAULT_CAP = 200_000
BATCH = 1 << 14  # entries per `products` batch of `classify_pairs`, unless |G| is more


class CapExceededError(RuntimeError):
    """Group too large for table-based methods."""


def _cap_error(name, reached, cap, size):
    return CapExceededError(
        f"group closure of {name}: {reached} elements reached > cap {cap}, {size}")


class FinGroup:
    """A finite group given by its elements' keys and one batch product.

    keys[i] is element i's permutation for a group closed from permutations
    (`group_from_generators`), or its code for one closed under a product
    rule (`group_from_rule`).  Elements are stored in BFS discovery order
    (identity first) so indices, class representatives and all derived
    output are reproducible.  `products` is the batch product on index
    arrays that the builder supplies; every other operation is defined on
    it.  `gen_tables`, a (len(gen_indices), order) int array that the
    builder keeps from its closure, holds the generators' right
    multiplications: gen_tables[k][u] is the index of u * generator k.
    The permutation rows `elements` are the keys of a permutation group; a
    rule group computes them with `row` only when they are read, for
    oracles and tests.
    """

    def __init__(self, keys, gen_indices, gen_tables, product, name, degree, row=None):
        self.keys = keys
        self.order = len(keys)
        self.gen_indices = list(gen_indices)
        self.gen_tables = gen_tables
        self.name = name
        self.degree = degree
        self._product = product
        self._row = row

    # caches, filled on first use
    _rows = _index = _orders = _inverses = _classes = _class_of = _derived = _conj = None

    def __repr__(self):
        return f"FinGroup({self.name!r}, order={self.order}, degree={self.degree})"

    def __len__(self):
        return self.order

    # -- permutation rows ----------------------------------------------------

    def row(self, i: int):
        """Element i as a permutation tuple of range(degree)."""
        return self.keys[i] if self._row is None else self._row(self.keys[i])

    @property
    def elements(self):
        """The permutation rows of all elements, in element order: public API,
        read by `pair_isomorphic` for pairs given as tuples."""
        if self._rows is None:
            self._rows = self.keys if self._row is None else list(map(self._row, self.keys))
        return self._rows

    @property
    def index(self):
        """Element index of each permutation row: public API, the lookup of
        `pair_isomorphic` for pairs given as tuples."""
        if self._index is None:
            self._index = {row: i for i, row in enumerate(self.elements)}
        return self._index

    @property
    def generators(self):
        return [self.row(i) for i in self.gen_indices]

    # -- basic element arithmetic on indices --------------------------------

    def products(self, I, J):
        """Index array of elements[I[k]] * elements[J[k]], for index arrays I, J."""
        return self._product(np.asarray(I, dtype=np.intp), np.asarray(J, dtype=np.intp))

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]: `products` on one pair."""
        return int(self.products([i], [j])[0])

    def inv(self, i: int) -> int:
        return self.inverse_indices()[i]

    def element_order(self, i: int) -> int:
        orders = self.element_orders()
        return orders[i]

    def product_table(self, A, B):
        """The (len(A), len(B)) array of the products elements[a] * elements[b],
        from one `products` batch."""
        A, B = np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp)
        I, J = np.repeat(A, len(B)), np.repeat(B[None], len(A), axis=0).ravel()
        return self.products(I, J).reshape(len(A), -1)

    def element_orders(self):
        """Orders by repeated products over the elements not yet at the identity.

        The power just before the identity is the inverse, so the inverses
        are kept as well.
        """
        if self._orders is None:
            orders = np.ones(self.order, dtype=np.intp)
            inverses = np.zeros(self.order, dtype=np.intp)
            live = np.arange(1, self.order)
            power, k = live, 1
            while len(live):
                k += 1
                last, power = power, self.products(power, live)
                done = power == 0
                orders[live[done]] = k
                inverses[live[done]] = last[done]
                live, power = live[~done], power[~done]
            self._orders = orders.tolist()
            self._inverses = inverses.tolist()
        return self._orders

    def inverse_indices(self):
        """The inverses that `element_orders` keeps."""
        self.element_orders()
        return self._inverses

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self):
        """Partition of element indices into classes, canonically sorted.

        Classes are ordered by element order, then class size, then by the
        least member key.
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

    def conjugation_tables(self):
        """(conj, undo), two arrays with one row per generator g of G:
        conj[k][u] = g^-1 * u * g and undo[k][v] = g^-1 * v (cached).

        The products g * u for every u and g take `products` batches of at
        most max(BATCH, |G|) entries; undo inverts the permutation
        u -> g * u, so undo[k][0] is g^-1 and conj[k] is undo[k] read at
        u * g, from `gen_tables`.
        """
        if self._conj is None:
            n, k = self.order, len(self.gen_indices)
            u, g = np.tile(np.arange(n), k), np.repeat(self.gen_indices, n)
            step = max(BATCH, n)
            left = np.concatenate([self.products(g[s:s + step], u[s:s + step])
                                   for s in range(0, k * n, step)]).reshape(k, n)
            undo = np.empty_like(left)
            undo[np.arange(k)[:, None], left] = np.arange(n)
            self._conj = np.take_along_axis(undo, self.gen_tables, axis=1), undo
        return self._conj

    def right_mult_table(self, i: int):
        """List m with m[u] = index of u * elements[i], from one `products` batch."""
        return self.products(np.arange(self.order), np.full(self.order, i)).tolist()


def _base_product(elements, degree):
    """The base-image product of the permutations `elements` (n of them), as
    a function of two index arrays.

    A base is a list of points whose images determine an element (Sims; Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).
    The product a*b maps a base point p to a[b[p]], so its base images are
    a's images of b's base images, one gather per base point from the
    flattened n x degree element array (smallest unsigned dtype that holds
    the points).  A prefix of base images has as code its rank among the
    elements' prefixes, in lexicographic order; a base point's dense table
    maps code * degree + image to the code of the longer prefix (at most
    n * degree entries), and `by_code` maps the last codes to indices.
    Points are tried in order and join the base when their images split the
    prefixes into more codes, until the n elements have n codes.
    """
    n = len(elements)
    A = np.fromiter(chain.from_iterable(elements),
                    dtype=np.min_scalar_type(max(degree - 1, 0)),
                    count=n * degree).reshape(n, degree)
    degree = np.intp(degree)  # keeps int32 codes * degree in intp
    columns, tables = [], []
    code, count = np.zeros(n, dtype=np.intp), 1
    for column in A.T:
        if count == n:
            break
        key = code * degree + column
        present = np.zeros(count * degree, dtype=bool)
        present[key] = True
        if np.count_nonzero(present) == count:
            continue
        # not np.unique: it imports numpy.ma, 1.6 MB of resident memory
        found = np.flatnonzero(present)
        table = np.zeros(len(present), dtype=np.int32)
        table[found] = np.arange(len(found))
        code, count = table[key], len(found)
        columns.append(column.copy())
        tables.append(table)
    by_code = np.empty(n, dtype=np.intp)
    by_code[code] = np.arange(n)
    flat = A.ravel()

    def products(I, J):
        rows = I * degree
        code = np.zeros(len(I), dtype=np.intp)
        for column, table in zip(columns, tables):
            code = table[code * degree + flat[rows + column[J]]]
        return by_code[code]
    return products


def group_from_generators(gens, cap=DEFAULT_CAP, name=None) -> FinGroup:
    """Enumerate the group generated by permutations via BFS closure; its
    product, `_base_product` of the closed rows, is built when first called."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValueError("generators must share one degree")
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
    name = name or f"<{len(gens)} gens>"
    e = identity(degree)
    elements = [e]
    index = {e: 0}
    # u * s = (u[s[0]], u[s[1]], ...): one C-level gather per product.  A
    # group of degree 0 or 1 is trivial, and itemgetter needs two points.
    steps = [itemgetter(*s) for s in gens] if degree > 1 else []
    targets = [] if steps else [0] * len(gens)  # index of u * s, by u and then s
    record, setdefault, n = targets.append, index.setdefault, 1
    for u in elements:
        for step in steps:
            v = step(u)
            i = setdefault(v, n)
            record(i)
            if i == n:
                if n >= cap:
                    raise _cap_error(name, n + 1, cap, f"degree {degree}")
                elements.append(v)
                n += 1
    tables = np.array(targets, dtype=np.intp).reshape(n, len(gens)).T

    # many groups are built only to read their order; the product refers not
    # to the group, lest a cycle keep it alive until a full collection
    build = cache(partial(_base_product, elements, degree))
    return FinGroup(elements, [index[g] for g in gens], tables,
                    lambda I, J: build()(I, J), name, degree)


def _rule_row(rule, ncodes, code):
    """Left multiplication by `code` on range(ncodes), as a permutation tuple:
    the rows of a rule group, which `FinGroup.elements` builds on first read."""
    return tuple(rule(np.full(ncodes, code), np.arange(ncodes)).tolist())


def first_new(reach, found):
    """Positions in `reach` of the first occurrence of each value not yet
    `found` (a boolean mask over the values), in scan order: with `reach` the
    targets of a BFS level's elements, by element and then by map, the next
    level of the one-at-a-time BFS, in its order."""
    fresh = np.flatnonzero(~found[reach])
    new = reach[fresh]
    by_value = np.argsort(new, kind="stable")
    first = np.ones(len(new), dtype=bool)
    first[1:] = new[by_value[1:]] != new[by_value[:-1]]
    return fresh[np.sort(by_value[first])]


def group_from_rule(rule, gens, ncodes, cap=DEFAULT_CAP, name=None) -> FinGroup:
    """Enumerate the group generated by codes under a product rule, by BFS closure.

    Codes lie in range(ncodes) and 0 is the identity; rule(a, b) is the
    code of the product, for two int64 arrays of one shape.  The group's
    keys are the codes, its product is one rule call on the codes plus one
    gather from `by_code`, the element index of each code, and its rows are
    its left multiplications on range(ncodes) (the regular action when
    every code is an element).  The closure runs one level at a time: the
    products u * s of the last level's elements u with the generators s,
    read in the order of u and then of s, add the first occurrence of each
    code not yet found.  That is the order of the one-at-a-time BFS of
    `group_from_generators`.
    """
    gens = np.asarray(gens, dtype=np.int64)
    if gens.ndim != 1 or not len(gens):
        raise ValueError("need at least one generator")
    if ((gens < 0) | (gens >= ncodes)).any():
        raise ValueError(f"generator codes must lie in 0..{ncodes - 1}")
    name = name or f"<{len(gens)} gens>"
    found = np.zeros(ncodes, dtype=bool)
    found[0] = True
    levels = [np.zeros(1, dtype=np.int64)]
    reaches = []
    order = 1
    while len(levels[-1]):
        last = levels[-1]
        reach = rule(np.repeat(last, len(gens)), np.tile(gens, len(last)))
        reaches.append(reach)
        level = reach[first_new(reach, found)]
        order += len(level)
        if order > cap:
            raise _cap_error(name, order, cap, f"ncodes {ncodes}")
        found[level] = True
        levels.append(level)
    codes = np.concatenate(levels)
    by_code = np.full(ncodes, -1, dtype=np.intp)
    by_code[codes] = np.arange(len(codes))
    tables = by_code[np.concatenate(reaches)].reshape(order, len(gens)).T

    def products(I, J):
        return by_code[rule(codes[I], codes[J])]
    return FinGroup(codes.tolist(), by_code[gens].tolist(), tables, products, name,
                    ncodes, row=partial(_rule_row, rule, ncodes))


def conjugacy_classes(G: FinGroup):
    """Classes as orbits under conjugation by the generators, canonically sorted.

    The orbits are labelled by `orbit_minima` on the `conjugation_tables`.
    Keys order the classes: a permutation, or a code.  Row i of a rule
    group's regular action starts with codes[i], the image of the identity's
    code 0, and codes differ, so codes order the elements as their rows do.
    """
    label = orbit_minima(G.conjugation_tables()[0])
    members = np.argsort(label, kind="stable").tolist()
    sizes = np.bincount(label)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    classes = [members[start:end] for start, end in zip([0] + ends, ends)]
    orders = G.element_orders()
    key = G.keys.__getitem__
    classes.sort(key=lambda cls: (orders[cls[0]], len(cls), min(map(key, cls))))
    return classes


def orbit_minima(tables):
    """The least point in each point's orbit under the permutations `tables`.

    Pulling the label of each image, label = min(label, label[table]), is
    exact for permutations: at a fixed point the label is constant along
    every cycle, and it only ever takes values from the orbit.
    """
    label = np.arange(tables.shape[1], dtype=np.int32)
    while True:
        before = label
        for table in tables:
            label = np.minimum(label, label[table])
        if (label == before).all():
            return label


def _closure(G: FinGroup, targets):
    """Sorted indices of the elements reached from the identity by the maps
    in the rows of `targets` (index arrays over G).

    A level-synchronous BFS: each level is one gather of the targets at the
    last level's elements plus a `seen` mask.
    """
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    level = np.zeros(1, dtype=np.intp)
    while len(level):
        grown = seen.copy()
        grown[targets[:, level]] = True
        level = np.flatnonzero(grown & ~seen)
        seen = grown
    return np.flatnonzero(seen).tolist()


def subgroup_closure(G: FinGroup, gen_indices):
    """Sorted indices of the subgroup generated by the given elements: the
    `_closure` of their right-multiplication tables (one `products` batch)."""
    return _closure(G, G.product_table(np.arange(G.order), list(gen_indices)).T)


def generates(G: FinGroup, gen_indices) -> bool:
    """Do the given elements generate G?  No library path calls it; kept
    because `perfbench/spans.py` binds it."""
    return len(subgroup_closure(G, gen_indices)) == G.order


def normal_closure(G: FinGroup, seeds):
    """Sorted indices of the normal closure of the seed elements in G.

    The `_closure` from the identity under right multiplication by every
    seed and conjugation by every generator of G.  The orbit is closed under
    both maps, hence under right multiplication by every conjugate of a
    seed, so it is the normal closure itself.  Its tables are the seeds'
    right multiplications (one `products` batch) and G's conjugation tables.
    """
    seeds = list(seeds)
    if not seeds:
        return [0]
    right = G.product_table(np.arange(G.order), seeds).T
    return _closure(G, np.vstack([right, G.conjugation_tables()[0]]))


def commutator_subgroup(G: FinGroup):
    """Derived subgroup, as sorted indices: the normal closure of the
    commutators [a, b] = a^-1 * (b^-1 * (a * b)) of generators a before b
    ([b, a] = [a, b]^-1).

    `gen_tables` gives a * b and b * a for every pair.  When all pairs
    commute the derived subgroup is trivial and no `products` call is made;
    otherwise b^-1 and a^-1 are applied by the `undo` rows of the
    conjugation tables.
    """
    k = len(G.gen_indices)
    first = np.array([i for i in range(k) for _ in range(i + 1, k)], dtype=np.intp)
    second = np.array([j for i in range(k) for j in range(i + 1, k)], dtype=np.intp)
    gens = np.array(G.gen_indices)
    right = G.gen_tables
    ab, ba = right[second, gens[first]], right[first, gens[second]]
    live = ab != ba
    if not live.any():
        return [0]
    undo = G.conjugation_tables()[1]
    seeds = undo[first[live], undo[second[live], ab[live]]]
    return normal_closure(G, sorted(set(seeds.tolist())))


def cayley_labels(tables, queue=None):
    """Canonical labels of a Cayley graph, yielded lazily.

    `tables` are the right-multiplication tables of the generators, as
    lists: tables[s][u] is the index of u * s.  BFS from the identity (index
    0), trying the generators in the given order, numbers the elements in
    discovery order; for each element u in that order and each generator s
    it yields the number of u*s.  The sequence describes the right-regular
    action of <gens> up to relabelling, so two generator tuples give equal
    sequences exactly when gens1 -> gens2 extends to an isomorphism
    <gens1> -> <gens2>; that isomorphism maps the k-th element discovered
    to the k-th.  A list `queue` = [0] receives the discovery order.
    """
    number = [-1] * len(tables[0])
    number[0] = 0
    queue = [0] if queue is None else queue
    for u in queue:
        for table in tables:
            v = table[u]
            label = number[v]
            if label < 0:
                label = number[v] = len(queue)
                queue.append(v)
            yield label


def kernel_key(G: FinGroup, gens):
    """The full `cayley_labels` tuple, or None when gens do not generate G.

    Equal keys mean exactly that gens1 -> gens2 extends to an isomorphism,
    i.e. that the two epimorphisms from the free group have equal kernels.
    The tables come from one `product_table` batch.  Public API: the CLI
    keys pairs inside `classify_pairs` instead.
    """
    tables = G.product_table(np.arange(G.order), list(gens)).T.tolist()
    key = tuple(cayley_labels(tables))
    return key if len(key) == len(gens) * G.order else None


def classify_pairs(G: FinGroup, x_ok, ys, batch, w_ok):
    """Automorphism classes of generating pairs (x, y) filtered by element orders.

    x runs over the conjugacy-class representatives with x_ok[x], y over the
    index array ys.  batch(xs) is the (len(xs), len(ys)) array of the
    products w of the representatives xs with every y, and the pairs with
    w_ok[w] are the candidates of x.  x_ok and w_ok are boolean arrays over
    the elements; they and the set ys must be class functions, and w a word
    in x and y (xy, or [x, y]), so the candidates of x are a union of
    C_G(x)-orbits under conjugation (a ValueError says when they are not).
    Conjugation by C_G(x) fixes x, so only the first candidate of each orbit
    is keyed, as by `kernel_key(G, (x, y))`, which is None for
    non-generating pairs and equal exactly for pairs related by an
    automorphism, and it adds len(cls) * |orbit| to its key's weight.
    Returns {key: [(x, y, w), weight]}, each class with its first candidate
    in scan order, which is the first of that candidate's orbit.

    A representative's first candidate y0 starts its first orbit and is keyed
    first.  If its key's class was first found at an earlier representative
    x0, by the pair R, the map psi of the two `cayley_labels` BFS orders
    (psi(R) = (x, y0)) is an automorphism; if it keeps x_ok, ys and w_ok, it
    maps x0's candidates onto x's, keys and class sizes kept (w is a word),
    and x adds the weights x0 added without computing its orbits.

    No `products` batch holds more than max(BATCH, |G|) entries: per chunk
    of BATCH // |G| representatives, one `batch` call and three batches for
    their and their y0's tables and their centralizers (u*x == x*u); the
    other orbits' first candidates take their tables in chunks of as many rows.
    """
    n = G.order
    rows = np.arange(n)
    inverses = np.array(G.inverse_indices())
    masks = [np.asarray(x_ok), np.bincount(ys, minlength=n) > 0, np.asarray(w_ok)]
    reps = [(cls[0], len(cls)) for cls in G.conjugacy_classes() if x_ok[cls[0]]]
    per_chunk = max(1, BATCH // n)
    found = {}   # kernel key -> [(x, y, w), weight]
    origin = {}  # kernel key -> x and BFS order of its class's first pair
    added = {}   # representative -> [(its class's entry in found, weight)] per orbit

    def keyed(right_x, right_y):
        key = tuple(cayley_labels([right_x, right_y], queue := [0]))
        return (key, queue) if len(key) == 2 * n else (None, None)

    for start in range(0, len(reps), per_chunk):
        chunk = reps[start:start + per_chunk]
        xs = np.array([x for x, _ in chunk], dtype=np.intp)
        ws = batch(xs)
        keep = w_ok[ws]
        live = keep.any(axis=1)
        if not live.any():
            continue
        right, left = G.product_table(rows, xs).T, G.product_table(xs, rows)
        heads = iter(G.product_table(rows, ys[keep[live].argmax(axis=1)]).T.tolist())
        for i, (x, size) in enumerate(chunk):
            if not live[i]:
                continue
            cand, cand_w = ys[keep[i]], ws[i][keep[i]]
            right_x = right[i].tolist()
            head = key, queue = keyed(right_x, next(heads))
            if key in origin:
                x0, queue0 = origin[key]
                psi = np.empty(n, dtype=np.intp)
                psi[queue0] = queue
                if all((mask[psi] == mask).all() for mask in masks):
                    for entry, weight in added[x0]:
                        entry[1] += weight
                    continue
            cent = np.flatnonzero(right[i] == left[i])
            firsts = _orbit_firsts(G, x, cand, cent, inverses[cent])
            rest = [j for j, _ in firsts[1:]]
            tables = chain.from_iterable(
                G.product_table(rows, cand[rest[at:at + per_chunk]]).T.tolist()
                for at in range(0, len(rest), per_chunk))
            gains = added[x] = []
            for (j, stab), (key, queue) in zip(
                    firsts, chain([head], (keyed(right_x, t) for t in tables))):
                if key is None:
                    continue
                entry = found.get(key)
                if entry is None:
                    entry = found[key] = [(x, int(cand[j]), int(cand_w[j])), 0]
                    origin[key] = x, queue
                weight = size * (len(cent) // stab)
                entry[1] += weight
                gains.append((entry, weight))
    return found


def _orbit_firsts(G: FinGroup, x, cand, cent, cent_inv):
    """(position, |stabilizer|) of the first candidate of each C_G(x)-orbit.

    A block of the next BATCH // |C_G(x)| unseen candidates is conjugated by
    all of C_G(x) in one pair of batches.  An unseen candidate's orbit is
    unseen, so the least position in its row is the first of its orbit, and
    the count of its own position there is its stabilizer's order.  Orbits
    hold up to |C_G(x)| candidates (whole classes for a central x), so when
    |C_G(x)|^2 > BATCH a block is one candidate, lest it repeat orbits."""
    k, c = len(cand), len(cent)
    pos = np.full(G.order, k)  # position in cand, k for no candidate
    pos[cand] = np.arange(k)
    seen = np.zeros(k, dtype=bool)
    per_block = BATCH // c if c * c <= BATCH else 1
    out = []
    while not seen.all():
        block = np.flatnonzero(~seen)[:per_block]
        right = G.product_table(cand[block], cent).ravel()
        left = np.repeat(cent_inv[None], len(block), axis=0).ravel()
        orbits = pos[G.products(left, right)].reshape(-1, c)
        if (orbits == k).any():
            raise ValueError(f"the candidates of x = {x} in {G.name} are "
                             "not a union of C_G(x)-orbits")
        seen[orbits] = True
        first = orbits.min(axis=1) == block
        stab = np.count_nonzero(orbits == block[:, None], axis=1)
        out += zip(block[first].tolist(), stab[first].tolist())
    return out


def pair_isomorphic(G: FinGroup, pair1, pair2, H: FinGroup | None = None) -> bool:
    """Does x1 -> x2, y1 -> y2 extend to an isomorphism G -> H (H defaults to G)?

    Key equality of the two canonical Cayley keys.  Both pairs must
    generate (checked).  Public API; no CLI path calls it.
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
