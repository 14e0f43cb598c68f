"""Scalar oracles for the library's batch paths, on the tests' own arithmetic.

Products come from `conftest.tuple_mul`, inverses and orders from `pinv` and
`porder` on the permutation rows, and subgroups from a queue BFS, so no
oracle here runs on `FinGroup.products`, the fast path it checks.
`fixed_point_class_sum` and `permutation_character` are not oracles but
test helpers over the library's per-class counts.
"""

from math import lcm

import numpy as np

from hurwitz.charfix import ClassFunction, _coset_fixed_counts, _fixed_by_class
from hurwitz.fields import Fq

from conftest import tuple_mul


def pinv(a):
    """Inverse permutation."""
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def porder(a):
    """Order of a permutation via its cycle lengths."""
    seen = [False] * len(a)
    o = 1
    for i in range(len(a)):
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


def _scalar_inverse(G, i):
    return G.index[pinv(G.elements[i])]


def conj(G, i, g):
    """g^-1 * i * g."""
    mul = tuple_mul(G)
    return mul(mul(_scalar_inverse(G, g), i), g)


def centralizer_size(G, i):
    """|C_G(i)| by direct scan; equals |G| / class size (orbit-stabilizer)."""
    mul = tuple_mul(G)
    return sum(mul(g, i) == mul(i, g) for g in range(G.order))


def _scalar_subgroup_closure(G, gen_indices, stop_above=None):
    """Oracle for subgroup_closure: a queue BFS from the identity with one
    scalar product per edge.  With stop_above set, it returns None as soon
    as the partial closure exceeds it."""
    mul = tuple_mul(G)
    seen = [False] * G.order
    seen[0] = True
    elems = [0]
    for u in elems:
        for s in gen_indices:
            v = mul(u, s)
            if not seen[v]:
                seen[v] = True
                elems.append(v)
                if stop_above is not None and len(elems) > stop_above:
                    return None
    return elems


def _scalar_generates(G, gen_indices):
    """Oracle for generates: a subgroup of order > |G|/2 is G itself, so the
    scalar BFS stops early either way."""
    closure = _scalar_subgroup_closure(G, gen_indices, stop_above=G.order // 2)
    return closure is None or len(closure) == G.order


def count_triples_brute(G, type_, mode="exact"):
    """Total count of generating triples of the type, over all x and all y."""
    orders = [porder(e) for e in G.elements]
    x_ok, y_ok, z_ok = ([o == m if mode == "exact" else m % o == 0 for o in orders]
                        for m in type_)
    mul = tuple_mul(G)
    return sum(1 for x in range(G.order) if x_ok[x]
               for y in range(G.order)
               if y_ok[y] and z_ok[mul(x, y)] and _scalar_generates(G, (x, y)))


def fixed_points(G, t, h):
    """Fixed points of h on the cover, by direct scan of the three coset
    spaces: a coset <s>g is fixed by right multiplication with h iff g h g^-1
    lies in <s>.  The oracle of `charfix.h1_character`."""
    if h == 0:
        raise ValueError("h must be nontrivial; use ramification_point_count")
    mul = tuple_mul(G)
    total = 0
    for s in (t.x, t.y, t.z):
        sub, seen = set(_scalar_subgroup_closure(G, [s])), set()
        for g in range(G.order):
            if g not in seen:  # the first element of its coset <s>g
                seen.update(mul(k, g) for k in sub)
                total += mul(mul(g, h), _scalar_inverse(G, g)) in sub
    return total


def stabilizer_count_formula(G, t):
    """Independent prediction: sum_i (|G|/m_i)(m_i - 1) over the branch orders."""
    return sum((G.order // m) * (m - 1)
               for m in (porder(G.elements[s]) for s in (t.x, t.y, t.z)))


def fixed_point_class_sum(G, t):
    """Sum of Fix(h) over nontrivial h, from `charfix._fixed_by_class`."""
    return sum(len(cls) * fix
               for cls, fix in zip(G.conjugacy_classes(), _fixed_by_class(G, t))
               if fix is not None)


def permutation_character(G, t, which):
    """Character of the coset action for one of the triple entries x, y, z."""
    s = {"x": t.x, "y": t.y, "z": t.z}[which]
    return ClassFunction(G, tuple(_coset_fixed_counts(G, s)))


def inverse_word(word):
    return [(g, -s) for g, s in reversed(word)]


def rewrite(sd, word, start=0, vec=None):
    """The Schreier-generator image of a word traced from a coset, one letter
    at a time: the oracle of `SchreierData.rewrite_words`."""
    if vec is None:
        vec = np.zeros(sd.num_schreier, dtype=np.int64)
    u = start
    for g, s in word:
        m = 2 * g + (s < 0)
        col = int(sd.edge_column[m, u])
        if col < sd.num_schreier:
            vec[col] += s
        u = int(sd.next_coset[m, u])
    return vec, u


def schreier_word(sd, tree, col):
    """The Schreier generator of column col as a word in x, y, from the tree
    words `tree` (tree[u] spells sigma(u))."""
    u, g = divmod(int(sd.edges[col]), 2)
    v = int(sd.next_coset[2 * g, u])
    return tree[u] + [(g, 1)] + inverse_word(tree[v])


class ScalarFq(Fq):
    """`Fq` with scalar sums on coefficient digits, and inverses and squares
    by search over `Fq.mul`: the oracle of `Fq.tables()`."""

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        return self.from_coeffs([(x + y) % self.p
                                 for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a):
        return self.from_coeffs([-c % self.p for c in self.coeffs(a)])

    def inv(self, a):
        return next(b for b in self.elements() if self.mul(a, b) == 1)

    def is_square(self, a):
        return any(self.mul(b, b) == a for b in self.elements())
