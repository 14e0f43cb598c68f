import numpy as np
import pytest

from hurwitz import catalog, dessins, homology
from hurwitz.fields import from_digits, to_digits
from hurwitz.group import FinGroup, pair_isomorphic
from hurwitz.homology import (ScanInfeasibleError, extension_quotient,
                              invariant_submodules, kernel_mod_ell_homology,
                              klein_extension_groups, rref_mod, schreier_data)
from test_pair_iso import _evaluate, _word_map


def _klein_schreier():
    G = catalog.psl2(7)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    return G, schreier_data((2, 3, 7), G, t.x, t.y)


@pytest.fixture(scope="module")
def klein():
    G, sd = _klein_schreier()
    return G, sd, kernel_mod_ell_homology(sd, 2)


def test_rref_mod():
    A = np.array([[2, 4, 6], [1, 2, 3], [0, 1, 1]], dtype=np.int64)
    R, pivots = rref_mod(A, 5)
    assert list(pivots) == [0, 1]
    assert R.shape[0] == 2


def test_schreier_generator_count(klein):
    G, sd, _ = klein
    assert sd.num_schreier == G.order + 1  # |G|*2 - (|G|-1) non-tree edges


def test_schreier_rejects_non_generating_images():
    G = catalog.psl2(7)
    with pytest.raises(ValueError):
        schreier_data((2, 3, 7), G, 0, 0)


def test_klein_dim_six(klein):
    _, _, mod = klein
    assert mod.dim == 6  # 2 * genus 3
    assert mod.ell == 2


def test_klein_dim_six_mod_three():
    G, sd = _klein_schreier()
    assert kernel_mod_ell_homology(sd, 3).dim == 6


def test_psl28_dim_fourteen():
    G = catalog.psl2(8)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    sd = schreier_data((2, 3, 7), G, t.x, t.y)
    assert kernel_mod_ell_homology(sd, 2).dim == 14  # 2 * genus 7
    assert kernel_mod_ell_homology(sd, 3).dim == 14


def test_rejects_composite_ell():
    _, sd = _klein_schreier()
    with pytest.raises(ValueError):
        kernel_mod_ell_homology(sd, 6)


def test_no_fixed_vector(klein):
    _, _, mod = klein
    assert mod.fixed_subspace_dim() == 0


def test_action_matrices_invertible(klein):
    G, _, mod = klein
    for g in (1, 17, 100):
        A = mod.action_of(g)
        R, pivots = rref_mod(A.T.copy(), 2)
        assert len(pivots) == mod.dim


def test_invariant_submodule_counts(klein):
    _, _, mod = klein
    assert len(invariant_submodules(mod, 3)) == 2
    assert len(invariant_submodules(mod, 1)) == 0
    assert len(invariant_submodules(mod, 5)) == 0
    assert len(invariant_submodules(mod, 0)) == 1
    assert len(invariant_submodules(mod, 6)) == 1


def _gaussian_binomial(n, d, ell):
    num = den = 1
    for i in range(d):
        num *= ell ** (n - i) - 1
        den *= ell ** (d - i) - 1
    return num // den


@pytest.mark.parametrize("ell,dims", [(2, range(7)), (3, (1, 2))])
def test_invariant_submodules_match_rank_oracle(klein, ell, dims):
    """A subspace with basis B is invariant iff [B; B Ax^T; B Ay^T] has rank d."""
    _, sd, mod2 = klein
    mod = mod2 if ell == 2 else kernel_mod_ell_homology(sd, ell)
    for d in dims:
        candidates = list(homology._rref_subspaces(mod.dim, d, ell))
        assert len(candidates) == _gaussian_binomial(mod.dim, d, ell)
        oracle = []
        for B, pivots in candidates:
            R, rref_pivots = rref_mod(B, ell)
            assert (R == B).all() and rref_pivots == pivots
            stacked = np.vstack([B] + [B @ A.T for A in mod.action])
            if len(rref_mod(stacked, ell)[1]) == d:
                oracle.append(B.tolist())
        assert [B.tolist() for B in invariant_submodules(mod, d)] == oracle


def test_invariant_submodules_infeasible_scan():
    G = catalog.psl2(8)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    sd = schreier_data((2, 3, 7), G, t.x, t.y)
    mod = kernel_mod_ell_homology(sd, 2)
    with pytest.raises(ScanInfeasibleError):
        invariant_submodules(mod, 7)


def test_extension_by_full_module_is_base(klein):
    G, _, mod = klein
    full = invariant_submodules(mod, 6)[0]
    E = extension_quotient(mod, full)
    assert E.group.order == G.order
    assert E.module_dim == 0


def test_extension_by_full_module_splits(klein):
    """E = G splits: the section x -> ax, y -> ay is an isomorphism onto <ax, ay>."""
    G, sd, mod = klein
    E = extension_quotient(mod, np.eye(mod.dim, dtype=np.int64))
    assert E.split is True
    gx, gy = sd.gen_images
    lifts = [[i for i in range(E.group.order) if E.project(i) == g] for g in (gx, gy)]
    assert [len(ls) for ls in lifts] == [1, 1]
    ax, ay = lifts[0][0], lifts[1][0]
    # brute-force oracle of test_pair_iso.py, across the two groups
    words = _word_map(G, (gx, gy))
    section = [None] * G.order
    for i, w in words.items():
        section[i] = _evaluate(E.group, w, (ax, ay))
    assert sorted(section) == list(range(E.group.order))
    assert all(section[G.mul(a, b)] == E.group.mul(section[a], section[b])
               for a in range(G.order) for b in range(G.order))
    assert all(E.project(section[i]) == i for i in range(G.order))


def test_extension_orders_and_projection(klein):
    G, _, mod = klein
    for U in invariant_submodules(mod, 3):
        E = extension_quotient(mod, U)
        assert E.group.order == 1344  # 168 * 2^3
        assert E.ell == 2 and E.module_dim == 3
        # projection is a homomorphism onto G
        for i, j in [(1, 2), (100, 700), (1343, 5)]:
            k = E.group.mul(i, j)
            assert E.project(k) == G.mul(E.project(i), E.project(j))
        # kernel of the projection is elementary abelian of order 8
        ker = [i for i in range(E.group.order) if E.project(i) == 0]
        assert len(ker) == 8
        assert all(E.group.element_order(i) in (1, 2) for i in ker)


def _scalar_left_generators(mod, U):
    """Oracle for the extension's generators: left multiplication by the lifts
    of x and y, one point (v, g) = from_digits(v) * |G| + g at a time."""
    sd, ell = mod.schreier, mod.ell
    G = sd.group
    RU, pivotsU = rref_mod(U, ell) if len(U) else (None, [])
    freeU = [c for c in range(mod.dim) if c not in pivotsU]
    qdim = len(freeU)

    def to_quotient(coords):
        v = [int(a) % ell for a in coords]
        for i, c in enumerate(pivotsU):
            v = [(a - v[c] * int(r)) % ell for a, r in zip(v, RU[i])]
        return [v[c] for c in freeU]

    def word_value(word):
        vec, end = sd.rewrite(word)
        assert end == 0
        return to_quotient(mod.project(vec))

    def inverse(word):
        return [(g, -s) for g, s in reversed(word)]

    def left_gen_perm(letter, s):
        w = word_value([(letter, 1)] + inverse(sd.tree_word[s]))
        A = mod.action_of(s)
        rho_cols = [to_quotient(A[:, c]) for c in freeU]
        c_row = [word_value(sd.tree_word[s] + sd.tree_word[g]
                            + inverse(sd.tree_word[G.mul(s, g)]))
                 for g in range(G.order)]
        images = []
        for point in range(ell ** qdim * G.order):
            vc, g = divmod(point, G.order)
            v = to_digits(vc, ell, qdim)
            sv = [sum(v[j] * rho_cols[j][i] for j in range(qdim)) % ell
                  for i in range(qdim)]
            v2 = [(w[i] + sv[i] + c_row[g][i]) % ell for i in range(qdim)]
            images.append(from_digits(v2, ell) * G.order + G.mul(s, g))
        return tuple(images)

    gx, gy = sd.gen_images
    return [left_gen_perm(0, gx), left_gen_perm(1, gy)]


def _c3_mod_three():
    """The torus kernel of (3,3,3) -> C3 at ell = 3: a 2-dim module, so the
    zero submodule gives a quotient of dimension 2 (|E| = 27)."""
    G = catalog.cyclic(3)
    g = G.index[G.generators[0]]
    return kernel_mod_ell_homology(schreier_data((3, 3, 3), G, g, g), 3)


def test_extension_generators_match_scalar_oracle(klein):
    _, _, mod = klein
    cases = [(mod, U) for U in invariant_submodules(mod, 3)]
    cases.append((mod, np.eye(mod.dim, dtype=np.int64)))
    c3 = _c3_mod_three()
    cases.append((c3, np.zeros((0, c3.dim), dtype=np.int64)))
    for m, U in cases:
        E = extension_quotient(m, U)
        assert E.group.generators == _scalar_left_generators(m, U)
    assert [E.module_dim, E.group.order, E.ell] == [2, 27, 3]


def test_splitting_test_builds_no_right_mult_table(klein, monkeypatch):
    _, _, mod = klein
    subs = invariant_submodules(mod, 3)

    def refuse(self, i):
        raise AssertionError("right_mult_table built")

    monkeypatch.setattr(FinGroup, "right_mult_table", refuse)
    assert [extension_quotient(mod, U).split for U in subs] == [False, False]
    assert extension_quotient(mod, np.eye(mod.dim, dtype=np.int64)).split is True


def test_extension_groups_build_no_element_array():
    # the splitting test stays on the scalar product, so the order-1344
    # groups never hold a 1344 x 1344 element array after their build
    for ext in klein_extension_groups():
        assert ext.group._array is None


def test_genus17_pipeline_distinct_kernels():
    exts = klein_extension_groups()
    assert len(exts) == 2
    all_classes = []
    for ext in exts:
        assert ext.group.order == 1344
        assert ext.split is False  # computed, not assumed
        classes = dessins.enumerate_triples(ext.group, (2, 3, 7))
        assert classes and all(c.genus == 17 for c in classes)
        all_classes.extend((ext.group, c.representative) for c in classes)
    # distinct kernels: exactly two isomorphism classes across both groups
    kept = []
    for G, rep in all_classes:
        if not any(pair_isomorphic(H, (r.x, r.y), (rep.x, rep.y), H=G)
                   for H, r in kept):
            kept.append((G, rep))
    assert len(kept) == 2
