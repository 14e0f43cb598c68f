import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.fields import (Fq, factorize, find_irreducible, is_irreducible,
                            is_prime, prime_power)

from oracles import ScalarFq


def test_is_prime_small():
    primes = [n for n in range(2, 50) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert not is_prime(1)
    assert not is_prime(0)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(9828) == {2: 2, 3: 3, 7: 1, 13: 1}


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(13) == (13, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_find_irreducible_is_monic_irreducible():
    for p, f in [(2, 3), (3, 3), (2, 1), (7, 2)]:
        m = find_irreducible(p, f)
        assert len(m) == f + 1 and m[-1] == 1
        assert is_irreducible(m, p)


def test_reducible_detected():
    # x^2 + 1 = (x+1)^2 over F2
    assert not is_irreducible((1, 0, 1), 2)
    # x^3 - x has roots over any prime field
    assert not is_irreducible((0, -1 % 5, 0, 1), 5)
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over F2 has no root
    assert not is_irreducible((1, 0, 1, 0, 1), 2)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 3), (3, 3), (13, 1),
                                 (2, 4), (2, 5), (3, 4)])
def test_field_axioms_exhaustive(p, f):
    F = ScalarFq(p, f)
    q = F.q
    assert q == p ** f
    els = list(F.elements())
    assert len(els) == q
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        assert F.mul(a, 1) == a
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    # distributivity on a small slice
    for a in els[:4]:
        for b in els:
            for c in els[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_generator_has_full_order():
    for p, f in [(2, 3), (3, 3), (7, 1), (13, 1)]:
        F = Fq(p, f)
        g = F.generator()
        assert F.element_order(g) == F.q - 1


def test_square_count():
    # odd q: (q+1)/2 squares including 0; even q: everything is a square
    F = ScalarFq(13, 1)
    assert sum(F.is_square(a) for a in F.elements()) == 7
    F = ScalarFq(2, 3)
    assert all(F.is_square(a) for a in F.elements())


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
@settings(max_examples=60, deadline=None)
def test_f27_associativity(a, b, c):
    F = ScalarFq(3, 3)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


def test_fq_rejects_bad_input():
    with pytest.raises(ValueError):
        Fq(4, 1)
    with pytest.raises(ValueError):
        Fq(2, 0)


@pytest.mark.parametrize("q", [q for q in range(2, 50) if prime_power(q)])
def test_tables_match_scalar_arithmetic(q):
    F = ScalarFq(*prime_power(q))
    add, mul, inv = F.tables()
    assert add.shape == mul.shape == (q, q) and inv.shape == (q,)
    assert add.tolist() == [[F.add(a, b) for b in range(q)] for a in range(q)]
    assert mul.tolist() == [[F.mul(a, b) for b in range(q)] for a in range(q)]
    assert inv.tolist() == [0] + [F.inv(a) for a in range(1, q)]
    assert F.tables() is F.tables()
