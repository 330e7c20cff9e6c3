"""Field arithmetic: construction examples plus exhaustive small-q laws."""

import pytest

from paforge.field import Field, is_prime

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2),
                (61, 1), (2, 6)]


def test_make_prime_field():
    F = Field(19)
    assert (F.p, F.k, F.q) == (19, 1, 19)
    assert F.modulus is None


def test_make_gf4_modulus():
    F = Field(2, 2)
    assert F.q == 4
    assert F.modulus == (1, 1, 1)  # the unique irreducible quadratic


def test_make_rejects_composite():
    with pytest.raises(ValueError):
        Field(4)


def test_make_rejects_oversize():
    with pytest.raises(ValueError):
        Field(2, 21)
    # Every field has exp/log tables, so the cap is their limit, 2^16.
    for p, k in ((2, 17), (65537, 1)):
        with pytest.raises(ValueError, match="exceeds cap 65536"):
            Field(p, k)


def test_modulus_is_deterministic():
    assert Field(2, 3).modulus == Field(2, 3).modulus == (1, 0, 1, 1)
    assert Field(3, 2).modulus == (1, 0, 1)  # x^2 + 1 over F_3


def test_mul_examples():
    F7 = Field(7)
    assert F7.mul(3, 5) == 1
    F4 = Field(2, 2)
    assert F4.mul(2, 3) == 1  # x * (x+1) = 1 mod x^2+x+1
    for q in (F7, F4):
        for a in q.elements():
            assert q.mul(0, a) == 0


def test_inv_examples():
    assert Field(19).inv(2) == 10
    assert Field(2, 2).inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_field_laws_exhaustive(p, k):
    F = Field(p, k)
    q = F.q
    for a in F.elements():
        if a != 0:
            assert sorted(F.mul(a, b) for b in F.elements()) == list(range(q))
            assert F.inv(F.inv(a)) == a
            assert F.pow(a, q - 1) == 1
            assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0
        assert F.coeffs_to_elem(F.elem_to_coeffs(a)) == a


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1)])
def test_ring_axioms_exhaustive(p, k):
    F = Field(p, k)
    for a in F.elements():
        for b in F.elements():
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, b) == F.add(b, a)
            for c in F.elements():
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_primitive_element_generates():
    for p, k in [(5, 1), (2, 3), (3, 2), (19, 1)]:
        F = Field(p, k)
        seen = set()
        x = 1
        for _ in range(F.q - 1):
            seen.add(x)
            x = F.mul(x, F.primitive)
        assert len(seen) == F.q - 1


def test_is_prime():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_dense_tables_match_scalar_ops():
    F = Field(3, 2)
    t = F.tables()
    for a in F.elements():
        for b in F.elements():
            assert t["add"][a, b] == F.add(a, b)
            assert t["mul"][a, b] == F.mul(a, b)
