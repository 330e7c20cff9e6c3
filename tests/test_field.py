"""Field arithmetic: construction examples plus exhaustive small-q laws."""

import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import paforge.field as field_module
from paforge.field import (
    Field,
    field_for_order,
    is_prime,
    poly_divmod,
    prime_power,
)
from reference import poly_mul

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
        for a in range(q.q):
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
    for a in range(F.q):
        if a != 0:
            assert sorted(F.mul(a, b) for b in range(F.q)) == list(range(q))
            assert F.inv(F.inv(a)) == a
            power = 1
            for _ in range(q - 1):
                power = F.mul(power, a)
            assert power == 1  # Fermat: a^(q-1) = 1
            assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1)])
def test_ring_axioms_exhaustive(p, k):
    F = Field(p, k)
    for a in range(F.q):
        for b in range(F.q):
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, b) == F.add(b, a)
            for c in range(F.q):
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
    for q in (2, 7, 9, 16, 25, 27, 32, 81):
        F = field_for_order(q)
        t = F.tables()
        assert t["add"].dtype == t["mul"].dtype == np.int16
        for a in range(F.q):
            assert t["add"][a].tolist() == [F.add(a, b) for b in range(F.q)], (q, a)
            assert t["mul"][a].tolist() == [F.mul(a, b) for b in range(F.q)], (q, a)


# Modulus and primitive element of every extension field the fraction search
# takes (k >= 2, q <= 1024), and one sha256 over their exp tables, as 2-byte
# little-endian powers of the primitive element in order of q.  Encodings are
# part of every emitted array, so none of these may move.
EXTENSION_ENCODINGS = {
    4: ((1, 1, 1), 2),
    8: ((1, 0, 1, 1), 2),
    9: ((1, 0, 1), 4),
    16: ((1, 0, 0, 1, 1), 2),
    25: ((1, 1, 1), 7),
    27: ((1, 0, 2, 1), 3),
    32: ((1, 0, 0, 1, 0, 1), 2),
    49: ((1, 0, 1), 9),
    64: ((1, 0, 0, 0, 0, 1, 1), 2),
    81: ((1, 0, 1, 1, 1), 10),
    121: ((1, 0, 1), 15),
    125: ((1, 0, 1, 1), 7),
    128: ((1, 0, 0, 0, 0, 0, 1, 1), 2),
    169: ((1, 3, 1), 18),
    243: ((1, 0, 0, 0, 2, 1), 3),
    256: ((1, 0, 0, 0, 1, 1, 0, 1, 1), 6),
    289: ((1, 1, 1), 20),
    343: ((1, 0, 1, 1), 9),
    361: ((1, 0, 1), 22),
    512: ((1, 0, 0, 0, 0, 0, 0, 0, 1, 1), 7),
    529: ((1, 0, 1), 25),
    625: ((1, 0, 1, 1, 1), 30),
    729: ((1, 0, 0, 0, 1, 1, 1), 4),
    841: ((1, 1, 1), 35),
    961: ((1, 0, 1), 35),
    1024: ((1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 2),
}
EXP_TABLES_SHA256 = "e1fb3d437fc9f31907eaa5656fa85b4278af74db95bc59d1d4bab4ddca1cfefa"


def test_extension_field_encodings_are_pinned():
    orders = [q for q in range(4, 1025) if _extension_order(q)]
    assert orders == sorted(EXTENSION_ENCODINGS)
    digest = hashlib.sha256()
    for q in orders:
        F = Field(*prime_power(q))
        assert (F.modulus, F.primitive) == EXTENSION_ENCODINGS[q], q
        exp = F._exp[: q - 1]
        assert sorted(exp) == list(range(1, q))
        assert all(F._log[v] == i for i, v in enumerate(exp))
        digest.update(np.array(exp, dtype="<u2").tobytes())
    assert digest.hexdigest() == EXP_TABLES_SHA256


def _extension_order(q):
    try:
        return prime_power(q)[1] >= 2
    except ValueError:
        return False


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


@pytest.mark.parametrize("q", [19, 25, 16])
def test_poly_divmod_divides_back(q):
    # a == b*quo + rem with deg rem < deg b, for random dividends (some with
    # trailing zeros) and random divisors of degree 0 to 4.
    F = Field(*prime_power(q))
    rng = random.Random(q)
    for _ in range(300):
        a = [rng.randrange(q) for _ in range(rng.randrange(9))]
        b = [rng.randrange(q) for _ in range(rng.randrange(5))] + [rng.randrange(1, q)]
        quo, rem = poly_divmod(F, a, b)
        assert len(rem) < len(b) and rem == _trim(rem)
        back = poly_mul(F, quo, b) + [0] * len(a)
        for i, r in enumerate(rem):
            back[i] = F.add(back[i], r)
        assert _trim(back) == _trim(a), (a, b)


def test_field_import_loads_no_other_module():
    code = (
        "import sys, paforge.field; "
        "print(sorted(m for m in sys.modules if m.startswith('paforge.')))"
    )
    src = os.path.dirname(os.path.dirname(field_module.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "['paforge.field']"
