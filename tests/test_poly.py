"""Polynomial algebra: evaluation, products, gcd, interpolation."""

import itertools
import random

import pytest

from paforge.field import Field
from reference import MINUS_INFINITY, Poly, gcd, interpolate

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)


def P(field, *coeffs):
    return Poly.of(field, coeffs)


def test_trailing_zeros_stripped():
    assert P(F5, 1, 2, 0, 0).coeffs == (1, 2)
    assert P(F5, 0, 0).coeffs == ()


def test_degree_sentinel():
    assert Poly.zero(F5).degree == MINUS_INFINITY
    assert Poly.zero(F5).degree < -(10**9)
    assert P(F5, 3).degree == 0
    assert P(F5, 0, 0, 1).degree == 2


def test_eval_examples():
    f = P(F5, 1, 0, 1)  # x^2 + 1
    assert f.eval(2) == 0
    assert Poly.zero(F5).eval(3) == 0
    for alpha in range(F7.q):
        assert P(F7, 0, 1).eval(alpha) == alpha


def test_mul_examples():
    prod = P(F5, 1, 1) * P(F5, 4, 1)
    assert prod.coeffs == (4, 0, 1)
    assert (P(F5, 2, 1) * Poly.zero(F5)).is_zero()


def test_mul_is_pointwise():
    rng = random.Random(7)
    for _ in range(50):
        f = P(F7, *[rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        g = P(F7, *[rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        fg = f * g
        for alpha in range(F7.q):
            assert fg.eval(alpha) == F7.mul(f.eval(alpha), g.eval(alpha))


def test_gcd_examples():
    g = gcd(P(F5, 4, 0, 1), P(F5, 4, 1))  # x^2-1, x-1
    assert g.coeffs == (4, 1)
    f = P(F5, 2, 3, 1)
    assert gcd(f, Poly.zero(F5)).coeffs == (2, 3, 1)
    with pytest.raises(ValueError):
        gcd(Poly.zero(F5), Poly.zero(F5))


def test_gcd_of_shared_factor():
    rng = random.Random(11)
    shared = P(F7, 1, 1)  # x + 1
    for _ in range(40):
        h = P(F7, *[rng.randrange(7) for _ in range(3)])
        w = P(F7, *[rng.randrange(7) for _ in range(3)])
        if h.is_zero() or w.is_zero() or gcd(h, w).degree != 0:
            continue
        if h.eval(6) == 0 or w.eval(6) == 0:  # avoid an extra x+1 factor
            continue
        g = gcd(shared * h, shared * w)
        assert g.coeffs == shared.coeffs
        # Oracle: result divides both inputs and the cofactors are coprime.
        for poly in (shared * h, shared * w):
            _, rem = divmod(poly, g)
            assert rem.is_zero()


def test_gcd_euclid_invariant_small():
    polys = [Poly.of(F3, c) for c in itertools.product(range(3), repeat=3)]
    for f in polys:
        for g in polys:
            if f.is_zero() and g.is_zero():
                continue
            d = gcd(f, g)
            for h in (f, g):
                if not h.is_zero():
                    _, rem = divmod(h, d)
                    assert rem.is_zero()
            # Any common divisor divides the gcd: trial division by degree <= 2.
            for c in itertools.product(range(3), repeat=3):
                cand = Poly.of(F3, c)
                if cand.is_zero() or cand.degree == 0:
                    continue
                if (f.is_zero() or divmod(f, cand)[1].is_zero()) and (
                    g.is_zero() or divmod(g, cand)[1].is_zero()
                ):
                    _, rem = divmod(d, cand)
                    assert rem.is_zero()


def test_degree_arithmetic_exhaustive():
    polys = [Poly.of(F3, c) for c in itertools.product(range(3), repeat=3)]
    for f in polys:
        for g in polys:
            assert (f + g).degree <= max(f.degree, g.degree)
            if not f.is_zero() and not g.is_zero():
                assert (f * g).degree == f.degree + g.degree
            else:
                assert (f * g).is_zero()


def test_interpolate_examples():
    assert interpolate(F5, [(0, 0), (1, 1), (2, 2)]).coeffs == (0, 1)
    assert interpolate(F5, [(3, 4)]).coeffs == (4,)
    with pytest.raises(ValueError):
        interpolate(F5, [(1, 1), (1, 2)])


def test_interpolate_permutations_degree_bound():
    # Reduced interpolants of bijections stay below degree q-1.
    for image in itertools.permutations(range(5)):
        poly = interpolate(F5, list(zip(range(5), image)))
        assert poly.degree <= 3


def test_interpolate_round_trip():
    rng = random.Random(3)
    for field in (F5, F7):
        for _ in range(30):
            deg = rng.randrange(0, field.q - 1)
            coeffs = [rng.randrange(field.q) for _ in range(deg + 1)]
            f = Poly.of(field, coeffs)
            pts = [(a, f.eval(a)) for a in range(field.q)]
            assert interpolate(field, pts).coeffs == f.coeffs


def test_divmod_identity():
    rng = random.Random(5)
    for _ in range(60):
        f = P(F7, *[rng.randrange(7) for _ in range(rng.randrange(1, 6))])
        g = P(F7, *[rng.randrange(7) for _ in range(rng.randrange(1, 4))])
        if g.is_zero():
            continue
        quo, rem = divmod(f, g)
        assert (quo * g + rem).coeffs == f.coeffs
        assert rem.degree < g.degree


def test_shift_matches_eval():
    rng = random.Random(9)
    for _ in range(40):
        f = P(F7, *[rng.randrange(7) for _ in range(4)])
        beta = rng.randrange(7)
        shifted = f.shift(beta)
        for alpha in range(F7.q):
            assert shifted.eval(alpha) == f.eval(F7.add(alpha, beta))
