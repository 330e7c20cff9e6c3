"""Fractions in lowest terms: value counts, the affine action
a*f(cx+b)/g(cx+b), normalized forms, and orbit structure."""

import itertools

import pytest

from paforge.field import Field
from reference import FracPoly, Poly, gcd, is_normalized, make, orbit, transform, value_count

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)


def P(field, *coeffs):
    return Poly.of(field, coeffs)


def frac(field, num, den=(1,)):
    return make(Poly.of(field, num), Poly.of(field, den))


_SUBNORMALIZED_CACHE = {}


def all_subnormalized(field, fdeg, gdeg):
    """Every fraction in lowest terms with component degrees <= bounds."""
    key = (field.q, fdeg, gdeg)
    if key in _SUBNORMALIZED_CACHE:
        return _SUBNORMALIZED_CACHE[key]
    out = []
    for fc in itertools.product(range(field.q), repeat=fdeg + 1):
        f = Poly.of(field, fc)
        for d in range(gdeg + 1):
            for tail in itertools.product(range(field.q), repeat=d):
                g = Poly.of(field, tail + (1,))
                if f.is_zero():
                    if g.coeffs == (1,):
                        out.append(FracPoly(f, g))
                    continue
                if g.degree == 0 or gcd(f, g).degree == 0:
                    out.append(FracPoly(f, g))
    # Distinct coefficient tuples give distinct fractions.
    _SUBNORMALIZED_CACHE[key] = out
    return out


def test_make_examples():
    phi = frac(F5, (0, 2), (2,))  # 2x / 2
    assert phi.num.coeffs == (0, 1) and phi.den.coeffs == (1,)
    phi = frac(F5, (4, 0, 1), (4, 1))  # (x^2-1)/(x-1)
    assert phi.num.coeffs == (1, 1) and phi.den.coeffs == (1,)
    phi = make(Poly.zero(F5), P(F5, 0, 1))
    assert phi.num.is_zero() and phi.den.coeffs == (1,)


def test_make_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        make(P(F5, 0, 1), Poly.zero(F5))


def test_constructor_enforces_lowest_terms():
    with pytest.raises(ValueError):
        FracPoly(P(F5, 4, 0, 1), P(F5, 4, 1))
    with pytest.raises(ValueError):
        FracPoly(P(F5, 0, 2), P(F5, 2))  # non-monic denominator


def test_value_count_examples():
    for field in (F5, F7):
        prof = value_count(frac(field, (0, 1)))
        assert prof.v == field.q and not prof.has_pole
    prof = value_count(frac(F5, (0, 0, 1)))
    assert prof.v == 3  # squares {0, 1, 4}
    prof = value_count(frac(F5, (1,), (0, 1)))
    assert prof.v == 4 and prof.has_pole
    assert frac(F5, (0, 0, 1)).values() == [0, 1, 4, 4, 1]
    assert frac(F5, (1,), (0, 1)).values() == [5, 1, 3, 2, 4]  # 1/x, pole at 0


def test_transform_examples():
    phi = frac(F5, (0, 1))
    assert transform(phi, 1, 0) == phi
    img = transform(phi, 2, 1)
    assert img.num.coeffs == (2, 2) and img.den.coeffs == (1,)
    with pytest.raises(ValueError):
        transform(phi, 0, 1)
    with pytest.raises(ValueError):
        transform(phi, 1, 1, 0)
    # x^2/(x+1) under x -> 2x + 1: (2x+1)^2/(2x+2) = (4x^2+4x+1)/(2(x+1)),
    # made monic in g: (2x^2 + 2x + 3)/(x + 1) over GF(5)
    img = transform(frac(F5, (0, 0, 1), (1, 1)), 1, 1, 2)
    assert img.num.coeffs == (3, 2, 2) and img.den.coeffs == (1, 1)


def test_transform_preserves_profile_exhaustive():
    # Exhaustive over all fractions with degrees <= 2 at q = 5 and q = 7.
    # The value scale by the primitive element, the shift x -> x + 1 and the
    # variable scale x -> wx by the primitive element generate the whole
    # action (x -> cx + b is x -> c(x + b/c)); profile equality along those
    # edges gives equality on every orbit.
    for field in (F5, F7):
        fractions = all_subnormalized(field, 2, 2)
        profile = {phi.sort_key(): value_count(phi) for phi in fractions}
        w = field.primitive
        for phi in fractions:
            ref = profile[phi.sort_key()]
            for alpha, beta, gamma in ((w, 0, 1), (1, 1, 1), (1, 0, w)):
                img = transform(phi, alpha, beta, gamma)
                assert profile[img.sort_key()] == ref


def test_is_normalized_examples():
    assert is_normalized(frac(F5, (0, 0, 1), (1, 1)))  # x^2/(x+1)
    assert not is_normalized(frac(F5, (0, 1, 1)))  # x^2 + x
    assert not is_normalized(frac(F5, (0, 2)))  # 2x not monic
    # The scale rule: in GF(7), primitive 3, the constant of x^2 + a has
    # gap 2 and gcd(2, 6) = 2, so a = 1 and a = 3 (logs 0, 1) are kept, and
    # a = 2 = 3^2 goes to 1 under x -> 3x, (9x^2 + 2)/9 = x^2 + 1.
    assert is_normalized(frac(F7, (1, 0, 1))) and is_normalized(frac(F7, (3, 0, 1)))
    assert not is_normalized(frac(F7, (2, 0, 1)))
    assert transform(frac(F7, (2, 0, 1)), 4, 0, 3) == frac(F7, (1, 0, 1))
    # x^3 + x: gap 2, the coefficient 1 has log 0; x^3 + 2x + 5: log 2 >= 2
    assert is_normalized(frac(F7, (0, 1, 0, 1)))
    assert not is_normalized(frac(F7, (5, 2, 0, 1)))
    # f = x^s2: the rule moves to g, x/(x^2 + 2) has log 2 >= gcd(2, 6)
    assert is_normalized(frac(F7, (0, 1), (3, 0, 1)))
    assert not is_normalized(frac(F7, (0, 1), (2, 0, 1)))
    # p | s2: the shift pins g instead, x^3/(x + 1) in GF(9) is not normalized
    F9 = Field(3, 2)
    assert not is_normalized(frac(F9, (0, 0, 0, 1), (1, 1)))
    assert is_normalized(frac(F9, (1, 0, 0, 1), (0, 1)))


def test_orbit_contains_normalized_small():
    for phi in all_subnormalized(F5, 2, 2):
        if phi.num.is_zero():
            continue
        assert any(is_normalized(img) for img in orbit(phi))


def test_orbit_examples():
    assert len(orbit(frac(F5, (0, 1)))) == 20  # q(q-1)
    assert len(orbit(frac(F5, (2,)))) == 4  # nonzero constants: q-1
    for phi in (frac(F7, (0, 0, 1)), frac(F5, (1,), (0, 1)), frac(F5, (3, 1))):
        size = len(orbit(phi))
        q = phi.field.q
        assert q * (q - 1) % size == 0


def test_orbit_members_subnormalized_and_closed():
    phi = frac(F5, (1, 0, 1), (2, 1))
    orb = orbit(phi)
    keys = {img.sort_key() for img in orb}
    assert phi.sort_key() in keys
    for img in orb:
        for gamma in (1, 2):
            ref = transform(img, 3, 2, gamma)
            assert ref.sort_key() in keys


def test_cross_difference_lemma_exhaustive():
    # Distinct fractions with deg(f1 g2), deg(f2 g1) <= q-2 never satisfy the
    # polynomial identity f1*g2 == f2*g1.  With component degrees <= 2 every
    # cross difference has degree <= 4 < q, so the identity holds exactly
    # when the two fractions agree pointwise as projective pairs
    # (f(a) : g(a)) -- lowest terms rules out (0 : 0).  Grouping by that
    # signature covers all pairs at once.
    from collections import defaultdict

    for field in (F5, F7):
        fractions = all_subnormalized(field, 2, 2)
        q = field.q
        bound = q - 2
        groups = defaultdict(list)
        for idx, phi in enumerate(fractions):
            sig = []
            for a in range(q):
                fa, ga = phi.num.eval(a), phi.den.eval(a)
                assert fa or ga  # no common root in lowest terms
                sig.append((field.mul(fa, field.inv(ga)), 1) if ga else (1, 0))
            groups[tuple(sig)].append(idx)
        for idxs in groups.values():
            for pos, i in enumerate(idxs):
                phi = fractions[i]
                for j in idxs[pos + 1:]:
                    psi = fractions[j]
                    # The cross difference of this pair vanishes, so the
                    # lemma says the degree bounds must fail.
                    assert (
                        phi.num.degree + psi.den.degree > bound
                        or psi.num.degree + phi.den.degree > bound
                    )
                    assert (phi.num * psi.den).coeffs == (psi.num * phi.den).coeffs
