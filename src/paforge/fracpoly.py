"""Sub-normalized fractional maps f/g over GF(q).

A fraction is kept with g monic and gcd(f, g) = 1; equality is componentwise.
The affine action  f/g  ->  a*f(cx+b) / g(cx+b)  (a, c != 0) preserves
degrees, the value count, and pole existence, since x -> cx+b permutes
GF(q); that is what makes orbit expansion a sound search reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import Field, FieldElem
from .poly import Degree, Poly, gcd


@dataclass(frozen=True)
class FracPoly:
    """Fraction in lowest terms with monic denominator."""

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        if self.num.field != self.den.field:
            raise ValueError("numerator and denominator over different fields")
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not self.den.is_monic():
            raise ValueError("denominator must be monic")
        if not self.num.is_zero() and not gcd(self.num, self.den).coeffs == (1,):
            raise ValueError("fraction not in lowest terms")
        if self.num.is_zero() and self.den.coeffs != (1,):
            raise ValueError("zero numerator must have denominator 1")

    @property
    def field(self) -> Field:
        return self.num.field

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Total order used for canonical output: den coeffs, then num coeffs."""
        return (self.den.coeffs, self.num.coeffs)

    def values(self) -> list[int]:
        """f(a)/g(a) at each point a of GF(q), with q at the poles."""
        F = self.field
        out = []
        for alpha in F.elements():
            gv = self.den.eval(alpha)
            out.append(F.mul(self.num.eval(alpha), F.inv(gv)) if gv else F.q)
        return out


@dataclass(frozen=True)
class ValueProfile:
    """Shape summary of a fraction: value count, poles, component degrees."""

    v: int
    has_pole: bool
    num_deg: Degree
    den_deg: Degree


def make(f: Poly, g: Poly) -> FracPoly:
    """Reduce f/g to lowest terms with a monic denominator."""
    if g.is_zero():
        raise ZeroDivisionError("zero denominator")
    if f.is_zero():
        return FracPoly(f, Poly.one(g.field))
    common = gcd(f, g)
    if common.degree > 0:
        f, _ = divmod(f, common)
        g, _ = divmod(g, common)
    if not g.is_monic():
        lead_inv = g.field.inv(g.coeffs[-1])
        f = f.scale(lead_inv)
        g = g.scale(lead_inv)
    return FracPoly(f, g)


def value_count(phi: FracPoly) -> ValueProfile:
    """Count distinct values f(a)/g(a) over the non-poles of g in GF(q)."""
    q = phi.field.q
    values = set(phi.values())
    return ValueProfile(
        v=len(values - {q}),
        has_pole=q in values,
        num_deg=phi.num.degree,
        den_deg=phi.den.degree,
    )


def _substitute(poly: Poly, gamma: FieldElem, beta: FieldElem) -> Poly:
    """The composition poly(gamma*x + beta): shift by beta, then scale x."""
    F, power, out = poly.field, 1, []
    for c in poly.shift(beta).coeffs:
        out.append(F.mul(c, power))
        power = F.mul(power, gamma)
    return Poly(F, tuple(out))


def transform(
    phi: FracPoly, alpha: FieldElem, beta: FieldElem, gamma: FieldElem = 1
) -> FracPoly:
    """The image alpha*f(gamma*x+beta)/g(gamma*x+beta), its denominator made
    monic; substitutions preserve lowest terms."""
    if alpha == 0 or gamma == 0:
        raise ValueError("scale factors must be nonzero")
    F = phi.field
    den = _substitute(phi.den, gamma, beta)
    lead_inv = F.inv(den.coeffs[-1])
    num = _substitute(phi.num, gamma, beta).scale(F.mul(alpha, lead_inv))
    return FracPoly(num, den.scale(lead_inv))


def is_normalized(phi: FracPoly) -> bool:
    """Whether phi lies in the set that `sfp._scan_block` scans: f monic;
    the shift pinned, f's x^(s-1) coefficient zero when p does not divide s,
    else g's x^(t-1) coefficient zero when p does not divide t; and the
    scale pinned, the top nonzero coefficient below the leading one, of f,
    or of g when f = x^s, at x^j of a degree-D polynomial, with a discrete
    log below gcd(D - j, q - 1)."""
    f, g, F = phi.num, phi.den, phi.field
    if f.is_zero() or not f.is_monic():
        return False
    s, t = int(f.degree), int(g.degree)
    pinned = f.coeff(s - 1) if s % F.p else g.coeff(t - 1) if t % F.p else 0
    if pinned:
        return False
    for poly, deg in ((f, s), (g, t)):
        for j in range(deg - 1, -1, -1):
            if poly.coeff(j):
                return F._log[poly.coeff(j)] < math.gcd(deg - j, F.q - 1)
    return True


def orbit(phi: FracPoly) -> list[FracPoly]:
    """All distinct images a*f(cx+b)/g(cx+b), sorted by canonical encoding.

    Each image with a = 1 is checked on construction; scaling its numerator
    by a unit keeps it in lowest terms, so its scaled copies are not."""
    F = phi.field
    seen: dict[tuple, FracPoly] = {}
    for beta in F.elements():
        shifted = transform(phi, 1, beta)
        for gamma in F.units():
            base = transform(shifted, 1, 0, gamma)
            for alpha in F.units():
                img = object.__new__(FracPoly)
                img.__dict__.update(num=base.num.scale(alpha), den=base.den)
                seen.setdefault(img.sort_key(), img)
    return [seen[k] for k in sorted(seen)]
