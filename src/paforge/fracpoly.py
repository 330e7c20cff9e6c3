"""Sub-normalized fractional maps f/g over GF(q).

A fraction is kept with g monic and gcd(f, g) = 1; equality is componentwise.
The scale-and-shift action  f/g  ->  a*f(x+b) / g(x+b)  (a != 0) preserves
degrees, the value count, and pole existence, which is what makes orbit
expansion a sound search reduction.
"""

from __future__ import annotations

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


def transform(phi: FracPoly, alpha: FieldElem, beta: FieldElem) -> FracPoly:
    """The image a*f(x+b)/g(x+b); shifts preserve lowest terms and monicity."""
    if alpha == 0:
        raise ValueError("scale factor must be nonzero")
    num = phi.num.shift(beta).scale(alpha)
    den = phi.den.shift(beta)
    return FracPoly(num, den)


def is_normalized(phi: FracPoly) -> bool:
    """Monic f, monic g, and a zero subleading coefficient when char does not
    divide the numerator degree."""
    f = phi.num
    if f.is_zero() or not f.is_monic():
        return False
    s = int(f.degree)
    if s % phi.field.p != 0 and f.coeff(s - 1) != 0:
        return False
    return True


def orbit(phi: FracPoly) -> list[FracPoly]:
    """All distinct scale-and-shift images, sorted by canonical encoding."""
    F = phi.field
    seen: dict[tuple, FracPoly] = {}
    for beta in F.elements():
        shifted_num = phi.num.shift(beta)
        shifted_den = phi.den.shift(beta)
        for alpha in F.units():
            img = FracPoly(shifted_num.scale(alpha), shifted_den)
            seen.setdefault(img.sort_key(), img)
    return [seen[k] for k in sorted(seen)]
