"""Univariate polynomial algebra over GF(q): evaluation, gcd, interpolation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .field import Field, FieldElem, poly_divmod, poly_mul

#: Degree of the zero polynomial; compares less than every integer and
#: absorbs addition, so degree bounds stay well defined for f = 0.
MINUS_INFINITY = float("-inf")

Degree = Union[int, float]


@dataclass(frozen=True)
class Poly:
    """Polynomial with ascending coefficient tuple and no trailing zeros."""

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = self.coeffs
        if c and c[-1] == 0:
            while c and c[-1] == 0:
                c = c[:-1]
            object.__setattr__(self, "coeffs", c)
        q = self.field.q
        for v in c:
            if not 0 <= v < q:
                raise ValueError(f"coefficient {v} outside [0, {q})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, field: Field, coeffs: Sequence[int]) -> "Poly":
        return cls(field, tuple(int(c) for c in coeffs))

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: Field, c: int) -> "Poly":
        return cls(field, (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> Degree:
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> FieldElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, tuple(out))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, tuple(poly_mul(self.field, self.coeffs, other.coeffs)))

    def scale(self, c: FieldElem) -> "Poly":
        F = self.field
        return Poly(F, tuple(F.mul(c, a) for a in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = poly_divmod(self.field, self.coeffs, other.coeffs)
        return Poly(self.field, tuple(quo)), Poly(self.field, tuple(rem))

    # -- evaluation ----------------------------------------------------------

    def eval(self, alpha: FieldElem) -> FieldElem:
        """Value at alpha by Horner's scheme."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, alpha), c)
        return acc

    def shift(self, beta: FieldElem) -> "Poly":
        """The composition f(x + beta)."""
        F = self.field
        if beta == 0:
            return self
        x_plus = Poly(F, (beta, 1))
        out = Poly.zero(F)
        for c in reversed(self.coeffs):
            out = out * x_plus + Poly.constant(F, c)
        return out


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor by Euclid; gcd(f, 0) is monic(f)."""
    if f.field != g.field:
        raise ValueError("polynomials over different fields")
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    F = f.field
    # Coefficient-list Euclid; this sits on the hot path of every
    # lowest-terms check, so avoid intermediate Poly objects.
    a, b = f.coeffs, g.coeffs
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    inv_lead = F.inv(a[-1])
    return Poly(F, tuple(F.mul(inv_lead, c) for c in a))


def interpolate(field: Field, points: Sequence[tuple[FieldElem, FieldElem]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("repeated abscissa")
    if len(points) > field.q:
        raise ValueError("more points than field elements")
    if not points:
        return Poly.zero(field)
    # Full node product, then peel off one linear factor per basis polynomial.
    master = Poly.one(field)
    for x in xs:
        master = master * Poly(field, (field.neg(x), 1))
    acc = Poly.zero(field)
    for x, y in points:
        if y == 0:
            continue
        basis, _ = divmod(master, Poly(field, (field.neg(x), 1)))
        denom = basis.eval(x)
        acc = acc + basis.scale(field.mul(y, field.inv(denom)))
    return acc
