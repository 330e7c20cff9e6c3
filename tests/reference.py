"""Scalar references that the tests check the numpy command path against;
no command imports this module.  Fractions f/g are kept in lowest terms with
g monic.  The affine action f/g -> a*f(cx+b)/g(cx+b) (a, c != 0) preserves
degrees, the value count and pole existence, since x -> cx+b permutes GF(q)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from paforge.field import Field, FieldElem, field_for_order, poly_divmod, poly_gcd
from paforge.groups import PermGroup, StabilizerChain, parse_generator_text
from paforge.pa import PermArray, Permutation, _as_blocks, _full_scan, _pieces
from paforge.sfp import SfpQuery, SfpResult, _eval_rows, _pad_rows, _ratio_rows, _row_widths


def poly_mul(F: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of coefficient lists (ascending powers) over the field F."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return out


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
    """Monic greatest common divisor by Euclid (`poly_gcd`); gcd(f, 0) is
    monic(f)."""
    if f.field != g.field:
        raise ValueError("polynomials over different fields")
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return Poly(f.field, tuple(poly_gcd(f.field, f.coeffs, g.coeffs)))


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
        for alpha in range(F.q):
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
    for beta in range(F.q):
        shifted = transform(phi, 1, beta)
        for gamma in range(1, F.q):
            base = transform(shifted, 1, 0, gamma)
            for alpha in range(1, F.q):
                img = object.__new__(FracPoly)
                img.__dict__.update(num=base.num.scale(alpha), den=base.den)
                seen.setdefault(img.sort_key(), img)
    return [seen[k] for k in sorted(seen)]


ORACLE_PAIR_CAP = 10**9


def is_member(
    phi: FracPoly, query: SfpQuery, profile: Optional[ValueProfile] = None
) -> bool:
    """Whether phi belongs to the query's cell; `profile` is phi's
    `value_count` when the caller already has it."""
    prof = profile if profile is not None else value_count(phi)
    slack = query.slack(prof.num_deg, prof.den_deg, prof.has_pole)
    return phi.field.q - prof.v <= slack


def members(result: SfpResult) -> tuple[FracPoly, ...]:
    """A result's rows as `FracPoly` objects."""
    F = result.query.field
    dw, _ = _row_widths(result.query)
    out = []
    for row in result.rows.tolist():
        den = Poly(F, tuple(c for c in row[:dw] if c >= 0))
        num = Poly(F, tuple(c for c in row[dw:] if c >= 0))
        out.append(FracPoly(num, den))
    return tuple(out)


def _all_polys(field: Field, max_deg: int, monic: bool) -> Iterator[Poly]:
    q = field.q
    if monic:
        for d in range(max_deg + 1):
            for tail in itertools.product(range(q), repeat=d):
                yield Poly(field, tuple(tail) + (1,))
    else:
        for coeffs in itertools.product(range(q), repeat=max_deg + 1):
            yield Poly(field, coeffs)


def enumerate_oracle(query: SfpQuery) -> SfpResult:
    """Reference enumeration over every coefficient pair, no reductions.

    Value tables are precomputed once per polynomial; the pair loop applies
    the membership inequalities directly to the evaluated ratios.  Each
    member's value row, q at the poles, is computed here from those tables
    and kept as its own image, so `SfpResult.gather` reads values that no
    numpy kernel computed.
    """
    F = query.field
    q = F.q
    fmax = query.s + max(query.a, 0)
    gmax = query.t + max(query.b, 0)
    work = q ** (fmax + gmax + 2)
    if work > ORACLE_PAIR_CAP:
        raise ValueError(f"oracle space {work} exceeds cap {ORACLE_PAIR_CAP}")
    points = list(range(F.q))
    fs = [(f, [f.eval(a) for a in points]) for f in _all_polys(F, fmax, False)]
    found = []
    one = Poly.one(F)
    for g in _all_polys(F, gmax, monic=True):
        gvals = [g.eval(a) for a in points]
        ginv = [F.inv(v) if v else None for v in gvals]
        has_pole = None in ginv
        for f, fvals in fs:
            if f.is_zero():
                if g.coeffs != (1,):
                    continue
                phi = FracPoly(f, one)
                if is_member(phi, query):
                    found.append((phi, fvals, ginv))
                continue
            values = {
                F.mul(fv, gi) for fv, gi in zip(fvals, ginv) if gi is not None
            }
            if q - len(values) > query.slack(f.degree, g.degree, has_pole):
                continue
            if g.degree > 0 and gcd(f, g).degree != 0:
                continue
            found.append((FracPoly(f, g), fvals, ginv))
    found.sort(key=lambda m: m[0].sort_key())
    rows = _pad_rows(
        query,
        [(m.den.degree, np.array([m.den.coeffs + m.num.coeffs])) for m, _, _ in found],
    )
    images = [
        [q if gi is None else F.mul(fv, gi) for fv, gi in zip(fvals, ginv)]
        for _, fvals, ginv in found
    ]
    source = np.arange(len(rows), dtype=np.int32) * (query.q - 1)  # unit 1, < work < 2^31
    return SfpResult(query, rows, source, np.array(images, np.int16).reshape(-1, q))


def _member_values(query: SfpQuery, rows: np.ndarray) -> np.ndarray:
    """Each padded row's value at every point of GF(q), q at the poles,
    evaluated from its coefficients: the reference of the values that
    `enumerate_fast` gathers."""
    F = query.field
    dw, _ = _row_widths(query)
    coeffs = np.maximum(rows, 0)  # padding evaluates as zero coefficients
    num, den = coeffs[:, dw:], coeffs[:, :dw]
    return _ratio_rows(F, _eval_rows(F, num), _eval_rows(F, den))


@lru_cache(maxsize=None)
def _pp_degree_census(q: int) -> tuple[int, ...]:
    """counts[k] = permutation polynomials of reduced degree exactly k."""
    if q > 8:
        raise ValueError(f"full permutation enumeration infeasible for q = {q}")
    F = field_for_order(q)
    counts = [0] * q
    for image in itertools.permutations(range(q)):
        poly = interpolate(F, list(zip(range(q), image)))
        counts[int(poly.degree)] += 1
    return tuple(counts)


def pp_count(q: int, d: int) -> int:
    """Permutation polynomials over GF(q) of degree <= d."""
    if d > q - 1:
        raise ValueError(f"degree bound {d} exceeds q-1 = {q - 1}")
    census = _pp_degree_census(q)
    return sum(census[: d + 1])


def _complete(q: int, n: int, vals: Sequence[int]) -> Permutation:
    """Completion of one value row to a permutation of n = q or q + 1 points."""
    images = [-1] * n
    if n > q:  # extra point: the smallest root goes to it, else it is fixed
        images[vals.index(q) if q in vals else q] = q
    taken = [False] * q
    for beta in range(q):
        v = vals[beta]  # a root has v = q, so it is skipped here
        if v < q and not taken[v]:
            images[beta] = v
            taken[v] = True
    spare = iter(v for v in range(q) if not taken[v])
    for beta in range(n):
        if images[beta] < 0:
            images[beta] = next(spare)
    return tuple(images)


def compose(p: Sequence[int], q: Sequence[int]) -> Permutation:
    """Left-to-right application: (p o q)(x) = p[q[x]]."""
    return tuple(p[i] for i in q)


def inverse(p: Sequence[int]) -> Permutation:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def moved_points(p: Sequence[int]) -> int:
    return sum(1 for i, j in enumerate(p) if i != j)


def hamming_distance(p: Sequence[int], r: Sequence[int]) -> int:
    """Number of points where two equal-length permutations disagree."""
    if len(p) != len(r):
        raise ValueError(f"length mismatch: {len(p)} vs {len(r)}")
    return sum(1 for a, b in zip(p, r) if a != b)


def exact_min_distance(pa: PermArray, workers: Optional[int] = None) -> int:
    """True minimum distance (no early exit); the FULL proof of min_distance."""
    if pa.M < 2:
        raise ValueError("need at least two rows to measure a distance")
    return _full_scan(pa, 0, workers)[0]


def is_sharply_k_transitive(pa: PermArray, k: int) -> bool:
    """Whether the rows (assumed a group) act sharply k-transitively.

    Equivalent by counting to: all k-prefixes of rows are distinct and
    M = n!/(n-k)!.  For M <= 360 the group property is checked: the rows
    and all M^2 products hold no row besides the M rows.
    """
    n, rows = pa.n, pa.rows
    if k > n:
        raise ValueError(f"k={k} exceeds degree {n}")
    if pa.M <= 360:
        products = np.concatenate([rows, rows[:, rows].reshape(-1, n)])
        if len(np.unique(products, axis=0)) != pa.M:
            raise ValueError("rows are not closed under composition")
    if pa.M != math.perm(n, k):
        return False
    return len(np.unique(rows[:, :k], axis=0)) == pa.M


def sharpness_matches_distance(pa: PermArray, k: int) -> bool:
    """Check that 'min distance >= n-k+1' and 'sharply k-transitive' agree
    for a group of order n!/(n-k)! given as rows."""
    n = pa.n
    target = math.perm(n, k)
    if pa.M != target:
        raise ValueError(f"row count {pa.M} is not n!/(n-k)! = {target}")
    lhs = exact_min_distance(pa) >= n - k + 1
    rhs = is_sharply_k_transitive(pa, k)
    return lhs == rhs


def format_pa(pa: PermArray) -> str:
    return b"".join(_pieces(*_as_blocks(pa), mirror=False)).decode("utf-8")


def pa_to_json(pa: PermArray) -> str:
    return b"".join(_pieces(*_as_blocks(pa), mirror=True)).decode("utf-8")


def contains(chain: StabilizerChain, p: Permutation) -> bool:
    """Whether the chain's group holds p: it sifts to the identity."""
    p = np.asarray(p, dtype=chain._identity.dtype)
    return chain.sift(p).tobytes() == chain._identity_bytes


def load_generator_file(path: Union[str, Path]) -> PermGroup:
    return parse_generator_text(Path(path).read_text(encoding="utf-8"))
