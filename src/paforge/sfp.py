"""Membership and enumeration for degree-budgeted families of sub-normalized
fractional maps.

A fraction f/g with exact degrees (s', t') and value count v belongs to the
length-q family for budgets (s, t) when s' <= s, t' <= t and
q - v <= min(s - s', t - t');  the length-(q+1) family for (s, t, a, b)
relaxes the bound by one when g has a root (the pole absorbs one collision)
and otherwise shifts the budgets to (s + a, t + b).

Two enumerators are provided: a brute-force oracle over all coefficient
tuples, and a fast scan that visits one normalized representative per
scale-and-shift orbit a*f(x+b)/g(x+b).  Both return the same canonically
sorted coefficient rows (`SfpResult.rows`).  The scan keeps one table row
per orbit, with the orbit's size q(q-1)/|Stab|, so a cell's count is a sum
of orbit sizes (`best_cell`, `best_count`); only `enumerate_fast`
expands the member orbits into rows, and gathers each member's values from
its representative's.  Inside `scanning_once` a scan reuses the block tables
of an earlier one, so a command that counts and then emits scans once.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb, isqrt
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .field import DENSE_TABLE_CAP, Field, field_for_order, prime_power
from .fracpoly import FracPoly, ValueProfile, value_count
from .pa import _row_order
from .parallel import map_blocks, resolve_workers
from .poly import Degree, Poly, gcd

ORACLE_PAIR_CAP = 10**9
#: The supported field orders: what the int16 kernels hold, pole sentinel q
#: included, and for extension fields what the dense tables of `_eval_rows`
#: hold.  `check_field_range` declares both.
MAX_Q = int(np.iinfo(np.int16).max)
MAX_EXT_Q = DENSE_TABLE_CAP
#: Cells (value rows x q points) in one scan buffer: a pair-scan tile's
#: ratios, or one int64 product of `_eval_rows` (4 MB).  At q = 19 a tile
#: holds 27,594 pairs, so every block with more splits across workers.
_CELL_BUDGET = 1 << 19

#: Offset pairs admitted by the length-(q+1) maximization, in tie-break order.
OFFSET_CHOICES = ((0, 0), (1, -1), (-1, 1))


class Variant(str, Enum):
    Q = "q"
    Q_PLUS_1 = "q+1"


def check_field_range(q: int) -> None:
    """Reject GF(q) outside the fraction search's supported range: prime
    orders up to MAX_Q, extension orders up to MAX_EXT_Q.  q is compared
    with MAX_Q before `prime_power` trial-divides it."""
    if q > MAX_Q:
        raise ValueError(f"field order {q} exceeds the supported maximum {MAX_Q}")
    if prime_power(q)[1] > 1 and q > MAX_EXT_Q:
        msg = f"extension field order {q} exceeds the supported maximum {MAX_EXT_Q}"
        raise ValueError(msg)


@dataclass(frozen=True)
class SfpQuery:
    """One enumeration cell: field, length variant, and degree budgets."""

    field: Field
    variant: Variant
    s: int
    t: int
    a: int = 0
    b: int = 0

    def __post_init__(self) -> None:
        q, s, t, a, b = self.field.q, self.s, self.t, self.a, self.b
        check_field_range(q)
        if s < 0 or t < 0:
            raise ValueError("degree budgets must be non-negative")
        if s + t > q - 2:
            raise ValueError(f"s+t = {s + t} exceeds q-2 = {q - 2}")
        if self.variant is Variant.Q:
            if a or b:
                raise ValueError("offsets apply only to the q+1 variant")
        else:
            if s + a < 0 or t + b < 0:
                raise ValueError("shifted budgets must be non-negative")
            for total in (s + t + a, s + t + b, s + t + a + b):
                if total > q - 2:
                    raise ValueError("shifted budget total exceeds q-2")

    @property
    def q(self) -> int:
        return self.field.q

    def distance(self) -> int:
        """Minimum distance guaranteed for the array built from this cell."""
        q, s, t = self.q, self.s, self.t
        if self.variant is Variant.Q:
            return q - s - t
        a, b = self.a, self.b
        return min(q - s - t, q - s - t - a - b, q + 1 - s - t - max(a, b))

    def length(self) -> int:
        return self.q if self.variant is Variant.Q else self.q + 1

    def slack(self, num_deg: Degree, den_deg: Degree, has_pole: bool) -> int:
        """Largest q - v a fraction of these exact degrees may have and still be
        a member; -1 when the degrees exceed the budgets.  See the module
        docstring for the rule: a pole adds one to the length-(q+1) slack, and
        no pole shifts the budgets by the offsets (zero on variant q)."""
        s, t, bonus = self.s, self.t, 0
        if not has_pole:
            s, t = s + self.a, t + self.b
        elif self.variant is Variant.Q_PLUS_1:
            bonus = 1
        if num_deg > s or den_deg > t:
            return -1
        return min(s - num_deg, t - den_deg) + bonus

    def describe(self) -> str:
        core = f"q={self.q},variant={self.variant.value},s={self.s},t={self.t}"
        if self.variant is Variant.Q_PLUS_1:
            core += f",a={self.a},b={self.b}"
        return core


@dataclass(frozen=True)
class SfpResult:
    """Canonically sorted members of one cell.

    Each row of `rows` is one member's coefficients, den then num, ascending
    and padded with -1 to the query's den and num widths (`_row_widths`), so
    lexicographic row order is `FracPoly.sort_key` order.  Row i of `values`
    is member i's value at every point of GF(q), q at the poles.
    """

    query: SfpQuery
    rows: np.ndarray
    values: np.ndarray

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def members(self) -> tuple[FracPoly, ...]:
        """The rows as `FracPoly` objects, built on each access."""
        F = self.query.field
        dw, _ = _row_widths(self.query)
        out = []
        for row in self.rows.tolist():
            den = Poly(F, tuple(c for c in row[:dw] if c >= 0))
            num = Poly(F, tuple(c for c in row[dw:] if c >= 0))
            out.append(FracPoly(num, den))
        return tuple(out)


def _row_widths(query: SfpQuery) -> tuple[int, int]:
    """Den and num columns of a result row: one past each degree budget."""
    return query.t + max(query.b, 0) + 1, query.s + max(query.a, 0) + 1


def _pad_rows(query: SfpQuery, pieces: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
    """Stack (den degree, exact den||num rows) pieces into -1 padded rows."""
    dw, nw = _row_widths(query)
    rows = np.full((sum(len(r) for _, r in pieces), dw + nw), -1, np.int16)
    at = 0
    for dg, r in pieces:
        rows[at : at + len(r), : dg + 1] = r[:, : dg + 1]
        rows[at : at + len(r), dw : dw + r.shape[1] - dg - 1] = r[:, dg + 1 :]
        at += len(r)
    return rows


# -- membership ---------------------------------------------------------------


def is_member(
    phi: FracPoly, query: SfpQuery, profile: Optional[ValueProfile] = None
) -> bool:
    """Whether phi belongs to the query's cell; `profile` is phi's
    `value_count` when the caller already has it."""
    prof = profile if profile is not None else value_count(phi)
    slack = query.slack(prof.num_deg, prof.den_deg, prof.has_pole)
    return phi.field.q - prof.v <= slack


# -- brute-force oracle -------------------------------------------------------


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
    the membership inequalities directly to the evaluated ratios.
    """
    F = query.field
    q = F.q
    fmax = query.s + max(query.a, 0)
    gmax = query.t + max(query.b, 0)
    work = q ** (fmax + gmax + 2)
    if work > ORACLE_PAIR_CAP:
        raise ValueError(f"oracle space {work} exceeds cap {ORACLE_PAIR_CAP}")
    points = list(F.elements())
    fs = [(f, [f.eval(a) for a in points]) for f in _all_polys(F, fmax, False)]
    members = []
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
                    members.append(phi)
                continue
            values = {
                F.mul(fv, gi) for fv, gi in zip(fvals, ginv) if gi is not None
            }
            if q - len(values) > query.slack(f.degree, g.degree, has_pole):
                continue
            if g.degree > 0 and gcd(f, g).degree != 0:
                continue
            members.append(FracPoly(f, g))
    members.sort(key=FracPoly.sort_key)
    rows = _pad_rows(
        query,
        [(m.den.degree, np.array([m.den.coeffs + m.num.coeffs])) for m in members],
    )
    return SfpResult(query, rows, _member_values(query, rows))


def _member_values(query: SfpQuery, rows: np.ndarray) -> np.ndarray:
    """Each padded row's value at every point of GF(q), q at the poles,
    evaluated from its coefficients: the oracle of the values that
    `enumerate_fast` gathers."""
    F = query.field
    dw, _ = _row_widths(query)
    coeffs = np.maximum(rows, 0)  # padding evaluates as zero coefficients
    num, den = coeffs[:, dw:], coeffs[:, :dw]
    return _ratio_rows(F, _eval_rows(F, num), _eval_rows(F, den))


# -- fast scan: normalized representatives + orbit expansion -----------------


class _Block(NamedTuple):
    """The scanned orbits of one exact-degree block, one row per orbit.

    Each row is the orbit's least (den||num) row, f and g monic; m (= q - v)
    and the pole flag are orbit invariants, and size is the number of
    fractions in the orbit.
    """

    s2: int
    t2: int
    rows: np.ndarray  # (orbits, t2+1 + s2+1) int16, den first, sorted
    m: np.ndarray
    pole: np.ndarray
    size: np.ndarray


def _members(block: _Block, query: SfpQuery) -> np.ndarray:
    """Mask of the block rows that are members of the query's cell."""
    thr_pole, thr_nopole = _block_thresholds([query], block.s2, block.t2)
    return block.m <= np.where(block.pole, thr_pole, thr_nopole)


def _block_thresholds(
    queries: Sequence[SfpQuery], s2: int, t2: int
) -> tuple[int, int]:
    """Most permissive (pole, no-pole) slack over all queries for one block."""
    return (
        max(qq.slack(s2, t2, True) for qq in queries),
        max(qq.slack(s2, t2, False) for qq in queries),
    )


def _monic_rows(field: Field, deg: int, free: int) -> np.ndarray:
    """Coefficient rows x^deg + (every choice of the `free` lowest
    coefficients), the coefficients between them zero."""
    q = field.q
    ids = np.arange(q**free)
    out = np.zeros((len(ids), deg + 1), dtype=np.int16)
    out[:, deg] = 1
    for j in range(free):
        out[:, j] = (ids // q**j) % q
    return out


def _normalized_num_block(field: Field, s2: int) -> np.ndarray:
    """Coefficient rows of all normalized numerators of exact degree s2: a
    shift zeroes the x^(s2-1) coefficient unless p divides s2, since that
    coefficient of f(x+b) is a_(s2-1) + s2*b*a_s2."""
    return _monic_rows(field, s2, s2 - 1 if s2 % field.p else s2)


def _eval_rows(field: Field, coeffs: np.ndarray) -> np.ndarray:
    """Values of each coefficient row at every field element, shape (N, q).

    The one kernel that forks on the field kind, because each side wins
    where it runs (2-vCPU VM, numpy 2.4): on prime fields a Vandermonde
    matmul mod p beats table Horner, 0.79 s against 4.2 s on the 2.48M
    monic rows of q = 19, degree 5; on extension fields table Horner beats
    an F_p-linear matmul on base-p digits, which does k^2 times the work,
    on the monic rows of degree 2: GF(256) 0.67 s against 7.0 s, GF(512)
    7.2 s against 75 s.
    """
    q = field.q
    if field.k == 1:
        p = field.p
        d = coeffs.shape[1]
        vand = np.ones((d, q), dtype=np.int64)
        for i in range(1, d):
            vand[i] = vand[i - 1] * np.arange(q) % p
        vals = np.empty((coeffs.shape[0], q), dtype=np.int16)
        step = max(1, _CELL_BUDGET // q)
        for lo in range(0, len(coeffs), step):
            prod = coeffs[lo : lo + step].astype(np.int64) @ vand
            vals[lo : lo + len(prod)] = np.remainder(prod, p, out=prod)
        return vals
    tabs = field.tables()
    mul, add = tabs["mul"], tabs["add"]
    vals = np.zeros((coeffs.shape[0], q), dtype=np.int16)
    alphas = np.arange(q, dtype=np.int16)
    for i in range(coeffs.shape[1] - 1, -1, -1):
        vals = add[mul[vals, alphas[None, :]], coeffs[:, i : i + 1]]
    return vals


@lru_cache(maxsize=None)
def _div_tables(field: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, T) with f/g = T[A[f] + B[g]] for all f, g, and q when g = 0.

    With n = q - 1: A[f] = log f, A[0] = 2n; B[g] = n - log g, B[0] = 4n;
    T is the doubled exp table on [0, 2n), zeros on [2n, 4n) and q on
    [4n, 6n], so 0/g lands in the zeros and f/0 on the pole sentinel.
    """
    q, n = field.q, field.q - 1
    log = np.array(field._log, dtype=np.int32)
    A, B = log.copy(), n - log
    A[0], B[0] = 2 * n, 4 * n
    T = np.full(6 * n + 1, q, dtype=np.int16)
    T[: 2 * n] = field._exp[: 2 * n]
    T[2 * n : 4 * n] = 0
    return A, B, T


def _ratio_rows(field: Field, fvals: np.ndarray, gvals: np.ndarray) -> np.ndarray:
    """f/g at every point from broadcastable value rows, q at the poles."""
    A, B, T = _div_tables(field)
    return np.take(T, A[fvals] + B[gvals])


def _shifted(field: Field, c: np.ndarray, dw: int) -> np.ndarray:
    """Every shift g(x+beta)||f(x+beta) of every (den||num) coefficient row
    with dw den columns, shape (N, q, width).

    Coefficient i of c(x+beta) is the i-th Hasse derivative
    sum_m C(m+i, i) c_{m+i} x^m at beta, so one `_eval_rows` call shifts
    every row by every beta; i counts from the start of i's polynomial, and
    m+i stays inside it.  C(m+i, i) mod p lies in the prime field, and
    multiplying by it is dividing by its inverse.
    """
    n, width = c.shape
    i, m = np.indices((width, width))
    local, end = np.where(i < dw, i, i - dw), np.where(i < dw, dw, width)
    binom = np.where(m + i < end, np.vectorize(comb)(m + local, local) % field.p, 0)
    inv = [1] + [field.inv(b) for b in range(1, binom.max() + 1)]
    taps = np.where(binom > 0, c[:, np.minimum(m + i, width - 1)], 0).astype(np.int16)
    hasse = _ratio_rows(field, taps, np.array(inv, dtype=np.int16)[binom])
    return _eval_rows(field, hasse.reshape(n * width, width)).reshape(
        n, width, field.q
    ).transpose(0, 2, 1)


def _least_shifts(
    field: Field, rows: np.ndarray, dw: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each (den||num) row's least shift, and how many of its q shifts equal
    that least row: the order of the shifts that fix the row."""
    shifted = _shifted(field, rows, dw)
    first = np.lexsort(shifted.transpose(2, 0, 1)[::-1])[:, 0]
    least = shifted[np.arange(len(rows)), first]
    return least, (shifted == least[:, None, :]).all(axis=2).sum(axis=1)


def _orbit_rows(
    field: Field, reps: np.ndarray, dw: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every fraction in the orbits of reps, (den||num) rows with f and g
    monic and one per orbit, and each fraction's value row: each distinct
    shift of a representative, its numerator scaled by every unit.  Orbits
    are disjoint, and a monic numerator tells its scales apart, so the rows
    are distinct.

    The values are gathered, not evaluated: the shift by beta of a
    representative with values V, its numerator scaled by 1/u, has the value
    V[x + beta] / u at x, and the pole sentinel q stays q.
    """
    q, w = field.q, reps.shape[1]
    shifted = _shifted(field, reps, dw).reshape(-1, w)
    order, rises = _row_order(shifted)
    kept = np.flatnonzero(rises) if order is None else order[rises]
    shifts = shifted[kept]
    orbits = np.repeat(shifts[:, None, :], q - 1, axis=1)  # (shifts, q-1, w)
    units = np.arange(1, q, dtype=np.int16)[:, None]
    orbits[..., dw:] = _ratio_rows(field, orbits[..., dw:], units)
    rep, beta = np.divmod(kept, q)  # shifted row r*q + beta is rep r shifted by beta
    points = np.arange(q, dtype=np.int16)
    at = field.tables()["add"][beta] if field.k > 1 else (points + beta[:, None]) % q
    num, den = _eval_rows(field, reps[:, dw:]), _eval_rows(field, reps[:, :dw])
    shift_values = _ratio_rows(field, num, den)[rep[:, None], at]
    values = np.empty((len(shifts), q - 1, q), np.int16)
    for u in range(1, q):
        over_u = np.append(_ratio_rows(field, points, np.int16(u)), np.int16(q))
        values[:, u - 1] = over_u[shift_values]
    return orbits.reshape(-1, w), values.reshape(-1, q)


def _scan_block(
    field: Field, s2: int, t2: int, thr_pole: int, thr_nopole: int, workers: int
) -> _Block:
    """Scan one exact-degree block into one row per orbit of its survivors.

    Every orbit of f/g under a*f(x+b)/g(x+b) keeps a representative: f is
    monic, and one shift zeroes f's x^(s2-1) coefficient when p does not
    divide s2.  Otherwise every shift maps the monic numerator block onto
    itself, so the shift zeroes g's x^(t2-1) coefficient instead when p does
    not divide t2.  Either way each orbit has one survivor.  When p divides
    both degrees no coefficient pins the shift, the blocks are scanned
    whole, and all distinct shifts of a survivor survive too: up to q
    survivors share an orbit, and share its least row, which keys the table.
    m, the pole flag and coprimality are orbit invariants.  With f monic,
    a*f(x+b) = f forces a = 1, so the orbit's stabilizer is the shifts that
    fix the row, and the orbit holds q(q-1)/|Stab| fractions.

    The pair scan runs in tiles of at most `_CELL_BUDGET` ratio cells, near
    square when both ranges are long; each tile evaluates its own value
    rows and shifts its own survivors.  v counts the distinct ratios, the
    pole sentinel q left out.
    """
    q, p = field.q, field.p
    fblock = _normalized_num_block(field, s2)
    gblock = _monic_rows(field, t2, t2 - 1 if s2 % p == 0 and t2 % p else t2)
    nf, ng = len(fblock), len(gblock)
    side = max(1, isqrt(_CELL_BUDGET // q))
    fstep = min(nf, max(side, _CELL_BUDGET // (q * ng)))
    gstep = min(ng, max(1, _CELL_BUDGET // (q * fstep)))
    tiles = [(f0, g0) for f0 in range(0, nf, fstep) for g0 in range(0, ng, gstep)]

    def scan_tile(tile: tuple[int, int]) -> tuple[np.ndarray, ...]:
        f, g = fblock[tile[0] : tile[0] + fstep], gblock[tile[1] : tile[1] + gstep]
        fvals, gvals = _eval_rows(field, f), _eval_rows(field, g)
        pole = (gvals == 0).any(axis=1)
        ratio = np.sort(_ratio_rows(field, fvals[:, None], gvals[None]), axis=-1)
        m = q - 1 + pole - (ratio[..., 1:] != ratio[..., :-1]).sum(-1, np.int16)
        fi, gi = np.nonzero(m <= np.where(pole, thr_pole, thr_nopole))
        least, stab = _least_shifts(field, np.hstack([g[gi], f[fi]]), t2 + 1)
        return least, stab, m[fi, gi], pole[gi]

    parts = map_blocks(scan_tile, tiles, workers)
    least, stab, m, pole = map(np.concatenate, zip(*parts))
    order, rises = _row_order(least)
    kept = np.flatnonzero(rises) if order is None else order[rises]
    if s2 > 0 and t2 > 0:
        coprime = [
            gcd(Poly.of(field, r[: t2 + 1]), Poly.of(field, r[t2 + 1 :])).degree == 0
            for r in least[kept].tolist()
        ]
        kept = kept[np.array(coprime, dtype=bool)]
    return _Block(s2, t2, least[kept], m[kept], pole[kept], q * (q - 1) // stab[kept])


#: The blocks scanned so far inside `scanning_once`, by (field, s2, t2),
#: each with the (pole, no-pole) thresholds it was scanned at.
_scanned: ContextVar[Optional[dict]] = ContextVar("_scanned", default=None)


@contextmanager
def scanning_once() -> Iterator[None]:
    """Let each scan inside the block reuse a block table scanned earlier
    inside it at thresholds at least as permissive.  That gives the same
    members, because `_members` filters a table by the query's own
    thresholds.  A command wraps its count and its emit in one block, so
    the emit scans nothing again; no table outlives the block."""
    token = _scanned.set({})
    try:
        yield
    finally:
        _scanned.reset(token)


def _scan_blocks(
    field: Field,
    queries: Sequence[SfpQuery],
    workers: Optional[int] = None,
) -> list[_Block]:
    """Every block that any of the queries might count from."""
    nworkers = resolve_workers(workers)
    smax = max(qq.s + max(qq.a, 0) for qq in queries)
    tmax = max(qq.t + max(qq.b, 0) for qq in queries)
    scanned = _scanned.get()
    if scanned is None:
        scanned = {}
    blocks: list[_Block] = []
    for s2 in range(smax + 1):
        for t2 in range(tmax + 1):
            thr_pole, thr_nopole = _block_thresholds(queries, s2, t2)
            if thr_pole < 0 and thr_nopole < 0:
                continue
            seen = scanned.get((field, s2, t2))
            if seen is None or seen[0] < thr_pole or seen[1] < thr_nopole:
                block = _scan_block(field, s2, t2, thr_pole, thr_nopole, nworkers)
                seen = scanned[field, s2, t2] = (thr_pole, thr_nopole, block)
            blocks.append(seen[2])
    return blocks


def enumerate_fast(query: SfpQuery, workers: Optional[int] = None) -> SfpResult:
    """Same member rows and values as the oracle: the member orbits of the
    scan tables, expanded."""
    F = query.field
    pieces = [
        (b.t2, *_orbit_rows(F, b.rows[_members(b, query)], b.t2 + 1))
        for b in _scan_blocks(F, [query], workers=workers)
    ]
    rows = _pad_rows(query, [(dg, r) for dg, r, _ in pieces])
    values = np.concatenate([v for _, _, v in pieces])
    del pieces
    order = np.lexsort(rows.T[::-1])
    return SfpResult(query, rows[order], values[order])


# -- grid maximization --------------------------------------------------------


@dataclass(frozen=True)
class BestCount:
    """Winning cell of a set of cells, with every cell's member count."""

    query: SfpQuery
    count: int
    cell_counts: tuple[tuple[tuple[int, int, int, int], int], ...]
    elapsed: float

    def manifest(self, tool_version: str = "", argmax: bool = True) -> dict:
        """The JSON manifest `paforge sfp` prints: argmax is the winning
        cell for a grid, null for one named cell."""
        qq = self.query
        return {
            "q": qq.q,
            "variant": qq.variant.value,
            "s": qq.s,
            "t": qq.t,
            "a": qq.a,
            "b": qq.b,
            "count": self.count,
            "argmax": {"s": qq.s, "t": qq.t, "a": qq.a, "b": qq.b} if argmax else None,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "tool_version": tool_version,
        }


def grid_queries(q: int, k: int, variant: Variant) -> list[SfpQuery]:
    """All admissible cells with s + t = k (and the three offset choices)."""
    check_field_range(q)
    F = field_for_order(q)
    top = q - 2 if variant is Variant.Q else q - 3  # q+1 cells need k+1 <= q-2
    if not 0 <= k <= top:
        raise ValueError(f"k = {k} outside [0, {top}] for variant {variant.value}")
    out = []
    for s in range(0, k + 1):
        t = k - s
        if variant is Variant.Q:
            out.append(SfpQuery(F, variant, s, t))
            continue
        for a, b in OFFSET_CHOICES:
            try:
                out.append(SfpQuery(F, variant, s, t, a, b))
            except ValueError:
                continue
    return out


def best_cell(queries: Sequence[SfpQuery], workers: Optional[int] = None) -> BestCount:
    """Count every cell over one shared scan, each the sizes of its member
    orbits summed with no orbit expanded, and pick the largest.

    Ties break toward the smallest s, then the offset order (0,0), (1,-1),
    (-1,1).
    """
    started = time.perf_counter()
    blocks = _scan_blocks(queries[0].field, queries, workers=workers)
    counts = {
        qq: sum(int(b.size[_members(b, qq)].sum()) for b in blocks) for qq in queries
    }

    def rank(qq: SfpQuery) -> tuple[int, int, int]:
        return (-counts[qq], qq.s, OFFSET_CHOICES.index((qq.a, qq.b)))
    best = min(queries, key=rank)
    cells = tuple(((qq.s, qq.t, qq.a, qq.b), counts[qq]) for qq in queries)
    return BestCount(best, counts[best], cells, time.perf_counter() - started)


def best_count(
    q: int, k: int, variant: Variant, workers: Optional[int] = None
) -> BestCount:
    """Maximize the member count over all cells with s + t = k."""
    return best_cell(grid_queries(q, k, variant), workers=workers)


# -- permutation-polynomial baseline ------------------------------------------


@lru_cache(maxsize=None)
def _pp_degree_census(q: int) -> tuple[int, ...]:
    """counts[k] = permutation polynomials of reduced degree exactly k."""
    if q > 8:
        raise ValueError(f"full permutation enumeration infeasible for q = {q}")
    F = field_for_order(q)
    from .poly import interpolate

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
