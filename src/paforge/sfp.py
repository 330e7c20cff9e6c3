"""Membership and enumeration for degree-budgeted families of sub-normalized
fractional maps.

A fraction f/g with exact degrees (s', t') and value count v belongs to the
length-q family for budgets (s, t) when s' <= s, t' <= t and
q - v <= min(s - s', t - t');  the length-(q+1) family for (s, t, a, b)
relaxes the bound by one when g has a root (the pole absorbs one collision)
and otherwise shifts the budgets to (s + a, t + b).

Two enumerators are provided: a brute-force oracle over all coefficient
tuples, and a fast scan that visits one normalized representative per
scale-and-shift orbit and expands orbits by linear coefficient transforms.
Both return the same canonically sorted coefficient rows (`SfpResult.rows`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb
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
_CHUNK_PAIR_BUDGET = 1 << 19
#: Rows per int64 product on the prime-field side of `_eval_rows`, the one
#: field fork (10 MB at q = 19); the extension side works on int16 tables.
_EVAL_CHUNK_ROWS = 1 << 16

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
    lexicographic row order is `FracPoly.sort_key` order.
    """

    query: SfpQuery
    rows: np.ndarray
    elapsed: float

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

    def values(self) -> np.ndarray:
        """Each member's value at every point of GF(q), q at the poles."""
        F = self.query.field
        dw, _ = _row_widths(self.query)
        coeffs = np.maximum(self.rows, 0)  # padding evaluates as zero coefficients
        num, den = coeffs[:, dw:], coeffs[:, :dw]
        return _ratio_rows(F, _eval_rows(F, num), _eval_rows(F, den))

    def manifest(self, tool_version: str = "") -> dict:
        return _manifest(self.query, self.count, None, self.elapsed, tool_version)


def _manifest(
    qq: SfpQuery, count: int, argmax: Optional[dict], elapsed: float, tool_version: str
) -> dict:
    """The JSON manifest `paforge sfp` prints for one cell or one grid."""
    return {
        "q": qq.q,
        "variant": qq.variant.value,
        "s": qq.s,
        "t": qq.t,
        "a": qq.a,
        "b": qq.b,
        "count": count,
        "argmax": argmax,
        "elapsed_ms": round(elapsed * 1000.0, 3),
        "tool_version": tool_version,
    }


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
    started = time.perf_counter()
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
    return SfpResult(query, rows, time.perf_counter() - started)


# -- fast scan: normalized representatives + orbit expansion -----------------


class _Block(NamedTuple):
    """The scanned orbits of one exact-degree block, one row per fraction.

    m (= q - v) and the pole flag are orbit invariants; each row carries
    those of the survivor its orbit was expanded from.
    """

    s2: int
    t2: int
    rows: np.ndarray  # (fractions, t2+1 + s2+1) int16, den first, sorted
    m: np.ndarray
    pole: np.ndarray


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
        vand = np.empty((d, q), dtype=np.int64)
        for i in range(d):
            vand[i] = [pow(alpha, i, p) for alpha in range(q)]
        vals = np.empty((coeffs.shape[0], q), dtype=np.int16)
        for lo in range(0, len(coeffs), _EVAL_CHUNK_ROWS):
            prod = coeffs[lo : lo + _EVAL_CHUNK_ROWS].astype(np.int64) @ vand
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
    return T[A[fvals] + B[gvals]]


def _shifted(field: Field, c: np.ndarray) -> np.ndarray:
    """Every shift c(x+beta) of every coefficient row, shape (N, q, width).

    Coefficient i of c(x+beta) is the i-th Hasse derivative
    sum_m C(m+i, i) c_{m+i} x^m at beta, so one `_eval_rows` call shifts
    every row by every beta.  C(m+i, i) mod p lies in the prime field, and
    multiplying by it is dividing by its inverse.
    """
    n, width = c.shape
    i, m = np.indices((width, width))
    binom = np.where(m + i < width, np.vectorize(comb)(m + i, i) % field.p, 0)
    inv = np.array([1] + [field.inv(b) for b in range(1, field.p)], dtype=np.int16)
    taps = np.where(binom > 0, c[:, np.minimum(m + i, width - 1)], 0).astype(np.int16)
    hasse = _ratio_rows(field, taps, inv[binom])
    return _eval_rows(field, hasse.reshape(n * width, width)).reshape(
        n, width, field.q
    ).transpose(0, 2, 1)


def _expand_orbit_rows(
    field: Field, fc: np.ndarray, gc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, src): the orbits of the fractions fc/gc (monic rows) as sorted,
    distinct (den||num) rows, and for each row the fraction it came from.

    Monic numerators force the scale 1 between fractions of one orbit, so
    fractions in one orbit are shifts of each other and share their least
    row over the q shifts; only the first fraction with each least row is
    scaled by every unit.  Both dedupes keep each distinct row's first
    occurrence, in lexicographic order; the last drops stabilizer repeats.
    """
    q, dw = field.q, gc.shape[1]
    shifted = np.concatenate([_shifted(field, gc), _shifted(field, fc)], axis=2)
    least = np.lexsort(shifted.transpose(2, 0, 1)[::-1])[:, 0]
    order, rises = _row_order(shifted[np.arange(len(shifted)), least])
    kept = np.flatnonzero(rises) if order is None else order[rises]
    orbits = np.repeat(shifted[kept, :, None], q - 1, axis=2)  # (kept, q, q-1, w)
    units = np.arange(1, q, dtype=np.int16)[:, None]
    orbits[..., dw:] = _ratio_rows(field, orbits[..., dw:], units)
    rows = orbits.reshape(-1, shifted.shape[2])
    order, rises = _row_order(rows)
    first = np.flatnonzero(rises) if order is None else order[rises]
    return rows[first], kept[first // (q * (q - 1))]


def _distinct_counts(ratios: np.ndarray) -> np.ndarray:
    """Distinct entries per row (sentinel counted like any other value)."""
    srt = np.sort(ratios, axis=-1)
    return (srt[..., 1:] != srt[..., :-1]).sum(axis=-1).astype(np.int32) + 1


def _tuple_gcd_is_one(field: Field, fc: Sequence[int], gc: Sequence[int]) -> bool:
    f = Poly(field, tuple(int(c) for c in fc))
    g = Poly(field, tuple(int(c) for c in gc))
    return gcd(f, g).degree == 0


def _scan_block(
    field: Field,
    s2: int,
    t2: int,
    thr_pole: int,
    thr_nopole: int,
    workers: int,
) -> _Block:
    """Scan one exact-degree block; its rows are the orbits of its survivors.

    Every orbit of f/g under a*f(x+b)/g(x+b) keeps a representative: f is
    monic, and one shift zeroes f's x^(s2-1) coefficient when p does not
    divide s2.  Otherwise every shift maps the monic numerator block onto
    itself, so the shift zeroes g's x^(t2-1) coefficient instead when p does
    not divide t2.  Either way each orbit has one survivor.  When p divides
    both degrees no coefficient pins the shift, the blocks are scanned
    whole, and all distinct shifts of a survivor survive too: up to q
    survivors share an orbit, and `_expand_orbit_rows` expands only the
    first.  m and the pole flag are orbit invariants, so the rows do not
    depend on which survivor is expanded.
    """
    q, p = field.q, field.p
    fblock = _normalized_num_block(field, s2)
    gblock = _monic_rows(field, t2, t2 - 1 if s2 % p == 0 and t2 % p else t2)
    fvals = _eval_rows(field, fblock)
    gvals = _eval_rows(field, gblock)
    pole = (gvals == 0).any(axis=1)

    nf = len(fblock)
    chunk = max(1, _CHUNK_PAIR_BUDGET // max(nf, 1))
    bounds = [(lo, min(lo + chunk, len(gblock))) for lo in range(0, len(gblock), chunk)]

    def scan_range(bound: tuple[int, int]) -> tuple[np.ndarray, ...]:
        lo, hi = bound
        ratio = _ratio_rows(field, fvals[:, None, :], gvals[None, lo:hi, :])
        m = q - (_distinct_counts(ratio) - pole[None, lo:hi])
        fi, gi = np.nonzero(m <= np.where(pole[None, lo:hi], thr_pole, thr_nopole))
        return fi, gi + lo, m[fi, gi]

    fi, gi, m = map(np.concatenate, zip(*map_blocks(scan_range, bounds, workers)))
    if s2 > 0 and t2 > 0:
        coprime = [_tuple_gcd_is_one(field, fblock[f], gblock[g]) for f, g in zip(fi, gi)]
        fi, gi, m = fi[coprime], gi[coprime], m[coprime]
    rows, src = _expand_orbit_rows(field, fblock[fi], gblock[gi])
    return _Block(s2, t2, rows, m[src], pole[gi[src]])


def _scan_blocks(
    field: Field,
    queries: Sequence[SfpQuery],
    workers: Optional[int] = None,
) -> list[_Block]:
    """Every block that any of the queries might count from."""
    nworkers = resolve_workers(workers)
    smax = max(qq.s + max(qq.a, 0) for qq in queries)
    tmax = max(qq.t + max(qq.b, 0) for qq in queries)
    blocks: list[_Block] = []
    for s2 in range(smax + 1):
        for t2 in range(tmax + 1):
            thr_pole, thr_nopole = _block_thresholds(queries, s2, t2)
            if thr_pole < 0 and thr_nopole < 0:
                continue
            blocks.append(_scan_block(field, s2, t2, thr_pole, thr_nopole, nworkers))
    return blocks


def enumerate_fast(query: SfpQuery, workers: Optional[int] = None) -> SfpResult:
    """Same member rows as the oracle, via normalized representatives."""
    started = time.perf_counter()
    blocks = _scan_blocks(query.field, [query], workers=workers)
    rows = _pad_rows(query, [(b.t2, b.rows[_members(b, query)]) for b in blocks])
    rows = rows[np.lexsort(rows.T[::-1])]
    return SfpResult(query, rows, time.perf_counter() - started)


# -- grid maximization --------------------------------------------------------


@dataclass(frozen=True)
class BestCount:
    """Winning cell of a fixed-budget-total maximization."""

    query: SfpQuery
    count: int
    cell_counts: tuple[tuple[tuple[int, int, int, int], int], ...]
    elapsed: float

    def manifest(self, tool_version: str = "") -> dict:
        qq = self.query
        argmax = {"s": qq.s, "t": qq.t, "a": qq.a, "b": qq.b}
        return _manifest(qq, self.count, argmax, self.elapsed, tool_version)


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


def best_count(
    q: int, k: int, variant: Variant, workers: Optional[int] = None
) -> BestCount:
    """Maximize the member count over all cells with s + t = k.

    Ties break toward the smallest s, then the offset order (0,0), (1,-1),
    (-1,1).
    """
    started = time.perf_counter()
    queries = grid_queries(q, k, variant)
    field = queries[0].field
    blocks = _scan_blocks(field, queries, workers=workers)
    counts = {
        qq: sum(int(np.count_nonzero(_members(b, qq))) for b in blocks)
        for qq in queries
    }
    def rank(qq: SfpQuery) -> tuple[int, int, int]:
        return (-counts[qq], qq.s, OFFSET_CHOICES.index((qq.a, qq.b)))
    best = min(queries, key=rank)
    cells = tuple(
        ((qq.s, qq.t, qq.a, qq.b), counts[qq]) for qq in queries
    )
    return BestCount(best, counts[best], cells, time.perf_counter() - started)


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
