"""Membership and enumeration for degree-budgeted families of sub-normalized
fractional maps.

A fraction f/g with exact degrees (s', t') and value count v belongs to the
length-q family for budgets (s, t) when s' <= s, t' <= t and
q - v <= min(s - s', t - t');  the length-(q+1) family for (s, t, a, b)
relaxes the bound by one when g has a root (the pole absorbs one collision)
and otherwise shifts the budgets to (s + a, t + b).

The enumerator scans normalized representatives of the orbits of the affine
group a*f(cx+b)/g(cx+b), a and c nonzero: x -> cx+b permutes GF(q), so it
keeps every membership invariant.  Members are canonically sorted
coefficient rows (`SfpResult.rows`): the rows that a brute-force pass over
all coefficient tuples finds, the oracle in `tests/reference.py`.  The scan
keeps one table row per orbit, with the orbit's size (q-1)q(q-1)/|Stab|, so
a cell's count is a sum of orbit sizes (`best_cell`, `best_count`); only
`enumerate_fast` expands the member orbits into rows.  It keeps one value
row per image of a representative, from which `SfpResult.gather` reads a
range of members' values when they are needed.  Inside `scanning_once` a
scan reuses the block tables of an earlier one, so a command that counts
and then emits scans once.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb, isqrt
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import parallel
from .field import DENSE_TABLE_CAP, Field, field_for_order, poly_gcd, prime_power
from .parallel import map_blocks, resolve_workers

#: The supported field orders: what the int16 kernels hold, pole sentinel q
#: included, and for extension fields what the dense tables of `_eval_rows`
#: hold.  `check_field_range` declares both.
MAX_Q = int(np.iinfo(np.int16).max)
MAX_EXT_Q = DENSE_TABLE_CAP

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

    def slack(self, num_deg: float, den_deg: float, has_pole: bool) -> int:
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
    lexicographic row order compares the dens, then the nums.  Member i's
    values are row source[i] // (q - 1) of `images`, divided by the unit
    source[i] % (q - 1) + 1 (`gather`, which reads only those two); `source`
    is int32 below 2^31 members.
    """

    query: SfpQuery
    rows: np.ndarray
    source: np.ndarray
    images: np.ndarray

    @property
    def count(self) -> int:
        return len(self.rows)

    def gather(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Members start..stop-1's values at every point of GF(q), q at the
        poles."""
        return _gather(self.query.field, self.images, self.source, start, stop)


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


# -- fast scan: affine-normalized representatives + orbit expansion ----------


class _Block(NamedTuple):
    """The scanned orbits of one exact-degree block, one row per orbit.

    Each row is the least (den||num) row, f and g monic, of the orbit's part
    of the scanned set (`_scan_block`); m (= q - v) and the pole flag are
    orbit invariants, and size is the number of fractions in the orbit
    under a*f(cx+b)/g(cx+b), (q-1) q(q-1)/|Stab|.
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


def _canonical_rows(field: Field, deg: int, free: int) -> np.ndarray:
    """x^deg, then the rows of `_monic_rows(field, deg, free)` whose top
    nonzero coefficient below x^deg, at x^j, has a discrete log below
    gcd(deg - j, q - 1).  The scale x -> cx, made monic, multiplies that
    coefficient by c^(j - deg), which moves its log by every multiple of the
    gcd, so some scale brings every row with its top coefficient at x^j in."""
    pieces = [_monic_rows(field, deg, 0)]
    for j in range(free):
        low, d = _monic_rows(field, deg, j), int(np.gcd(deg - j, field.q - 1))
        rows = np.repeat(low, d, axis=0)
        rows[:, j] = np.tile(field._exp[:d], len(low))
        pieces.append(rows)
    return np.concatenate(pieces)


def _eval_rows(field: Field, coeffs: np.ndarray) -> np.ndarray:
    """Values of each coefficient row at every field element, shape (N, q).

    The one kernel that forks on the field kind, because each side wins
    where it runs (2-vCPU VM, numpy 2.4): on prime fields a Vandermonde
    matmul mod p beats table Horner, 0.77 s against 5.1 s on all 2.48M
    monic rows of degree 5 over GF(19) in blocks of 2^17 rows (a kernel
    timing: the scan keys far fewer); on extension fields table Horner beats
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
        step = max(1, parallel.TILE_CELLS // q)
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


def _degree_gaps(width: int, dw: int) -> np.ndarray:
    """D - j for each column of a (den||num) row: coefficient j of its
    polynomial of degree D.  The two leading columns have gap 0."""
    return np.r_[np.arange(dw - 1, -1, -1), np.arange(width - dw - 1, -1, -1)]


def _scaled(field: Field, rows: np.ndarray, dw: int, logs: np.ndarray) -> np.ndarray:
    """Each (den||num) row under x -> cx, f and g kept monic, for each
    c = g^L in `logs` (shape (..., K), broadcast against the rows): shape
    (..., K, width).  Coefficient j of a degree-D polynomial becomes
    a_j / c^(D - j)."""
    n, T = field.q - 1, _div_tables(field)[2]
    powers = T[logs[..., None] * _degree_gaps(rows.shape[-1], dw) % n]
    return _ratio_rows(field, rows[..., None, :], powers)


def _least_images(
    field: Field, rows: np.ndarray, dw: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each (den||num) row's table key, and how many of the maps x -> cx + b
    that bring it into the scanned set give that key: |Stab|.

    The maps are the one shift that zeroes the pinned coefficient (all q
    shifts when p divides both degrees), each followed by the scales that
    make the canonical coefficient canonical.  That coefficient is the top
    nonzero one below the leading one, of f, or of g when f = x^s2: at x^j
    of degree D, with log l and d = gcd(D - j, q - 1).  Scaling by c = g^L
    sends l to l - (D - j)L mod q - 1, which is below d for exactly the d
    logs L with (D - j)L = l - l mod d; the K columns of logs past d stand
    for no map.  With no such coefficient the row is x^s2 over x^t2, fixed
    by every scale: its one log, 0, stands for all q - 1.  The maps send
    the row onto every member of its orbit's part of the scanned set, so
    the key is that part's least row, the same for every survivor of the
    orbit, and the maps that give it are one coset of the stabilizer.
    """
    p, n, w = field.p, field.q - 1, rows.shape[1]
    s2, t2 = w - dw - 1, dw - 1
    if s2 % p or t2 % p:
        pin, deg = (w - 2, s2) if s2 % p else (dw - 2, t2)
        # coefficient deg - 1 of P(x + b) is a_(deg-1) + deg*b; a scanned row
        # has it zero already, so only other rows are shifted
        beta = _ratio_rows(field, rows[:, pin], np.int16(-deg % p))
        moved = np.flatnonzero(beta)
        shifted = rows.copy()
        moves = _shifted(field, rows[moved], dw)
        shifted[moved] = moves[np.arange(len(moved)), beta[moved]]
        shifted = shifted[:, None]
    else:
        shifted = _shifted(field, rows, dw)
    gaps = _degree_gaps(w, dw)
    cols = np.array([*range(w - 2, dw - 1, -1), *range(dw - 2, -1, -1), w - 1])
    col = cols[(shifted[..., cols] != 0).argmax(axis=-1)]  # w - 1: none nonzero
    gap, coef = gaps[col], np.take_along_axis(shifted, col[..., None], -1)[..., 0]
    d = np.gcd(gap, n)
    # x/gcd(x, n) is a unit mod n/gcd(x, n): L = (l // d) inv[D - j] mod n/d
    gcds = np.gcd(np.arange(w), n).tolist()
    inv = np.array([pow(x // e, -1, n // e) for x, e in enumerate(gcds)])
    base = _div_tables(field)[0][coef] // d * inv[gap] % (n // d)
    i = np.arange(np.gcd(gaps, n, where=gaps > 0, out=np.ones_like(gaps)).max())
    moving, k = gap[..., None] > 0, shifted.shape[1] * len(i)
    logs = np.where(moving, base[..., None] + i * (n // d)[..., None], 0)
    count = np.where(moving, i < d[..., None], np.where(i == 0, n, 0))
    count = count.reshape(len(rows), k)
    images = _scaled(field, shifted, dw, logs).reshape(len(rows), k, w)
    images[count == 0] = np.iinfo(np.int16).max
    first = np.lexsort(images.transpose(2, 0, 1)[::-1])[:, 0]
    least = images[np.arange(len(rows)), first]
    return least, (count * (images == least[:, None, :]).all(axis=2)).sum(axis=1)


def _lex_order(arr: np.ndarray) -> np.ndarray:
    """np.lexsort of the rows of arr, as int32 indices below 2^31 rows."""
    return np.lexsort(arr.T[::-1]).astype(np.int32 if len(arr) < 1 << 31 else np.intp)


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """First indices of the distinct rows, in lexicographic order (lexsort is stable)."""
    order = _lex_order(rows)
    srt = rows[order]
    return order[np.r_[True, (srt[1:] != srt[:-1]).any(axis=1)][: len(rows)]]  # none of none


def _orbit_rows(
    field: Field, reps: np.ndarray, dw: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every fraction in the orbits of reps, (den||num) rows with f and g
    monic and one per orbit, and one value row per image: each distinct
    image of a representative under x -> cx + b, its numerator scaled by
    every unit, image-major and unit-minor.  Orbits are disjoint, and a
    monic numerator tells its scales apart, so the rows are distinct.

    The values are gathered, not evaluated.  The image under x -> cx + b of
    a representative with values V is f(cx + b)/c^s2 over g(cx + b)/c^t2,
    with the value V[cx + b] c^(t2 - s2) at x; its numerator divided by
    u c^(t2 - s2) has the value V[cx + b] / u (`_gather`), and the pole
    sentinel q stays q.  The value row returned is V[cx + b], unit 1's.
    """
    q, n, w = field.q, field.q - 1, reps.shape[1]
    shifted = _shifted(field, reps, dw).reshape(-1, w)
    shift = _first_rows(shifted)
    scaled = _scaled(field, shifted[shift], dw, np.arange(n)).reshape(-1, w)
    kept = _first_rows(scaled)
    image, log_c = np.divmod(kept, n)  # scaled row i*n + L is image i under g^L
    rep, beta = np.divmod(shift[image], q)  # shifted row r*q + beta: rep r, beta
    T = _div_tables(field)[2]
    units = np.arange(1, q, dtype=np.int16)
    divisor = _ratio_rows(field, units, T[log_c * (w - 2 * dw) % n][:, None])
    orbits = np.repeat(scaled[kept][:, None, :], n, axis=1)  # (images, q-1, w)
    orbits[..., dw:] = _ratio_rows(field, orbits[..., dw:], divisor[..., None])
    at = _eval_rows(field, np.stack([beta, T[log_c]], 1).astype(np.int16))  # cx + beta
    num, den = _eval_rows(field, reps[:, dw:]), _eval_rows(field, reps[:, :dw])
    return orbits.reshape(-1, w), _ratio_rows(field, num, den)[rep[:, None], at]


@lru_cache(maxsize=None)
def _unit_quotients(field: Field) -> np.ndarray:
    """Row u - 1 maps each value v of GF(q) to v / u, and the pole
    sentinel q to q."""
    q = field.q
    points = np.arange(q, dtype=np.int16)
    quotients = _ratio_rows(field, points, np.arange(1, q, dtype=np.int16)[:, None])
    return np.hstack([quotients, np.full((q - 1, 1), q, np.int16)])


def _gather(
    field: Field, images: np.ndarray, source: np.ndarray, start: int = 0, stop: Optional[int] = None
) -> np.ndarray:
    """The value rows of the members at source[start:stop]: member i of an
    `_orbit_rows` expansion is image i // (q - 1)'s value row divided by the
    unit i % (q - 1) + 1."""
    image, unit = np.divmod(source[start:stop], field.q - 1)
    return _unit_quotients(field)[unit[:, None], images[image]]


def _scan_block(
    field: Field, s2: int, t2: int, thr_pole: int, thr_nopole: int, workers: int
) -> _Block:
    """Scan one exact-degree block into one row per orbit of its survivors.

    The group is f/g -> a f(cx + b)/g(cx + b), a and c nonzero: x -> cx + b
    permutes GF(q), so m, the pole flag and coprimality are orbit
    invariants.  With f monic, one shift zeroes f's x^(s2-1) coefficient
    when p does not divide s2; otherwise every shift maps the monic
    numerators onto themselves, and one shift zeroes g's x^(t2-1)
    coefficient when p does not divide t2; when p divides both degrees,
    nothing pins the shift.  A scale x -> cx keeps the pinned coefficient
    zero and brings the canonical coefficient (the top nonzero one below
    the leading one, of f, or of g when f = x^s2) to a discrete log below
    gcd(D - j, q - 1) (`_canonical_rows`).  So two rectangles reach every
    orbit: the canonical numerators but x^s2 with every denominator, and
    x^s2 with the canonical denominators, x^t2 among them.

    A survivor's key is its least image under the maps that bring it back
    into this set (`_least_images`), so every survivor of an orbit has the
    same key.  With f monic, a map x -> cx + b fixes the fraction for at
    most one a, so Stab is the maps x -> cx + b that fix the monic pair;
    those that take a survivor to its key are one coset of it, and the
    orbit holds (q-1) q(q-1)/|Stab| fractions.

    The pair scan runs in tiles of at most TILE_CELLS ratio cells (27,594
    pairs at q = 19), near square when both ranges are long; each tile
    evaluates its own value rows and keys its own survivors.  v counts the
    distinct ratios, the pole sentinel q left out.
    """
    q, p = field.q, field.p
    ffree = s2 - 1 if s2 % p else s2
    gfree = t2 - 1 if s2 % p == 0 and t2 % p else t2
    fblock = _canonical_rows(field, s2, ffree)
    if len(fblock) > 1:
        gmonic = _monic_rows(field, t2, gfree)
    else:  # x^s2 is the only numerator: the first rectangle is empty
        gmonic = np.empty((0, t2 + 1), np.int16)
    gblock = np.concatenate([gmonic, _canonical_rows(field, t2, gfree)])
    ng = len(gmonic)
    rects = [(1, len(fblock), 0, ng), (0, 1, ng, len(gblock))]  # row ranges
    side = max(1, isqrt(parallel.TILE_CELLS // q))
    tiles = []
    for f0, f1, g0, g1 in rects:
        if f1 > f0:
            fstep = min(f1 - f0, max(side, parallel.TILE_CELLS // (q * (g1 - g0))))
            gstep = min(g1 - g0, max(1, parallel.TILE_CELLS // (q * fstep)))
            tiles += [
                ((f, min(f + fstep, f1)), (g, min(g + gstep, g1)))
                for f in range(f0, f1, fstep)
                for g in range(g0, g1, gstep)
            ]

    def scan_tile(tile: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
        (f0, f1), (g0, g1) = tile
        f, g = fblock[f0:f1], gblock[g0:g1]
        fvals, gvals = _eval_rows(field, f), _eval_rows(field, g)
        pole = (gvals == 0).any(axis=1)
        ratio = np.sort(_ratio_rows(field, fvals[:, None], gvals[None]), axis=-1)
        m = q - 1 + pole - (ratio[..., 1:] != ratio[..., :-1]).sum(-1, np.int16)
        fi, gi = np.nonzero(m <= np.where(pole, thr_pole, thr_nopole))
        least, stab = _least_images(field, np.hstack([g[gi], f[fi]]), t2 + 1)
        return least, stab, m[fi, gi], pole[gi]

    # a block whose pairs fit one scan buffer is not worth a thread pool
    cells = q * sum((f1 - f0) * (g1 - g0) for f0, f1, g0, g1 in rects if f1 > f0)
    parts = map_blocks(scan_tile, tiles, workers if cells > parallel.TILE_CELLS else 1)
    least, stab, m, pole = map(np.concatenate, zip(*parts))
    kept = _first_rows(least)
    if s2 > 0 and t2 > 0:
        coprime = [
            len(poly_gcd(field, r[: t2 + 1], r[t2 + 1 :])) == 1 for r in least[kept].tolist()
        ]
        kept = kept[np.array(coprime, dtype=bool)]
    size = (q - 1) * q * (q - 1) // stab[kept]
    return _Block(s2, t2, least[kept], m[kept], pole[kept], size)


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
    scan tables, expanded.  Each block expands into whole images of q - 1
    members, so member i of the blocks in turn is member i of one expansion
    over all their images; the sort keeps each member's place in it."""
    F = query.field
    pieces = [
        (b.t2, *_orbit_rows(F, b.rows[_members(b, query)], b.t2 + 1))
        for b in _scan_blocks(F, [query], workers=workers)
    ]
    rows = _pad_rows(query, [(dg, r) for dg, r, _ in pieces])
    images = np.concatenate([v for _, _, v in pieces])
    del pieces
    order = _lex_order(rows)
    return SfpResult(query, rows[order], order, images)


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
    (-1,1); explicit offsets outside OFFSET_CHOICES rank after those.
    """
    started = time.perf_counter()
    blocks = _scan_blocks(queries[0].field, queries, workers=workers)
    counts = {
        qq: sum(int(b.size[_members(b, qq)].sum()) for b in blocks) for qq in queries
    }

    ties = {offsets: i for i, offsets in enumerate(OFFSET_CHOICES)}

    def rank(qq: SfpQuery) -> tuple[int, int, int]:
        return (-counts[qq], qq.s, ties.get((qq.a, qq.b), len(ties)))
    best = min(queries, key=rank)
    cells = tuple(((qq.s, qq.t, qq.a, qq.b), counts[qq]) for qq in queries)
    return BestCount(best, counts[best], cells, time.perf_counter() - started)


def best_count(
    q: int, k: int, variant: Variant, workers: Optional[int] = None
) -> BestCount:
    """Maximize the member count over all cells with s + t = k."""
    return best_cell(grid_queries(q, k, variant), workers=workers)

