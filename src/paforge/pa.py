"""Permutation arrays: minimum-distance verification and the on-disk array
format."""

from __future__ import annotations

import io
import itertools
import json
import os
import stat
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from . import parallel
from .parallel import map_blocks, resolve_workers

Permutation = tuple[int, ...]

#: Largest supported degree: every point of a row fits in a uint16.
MAX_DEGREE = 1 << 16
#: Most rows x points cells that one emit lists, and that `read_pa` reads.
#: Both emits stream their rows, so their peaks do not grow with the array:
#: an `sfp` emit keeps one 8-byte hash a row (q = 509, k = 1: 131.6M cells,
#: 44.9 MB), a group emit only its last row (sym(10): 36.3M cells, 32.9
#: MB; M23: 234.6M cells, 33.3 MB).  31 MB of each is the import.  The cap
#: admits the M23 array of the published bounds.
EMIT_CELL_CAP = 1 << 28
FULL_PAIR_CAP = 10**10
DEFAULT_SAMPLE_PAIRS = 10**6
SAMPLED_NOTE = "sampled check: evidence only, not an exhaustive proof"


def identity(n: int) -> Permutation:
    return tuple(range(n))


def row_dtype(n: int) -> type:
    """Smallest unsigned dtype that holds the points 0..n-1 of a row; a
    ValueError above MAX_DEGREE."""
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the limit {MAX_DEGREE}")
    return np.uint8 if n <= 256 else np.uint16


def _narrowed(rows: np.ndarray, n: int) -> np.ndarray:
    """rows as C-ordered row_dtype(n), checked first to be rows of n
    integers in [0, n): narrowing first would wrap 256 to 0.  Rows that
    already have that dtype and layout are returned as they are; any other
    input is copied."""
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"rows of shape {rows.shape}, expected length {n}")
    if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"points must be integers in [0, {n})")
    return np.asarray(rows, dtype=row_dtype(n), order="C")


def _permutation_check(n: int, m: int) -> Callable[[np.ndarray], bool]:
    """A check of blocks of up to m rows of n points in [0, n): whether each
    row holds every point once.  Row i of a step marks cell i*n + x for each
    entry x; n marks cover the row only when no point repeats.  A step holds
    BLOCK_CELLS/8 cells, or one wider row, so its int64 cell indices and
    marks, made once for every block, take 0.3 to 0.6 MiB at any degree."""
    step = max(1, parallel.BLOCK_CELLS // 8 // n)
    offsets = np.arange(0, min(m, step) * n, n)[:, None]
    index, seen = np.empty((len(offsets), n), np.intp), np.empty(len(offsets) * n, bool)

    def check(arr: np.ndarray) -> bool:
        for start in range(0, len(arr), step):
            block = arr[start : start + step]
            cells, at = seen[: block.size], index[: len(block)]
            cells[:] = False
            cells[np.add(block, offsets[: len(block)], out=at).ravel()] = True
            if not cells.all():
                return False
        return True

    return check


def _sorted_keys(rows: np.ndarray) -> np.ndarray:
    """One bytes key per row that compares as unsigned points do under
    lexsort: the points big-endian (`S` drops trailing NULs, which keeps the
    order of keys of one length).  A C-ordered uint8 block is a view."""
    big = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return big.view(f"S{big.itemsize * big.shape[1]}").ravel()


def _compare_rows(later: np.ndarray, earlier: np.ndarray) -> int:
    """-1 when a row of later is below its row of earlier as their bytes
    keys compare (`_sorted_keys`), else 0 when one equals it, else 1."""
    above, below = _sorted_keys(later), _sorted_keys(earlier)
    if (above < below).any():
        return -1
    return 0 if (above == below).any() else 1


def _hash_weights(n: int) -> np.ndarray:
    """n odd uint64 weights: splitmix64's first n outputs from state 0, made
    with no import of numpy.random (5 MB of RSS)."""
    x = np.arange(1, n + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31) | 1


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """One uint64 a row, equal for equal rows: the points dotted with n odd
    weights (`_hash_weights`) modulo 2^64, the rows widened to uint64
    BLOCK_CELLS/8 cells, or one wider row, at a time (0.25 MiB)."""
    m, n = rows.shape
    weights, hashes = _hash_weights(n), np.empty(m, np.uint64)
    step = max(1, parallel.BLOCK_CELLS // 8 // n)
    for lo in range(0, m, step):
        np.dot(rows[lo : lo + step].astype(np.uint64), weights, out=hashes[lo : lo + step])
    return hashes


def _distinct(arr: np.ndarray) -> bool:
    """Whether the rows of arr are pairwise distinct.  Rows that rise, as
    group arrays do, are compared with their neighbours a block at a time
    (`_compare_rows`), with no index.  Past a row below the one before it,
    the rows' hashes (`_row_hashes`) are sorted in place: equal rows hash
    alike, so only rows that share a hash are compared in full."""
    step = max(1, parallel.BLOCK_CELLS // arr.shape[1])
    blocks = (arr[lo : lo + step + 1] for lo in range(0, len(arr) - 1, step))
    rise = next((r for r in (_compare_rows(b[1:], b[:-1]) for b in blocks) if r < 1), 1)
    if rise >= 0:  # the rows rise, or two neighbours are equal
        return bool(rise)
    return _hashes_distinct(_row_hashes(arr), [arr])


def _hashes_distinct(hashes: np.ndarray, blocks: Iterable[np.ndarray]) -> bool:
    """Whether the rows that blocks lists, whose hashes (`_row_hashes`) are
    `hashes`, are pairwise distinct.  The hashes are sorted in place: equal
    rows hash alike, so only rows that share a hash are compared in full,
    and blocks is iterated only when some do."""
    hashes.sort()
    shared = hashes[1:][hashes[1:] == hashes[:-1]]
    if not len(shared):
        return True
    tied = np.concatenate([block[np.isin(_row_hashes(block), shared)] for block in blocks])
    return len(np.unique(tied, axis=0)) == len(tied)


class PermArray:
    """A set of permutations of n points with a claimed minimum distance.

    Point n-1 encodes the extra symbol of length-(q+1) constructions when
    `infinity` is set; rows are stored as a dense row_dtype(n) matrix and
    are required to be pairwise distinct (`_distinct`).  An array over
    EMIT_CELL_CAP cells is refused before anything is copied, so M <= 2^28.
    An input that already has that dtype in C order is kept, not copied:
    `rows` is a read-only view of it, so the caller's array stays writable
    and must not be written after.  Any other input is checked and copied.

    An array made by `streamed` holds no rows until `rows` is first read,
    which fills one buffer from its producer (`_filled`) and checks it as
    above; `write_pa` of it writes the producer's blocks as they are checked
    (`_checked_stream`).  `rows` must be read before any worker thread
    reads it.
    """

    def __init__(
        self,
        rows: Union[np.ndarray, Iterable[Sequence[int]]],
        claimed_distance: int,
        provenance: str = "",
        infinity: bool = False,
    ) -> None:
        arr = np.asarray(rows)
        if arr.ndim != 2:
            raise ValueError("rows must form a 2-D array")
        self._start(*arr.shape, claimed_distance, provenance, infinity)
        self._blocks, self._rows = None, self._checked(_narrowed(arr, self.n))

    @classmethod
    def streamed(
        cls,
        blocks: Callable[[], Iterable[np.ndarray]],
        m: int,
        n: int,
        claimed_distance: int,
        provenance: str = "",
        infinity: bool = False,
    ) -> PermArray:
        """The array of the m rows of n points that blocks() lists in
        blocks, the same rows at every call.  It is called when `rows` is
        first read, for each write before that, and once more by a write
        whose rows share a hash (`_checked_stream`)."""
        pa = cls.__new__(cls)
        pa._start(m, n, claimed_distance, provenance, infinity)
        pa._blocks, pa._rows = blocks, None
        return pa

    def _start(self, m: int, n: int, d: int, provenance: str, infinity: bool) -> None:
        if m * n > EMIT_CELL_CAP:
            raise ValueError(f"{m} rows of {n} points exceed the cell cap {EMIT_CELL_CAP}")
        if not (1 <= d <= n):
            raise ValueError(f"claimed distance {d} not in [1, {n}]")
        self.M, self.n, self.claimed_distance = m, n, d
        self.provenance, self.infinity = provenance, infinity

    def _checked(self, arr: np.ndarray) -> np.ndarray:
        """arr, the rows narrowed (`_narrowed`), as a read-only view once
        they are checked to be distinct permutations."""
        arr = arr.view()
        arr.setflags(write=False)
        if not _permutation_check(self.n, self.M)(arr):
            raise ValueError("some row is not a permutation")
        if not _distinct(arr):
            raise ValueError("rows must be pairwise distinct")
        return arr

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = self._checked(_filled(self._blocks(), self.n, self.M))
            self._blocks = None
        return self._rows

    def __len__(self) -> int:
        return self.M

    def __repr__(self) -> str:
        return f"PermArray(n={self.n}, M={self.M}, d={self.claimed_distance})"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a distance check.

    FULL is a proof, by one tiled scan of the pairs of each orbit
    representative under checked isometries (every row, when none passes),
    and pairs_checked counts the pairs that the proof covers:
    with a passing result every pair, and min_observed is the true minimum;
    a failing FULL check stops at the first violating pair in index order.
    SAMPLED results are evidence only.
    """

    mode: str
    pairs_checked: int
    min_observed: int
    witness: tuple[int, int]
    passed: bool
    claimed_distance: int
    note: str = ""

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "min_observed": self.min_observed,
            "witness": list(self.witness),
            "pass": self.passed,
            "claimed_distance": self.claimed_distance,
        }
        if self.note:
            payload["note"] = self.note
        return json.dumps(payload)


# The FULL scan pairs each orbit representative with the rows after it in
# representative order, in tiles: a band of _TILE_ROWS representatives
# against a block of columns, TILE_CELLS cells in all.
_TILE_ROWS = 64


def _scan_pairs(
    pa: PermArray, claimed: int, reps: np.ndarray, workers: Optional[int]
) -> tuple[int, tuple[int, int], bool]:
    """Exact tiled scan of the pairs (r, j) of a row r of the ascending
    `reps` and a row j with rank[j] > rank[r], where rank is a row's place
    in `reps` and M for any other row: (distance, witness, violated).

    With reps = arange(M) these are all pairs r < j.  With no such pair
    closer than `claimed` (always so for 0) this is their least distance and
    the lex-first pair reaching it; otherwise the lex-first pair closer than
    `claimed` and its distance.  A tile holds agreement + 1 per pair, summed
    column by column over the column-major rows, so masked pairs hold 0 and
    never tie a real pair.  Distinct rows agree in at most n - 2 points, so
    row_dtype(n) holds it (a masked self pair may wrap before the mask
    zeroes it).  Only columns up to a band's last row can be masked, by
    an int32 rank (M <= 2^28, `PermArray`).
    """
    n, M, k = pa.n, pa.M, len(reps)
    cols = np.ascontiguousarray(pa.rows.T)
    dtype = row_dtype(n)
    limit = n + 1 - claimed
    rank = np.full(M, M, np.int32)
    rank[reps] = np.arange(k)
    # The rows below `lead` are representatives, so the first row of rank
    # above a is the lesser of lead and reps[a] + 1.
    lead = int(np.count_nonzero(reps == np.arange(k)))
    width = min(parallel.TILE_CELLS // min(k, _TILE_ROWS), M)
    tiles = [
        (band, a, j0)
        for band, a in enumerate(range(0, k, _TILE_ROWS))
        for j0 in range(min(lead, reps[a] + 1), M, width)
    ]
    # A violation skips only later bands: a later block of the same band may
    # hold a lex-smaller one.  An unlocked min() can only lose a smaller band,
    # which skips fewer tiles, never the band of the first violation.
    first_bad = [M]
    buffers = threading.local()

    def scan(tile: tuple[int, int, int]) -> Optional[tuple[bool, int, int, int]]:
        band, a, j0 = tile
        if band > first_bad[0]:
            return None
        if not hasattr(buffers, "agree"):
            buffers.agree = np.empty(min(k, _TILE_ROWS) * width, dtype)
            buffers.eq = np.empty(buffers.agree.size, np.bool_)
        rows = reps[a : a + _TILE_ROWS]
        h, w = len(rows), min(width, M - j0)
        agree = buffers.agree[: h * w].reshape(h, w)
        eq = buffers.eq[: h * w].reshape(h, w)
        agree.fill(1)
        for col, mine in zip(cols, cols[:, rows]):
            np.equal(mine[:, None], col[None, j0 : j0 + w], out=eq)
            agree += eq.view(np.uint8)
        if j0 <= rows[-1]:
            places = np.arange(a, a + h, dtype=rank.dtype)[:, None]
            np.greater(rank[None, j0 : j0 + w], places, out=eq)
            agree *= eq.view(np.uint8)
        flat = int(agree.argmax())
        violated = bool(agree.flat[flat] > limit)
        if violated:
            flat = int((agree > limit).argmax())
            first_bad[0] = min(first_bad[0], band)
        r, c = divmod(flat, w)
        return violated, int(agree[r, c]), int(rows[r]), j0 + c

    found = [t for t in map_blocks(scan, tiles, resolve_workers(workers)) if t]
    bad = [t for t in found if t[0]]
    if bad:
        _, top, i, j = min(bad, key=lambda t: (t[2], t[3]))
    else:
        _, top, i, j = min(found, key=lambda t: (-t[1], t[2], t[3]))
    return n + 1 - top, (i, j), bool(bad)


def _candidate_isometries(pa: PermArray) -> Iterator:
    """Maps of a block of rows to their images under Hamming isometries
    that may permute the rows, each made only when asked for: right
    composition with a few of the rows themselves (a group array is closed
    under it), then, when q = n (n - 1 with the infinity point) is a field
    order, the generators of AGL(1, q) (`groups`' agl1: x -> x+1, and x ->
    wx for w primitive) on the columns, then in reverse on the values, the
    infinity point fixed."""
    M = pa.M
    for i in sorted({M // 3, 2 * M // 3, M - 1}):
        yield lambda rows, r=pa.rows[i]: rows[:, r]
    from .groups import make_named

    try:
        agl = make_named("agl1", q=pa.n - 1 if pa.infinity else pa.n)
    except ValueError:
        return
    gens = [np.array(g + tuple(range(agl.degree, pa.n)), pa.rows.dtype) for g in agl.generators]
    yield from (lambda rows, p=p: rows[:, p] for p in gens)
    yield from (lambda rows, p=p: p[rows] for p in reversed(gens))


def _pair_isometries(pa: PermArray, hashes: np.ndarray) -> Iterator:
    """Maps of a block of rows to their images under Hamming isometries
    that carry row 0, a, onto a later row b: right composition with a^-1 b
    (a column map), then left composition with b a^-1 (a value map), for
    each b of the BLOCK_CELLS // 4n rows after a, in order.  A map is made
    only when it sends each of four probe rows spread over the array to a
    row's hash (`_row_hashes`, `hashes` sorted).  The probes are mapped
    BLOCK_CELLS/8 cells a side at a time, or one b's 4n cells when wider,
    and only one step's maps are held while they are asked for."""
    rows, M, n = pa.rows, pa.M, pa.n
    inverse = np.empty(n, rows.dtype)
    inverse[rows[0]] = np.arange(n)
    probes = rows[np.arange(1, 5) * (M - 1) // 4]

    def seen(images: np.ndarray) -> np.ndarray:
        needles = _row_hashes(images.reshape(-1, n))
        return hashes[np.minimum(np.searchsorted(hashes, needles), M - 1)] == needles

    step = max(1, parallel.BLOCK_CELLS // 8 // probes.size)
    end = 1 + max(1, parallel.BLOCK_CELLS // probes.size)
    for lo in range(1, min(end, M), step):
        later = rows[lo : min(lo + step, end)]
        right, left = inverse[later], later[:, inverse]
        by_right = seen(probes[:, right]).reshape(len(probes), -1).all(axis=0)
        by_left = seen(left[:, probes]).reshape(-1, len(probes)).all(axis=1)
        for b in np.flatnonzero(by_right | by_left):
            if by_right[b]:
                yield lambda block, p=right[b]: block[:, p]
            if by_left[b]:
                yield lambda block, g=left[b]: g[block]


def _index_map(
    pa: PermArray, image_of: Callable, hashes: np.ndarray, order: np.ndarray
) -> Optional[np.ndarray]:
    """The row index of each row's image under image_of, or None when some
    image is not a row.  An image is found by its hash (`_row_hashes`) in
    the sorted `hashes`, whose row indices `order` lists, and taken only
    when it equals that row, so a collision can only refuse a map."""
    M = pa.M
    # A small first block rejects most failing maps at once.
    starts = [0, *range(min(_TILE_ROWS, M), M, max(1, parallel.BLOCK_CELLS // pa.n)), M]
    index = np.empty(M, np.intp)
    for lo, hi in zip(starts, starts[1:]):
        image = image_of(pa.rows[lo:hi])
        needles = _row_hashes(image)
        rank = np.argsort(needles)  # sorted needles search faster: each lands near the last
        at = order[np.minimum(np.searchsorted(hashes, needles[rank]), M - 1)]
        if not (pa.rows[at] == image[rank]).all():
            return None
        index[lo + rank] = at
    return index


def _joined(root: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each row's least index in its component under earlier maps and the
    index map, from `root`, each row's least index in its component under
    the earlier maps alone, so no earlier map is kept.  Each round lowers
    the label of each row's root to that of its image's root, and the
    reverse, then jumps labels to their labels, until no label moves; every
    label is a root throughout."""
    image, label = root[index], root
    while True:
        lower = label.copy()
        np.minimum.at(lower, root, label[image])
        np.minimum.at(lower, image, label[root])
        lower = lower[lower]
        if (lower == label).all():
            return label[root]
        label = lower


def _orbit_representatives(pa: PermArray) -> np.ndarray:
    """The least row index of each orbit of the group H generated by the
    candidate isometries that map every row onto a row.

    A candidate is kept only when `_index_map` finds every image among the
    rows; it is then injective on a finite set, so it permutes the rows.
    The orbits are the connected components of the kept index maps
    (`_joined`), joined after each kept candidate.  The fixed candidates
    (`_candidate_isometries`) stop once they leave one orbit.  When they
    leave more than one band of _TILE_ROWS representatives, the maps that
    carry row 0 onto a later row (`_pair_isometries`) follow, until the
    representatives fit one band, one of them fails its check (an almost
    symmetric array, where more would only fail), or they run out.
    """
    M = pa.M
    hashes = _row_hashes(pa.rows)
    order = np.argsort(hashes).astype(np.int32)
    hashes = hashes[order]
    label = np.arange(M)

    def representatives() -> np.ndarray:
        return np.flatnonzero(label == np.arange(M))

    for image_of in _candidate_isometries(pa):
        index = _index_map(pa, image_of, hashes, order)
        if index is not None:
            label = _joined(label, index)
            if not label.any():  # one orbit: no further map can change it
                break
    if len(representatives()) > _TILE_ROWS:
        for image_of in _pair_isometries(pa, hashes):
            index = _index_map(pa, image_of, hashes, order)
            if index is None:
                break
            label = _joined(label, index)
            if len(representatives()) <= _TILE_ROWS:
                break
    return representatives()


def _full_scan(
    pa: PermArray, claimed: int, workers: Optional[int]
) -> tuple[int, tuple[int, int], bool]:
    """`_scan_pairs` over the orbit representatives of checked isometries,
    refused over FULL_PAIR_CAP pairs scanned.

    The proof: an isometry h of the Hamming metric that permutes the rows
    maps every pair (x, y) to a pair at the same distance, and x = h(r) for
    the representative r of x's orbit under H.  So d(x, y) = d(r, h^-1 y),
    and the pairs of a representative with every other row hold the
    minimum; the scan takes each pair of two representatives once, so k
    representatives scan k(M - 1) - k(k - 1)/2 pairs, M(M - 1)/2 when no
    candidate passes and every row is its own representative.

    The scan's lex-first pair is the lex-first pair (i*, j*) of all.  Let U
    be the union of the orbits whose representative has a partner at the
    minimum (for a violation: closer than `claimed`); every row of U has
    one, and no other row does.  So i* = min U, the least representative in
    U, and no representative before it has such a partner.  Every partner
    of i* is in U, so after i*: a representative after i* or not one at
    all, which the scan pairs with i*; the least of them is j*.
    """
    M, reps = pa.M, _orbit_representatives(pa)
    pairs = len(reps) * (M - 1) - len(reps) * (len(reps) - 1) // 2
    if pairs > FULL_PAIR_CAP:
        raise ValueError(f"{pairs} pairs exceed the full-verification cap {FULL_PAIR_CAP}")
    return _scan_pairs(pa, claimed, reps, workers)


def min_distance(
    pa: PermArray,
    mode: str = "full",
    sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
    seed: int = 0,
    workers: Optional[int] = None,
) -> VerifyReport:
    """Verify the claimed minimum distance exhaustively or by sampling.

    FULL is a proof (`_full_scan`, with FULL_PAIR_CAP read at call time);
    see `VerifyReport` for its pairs_checked.  SAMPLED reports the first
    closest of `sample_pairs` seeded draws: besides the rows it holds one
    chunk of 2^17 int32 draws and one step of BLOCK_CELLS cells of
    gathered rows at any M."""
    M = pa.M
    if M < 2:
        raise ValueError("need at least two rows to measure a distance")
    total_pairs = M * (M - 1) // 2
    claimed = pa.claimed_distance
    if mode == "full":
        observed, witness, violated = _full_scan(pa, claimed, workers)
        if violated:
            i, j = witness
            checked = i * (M - 1) - i * (i - 1) // 2 + (j - i)
            return VerifyReport("FULL", checked, observed, witness, False, claimed)
        if observed == 1:
            raise AssertionError(
                "observed distance 1: two permutations cannot differ in one point"
            )
        return VerifyReport("FULL", total_pairs, observed, witness, True, claimed)
    if mode == "sampled":
        if sample_pairs < 1:
            raise ValueError("sample_pairs must be >= 1")
        rng = np.random.Generator(np.random.PCG64(seed))
        best, witness = pa.n + 1, (-1, -1)
        # Agreements, not distances, counted along the rows of each pair,
        # gathered a step at a time: distinct rows agree in at most n - 2
        # points, which row_dtype(n) holds, and the first most agreeing pair
        # is the first closest.  int32 draws (M <= 2^28, `PermArray`) take the
        # values, and leave the state, that int64 draws do.
        chunk = min(sample_pairs, 1 << 17)
        step = min(chunk, max(1, parallel.BLOCK_CELLS // pa.n))
        left, right = (np.empty((step, pa.n), pa.rows.dtype) for _ in "lr")
        same, agree = np.empty((step, pa.n), bool), np.empty(chunk, pa.rows.dtype)
        remaining = sample_pairs
        while remaining > 0:
            chunk = min(remaining, 1 << 17)
            i = rng.integers(0, M, size=chunk, dtype=np.int32)
            j = rng.integers(0, M - 1, size=chunk, dtype=np.int32)
            j += j >= i
            for lo in range(0, chunk, step):
                h = min(step, chunk - lo)
                # draws are in range; mode="raise" would buffer the output
                a = pa.rows.take(i[lo : lo + h], axis=0, out=left[:h], mode="clip")
                b = pa.rows.take(j[lo : lo + h], axis=0, out=right[:h], mode="clip")
                np.equal(a, b, out=same[:h])
                # einsum sums short rows several times faster than sum does
                np.einsum("ij->i", same[:h].view(np.uint8), dtype=agree.dtype, out=agree[lo : lo + h])
            k = int(agree[:chunk].argmax())
            if pa.n - int(agree[k]) < best:
                best = pa.n - int(agree[k])
                witness = (int(i[k]), int(j[k]))
            remaining -= chunk
        return VerifyReport(
            "SAMPLED", sample_pairs, best, witness, best >= claimed, claimed,
            note=SAMPLED_NOTE,
        )
    raise ValueError(f"unknown mode {mode!r}")


# -- file format -------------------------------------------------------------


def header_fields(
    n: int, m: int, d: int, provenance: str = "", infinity: bool = False
) -> dict:
    """The header of an array file, keyed and ordered as the JSON mirror
    lists it before its rows."""
    return {"n": n, "M": m, "d": d, "inf": n - 1 if infinity else None, "provenance": provenance}


def _counted(blocks: Iterable[np.ndarray], n: int, m: int) -> Iterator[np.ndarray]:
    """blocks narrowed to rows of n points (`_narrowed`) and counted: a row
    past the m-th is refused before its block is passed on, and fewer than
    m rows at the end."""
    filled = 0
    for block in blocks:
        block = _narrowed(block, n)
        filled += len(block)
        if filled > m:
            raise ValueError(f"a row past the header's M={m}")
        yield block
        del block  # not held while the next block is made
    if filled != m:
        raise ValueError(f"{filled} rows, header says {m}")


def _filled(blocks: Iterable[np.ndarray], n: int, m: int) -> np.ndarray:
    """One row_dtype(n) buffer of the m rows of blocks (`_counted`); no
    block is held past its copy into it."""
    rows = np.empty((m, n), row_dtype(n))
    filled = 0
    for block in _counted(blocks, n, m):
        rows[filled : filled + len(block)] = block
        filled += len(block)
        del block
    return rows


def _check_rising(later: np.ndarray, earlier: np.ndarray) -> None:
    """Refuse a row of later that is not above its row of earlier."""
    rise = _compare_rows(later, earlier)
    if rise < 0:
        raise ValueError("rows out of lexicographic order")
    if not rise:
        raise ValueError("rows must be pairwise distinct")


def ordered_blocks(fields: dict, blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The row blocks of an array listed in lexicographic order, each
    checked as `PermArray` checks its rows before it is passed on: rows of
    n points in range (`_counted`), permutations, and each row above the one
    before it, across blocks too, which proves them pairwise distinct with
    no sort.  A block may be overwritten once the next one is asked for:
    only the last row is kept, and the permutation check's scratch, made
    once for the stream."""
    n, d = fields["n"], fields["d"]
    if not 1 <= d <= n:
        raise ValueError(f"claimed distance {d} not in [1, {n}]")
    last, permutations = None, _permutation_check(n, fields["M"])
    for block in _counted(blocks, n, fields["M"]):
        if not len(block):
            continue
        if not permutations(block):
            raise ValueError("some row is not a permutation")
        if last is not None:
            _check_rising(block[:1], last)
        _check_rising(block[1:], block[:-1])
        last = block[-1:].copy()
        yield block


def _checked_stream(pa: PermArray) -> Iterator[np.ndarray]:
    """The blocks of a streamed pa's producer, each checked as `PermArray`
    checks rows before it is passed on: rows of n points in range
    (`_counted`), and permutations.  Only each row's hash (`_row_hashes`)
    is kept; after the last block the hashes prove the rows distinct
    (`_hashes_distinct`), and the producer lists the rows again only when
    some share a hash."""
    n, m = pa.n, pa.M
    hashes, filled, permutations = np.empty(m, np.uint64), 0, _permutation_check(n, m)
    for block in _counted(pa._blocks(), n, m):
        if not permutations(block):
            raise ValueError("some row is not a permutation")
        hashes[filled : filled + len(block)] = _row_hashes(block)
        filled += len(block)
        yield block
    if not _hashes_distinct(hashes, _counted(pa._blocks(), n, m)):
        raise ValueError("rows must be pairwise distinct")


def _pieces(fields: dict, blocks: Iterable[np.ndarray], mirror: bool) -> Iterator[bytes]:
    """An array file in pieces: the header from `fields`, then one piece
    per block of rows, in the text format or, with `mirror`, as the bytes
    of `json.dumps` of the fields with the rows as lists of ints.

    Every cell is one token, taken by its point from one of three tables:
    the first column's, the middle's and the last's (text "%d ", "%d ",
    "%d\\n"; JSON ", [%d, ", "%d, ", "%d]", with the first row's leading
    ", " dropped).  The tokens of a block are gathered from tables
    NUL-padded to 4, 8 or 16 bytes, BLOCK_CELLS/4 bytes of them at a time,
    into one reused buffer, and dropping the padding leaves their text.  The
    buffer and the gather's int64 indices are made once; each piece's bytes
    and text, 64 KiB unless one row takes more, stay below the size at
    which the allocator maps fresh pages for every piece.
    """
    n, m = fields["n"], fields["M"]
    if mirror:
        head = json.dumps(fields)[:-1] + ', "rows": ['
        joint, start, sep, end, tail = b", ", b"[", b", ", b"]", b"]}"
    else:
        inf = "none" if fields["inf"] is None else fields["inf"]
        head = (
            f"PA n={n} M={m} d={fields['d']} "
            f"inf={inf} provenance={fields['provenance']}\n"
        )
        joint, start, sep, end, tail = b"", b"", b" ", b"\n", b"" if m else b"\n"
    yield head.encode("utf-8")
    forms = (joint + start + b"%d" + (sep if n > 1 else end), b"%d" + sep, b"%d" + end)
    longest = max(len(form % (n - 1)) for form in forms)
    width = f"S{next(w for w in (4, 8, 16) if longest <= w)}"
    first, middle, last = (np.array([form % v for v in range(n)], dtype=width) for form in forms)
    step = max(1, parallel.BLOCK_CELLS // 4 // middle.nbytes)
    tokens, index = np.empty((step, n), width), np.empty((step, n), np.intp)
    skip = len(joint)
    for block in blocks:
        for lo in range(0, len(block), step):
            part = block[lo : lo + step]
            cells, at = tokens[: len(part)], index[: len(part)]
            at[:] = part
            np.take(middle, at, out=cells, mode="clip")  # points are in [0, n)
            cells[:, -1] = last[part[:, -1]]
            cells[:, 0] = first[part[:, 0]]
            yield cells.tobytes().translate(None, b"\0")[skip:]
            skip = 0
    yield tail


def _as_blocks(pa: PermArray) -> tuple[dict, Iterator[np.ndarray]]:
    """pa's header fields and its rows: rows not yet read as the producer
    makes them (`_checked_stream`), held rows in blocks of BLOCK_CELLS
    cells."""
    fields = header_fields(pa.n, pa.M, pa.claimed_distance, pa.provenance, pa.infinity)
    if pa._rows is None:
        return fields, _checked_stream(pa)
    step = max(1, parallel.BLOCK_CELLS // pa.n)
    return fields, (pa.rows[lo : lo + step] for lo in range(0, pa.M, step))


def write_blocks(path: Union[str, Path], fields: dict, blocks: Iterable[np.ndarray]) -> None:
    """Write an array given as header fields and row blocks, each block as
    it comes: the text format, or the JSON mirror for a .json suffix.  A
    file that the write creates is removed when it fails, as when a block
    fails its check (`ordered_blocks`)."""
    created = not os.path.exists(path)
    fh = open(path, "wb")
    try:
        with fh:
            fh.writelines(_pieces(fields, blocks, Path(path).suffix == ".json"))
    except BaseException:
        if created:
            os.remove(path)
        raise


def write_pa(pa: PermArray, path: Union[str, Path]) -> None:
    """Write text format, or the JSON mirror for a .json suffix; the rows
    of a streamed pa not yet read are written a block at a time as they are
    made and checked, and are not kept."""
    write_blocks(path, *_as_blocks(pa))


def _parse_header(line: str) -> dict[str, str]:
    if not line.startswith("PA "):
        raise ValueError("not a PA file: missing 'PA' header")
    fields: dict[str, str] = {}
    rest = line[3:]
    for key in ("n", "M", "d", "inf"):
        if not rest.startswith(f"{key}="):
            raise ValueError(f"malformed PA header near {rest[:20]!r}")
        val, _, rest = rest[len(key) + 1:].partition(" ")
        fields[key] = val
    if not rest.startswith("provenance="):
        raise ValueError("malformed PA header: missing provenance")
    fields["provenance"] = rest[len("provenance="):]
    return fields


def _listed(rows: list, n: int, booleans: bool) -> np.ndarray:
    """A slice of a JSON mirror's rows as one 2-D array, refused unless
    each row is a list of n scalars, none of them a bool when the document
    has a bool literal (`booleans`): numpy reads true as 1 among ints."""
    try:
        block = np.asarray(rows)
    except ValueError:  # ragged or nested rows
        block = None
    if block is None or block.ndim != 2 or block.shape[1] != n or (
        booleans and bool in set(map(type, itertools.chain.from_iterable(rows)))
    ):
        raise ValueError(f"each row must be a list of {n} integers")
    return block


def read_pa(path: Union[str, Path]) -> PermArray:
    """Parse either the text format or its JSON mirror into one row_dtype
    buffer that the array keeps (`_filled`), one block of rows at a time.

    Text is read through a line reader that keeps each line's end (`\\n`,
    `\\r\\n` or `\\r`), so the header line's length is its length in bytes:
    latin-1 maps every byte to one character, and only the header is then
    decoded as UTF-8.  A row takes at least 2n bytes (n points of one digit
    or more, each followed by a space or a line end; the last line end may
    be missing), so a header M that the body cannot hold is refused before
    the buffer is allocated or any row is read, and so is an array over
    EMIT_CELL_CAP cells.  The body is parsed in blocks of whole lines of
    about BLOCK_CELLS characters, so the lines and the int64 parse of one
    block are the only other copies of any row; blocks of blank lines are
    skipped (loadtxt warns on them).  The JSON mirror's rows are narrowed
    from the parsed lists BLOCK_CELLS cells at a time.  A file that starts
    with whitespace or a brace is read whole, since the JSON mirror is
    parsed as one document, and so is a pipe, whose size is known only at
    its end."""
    with open(path, "rb") as raw:
        info = os.fstat(raw.fileno())
        first = raw.peek(1)[:1]
        whole = first.isspace() or first == b"{" or not stat.S_ISREG(info.st_mode)
        data = raw.read() if whole else b""
        if data.lstrip()[:1] == b"{":
            text = data.decode("utf-8")
            del data  # not held while the document is parsed
            payload = json.loads(text)
            booleans = "true" in text or "false" in text
            del text
            missing = [key for key in ("n", "M", "d", "rows") if key not in payload]
            if missing:
                raise ValueError(f"missing key {missing[0]!r}")
            n, m, d = payload["n"], payload["M"], payload["d"]
            if not all(type(v) is int for v in (n, m, d)):
                raise ValueError("n, M and d must be integers")
            inf, provenance = payload.get("inf"), payload.get("provenance", "")
            if type(provenance) is not str:
                raise ValueError("provenance must be a string")
            if inf is not None and type(inf) is not int:
                raise ValueError("inf must be an integer or null")
            listed = payload["rows"]
            if type(listed) is not list:
                raise ValueError("rows must be a list")
            if len(listed) != m:
                raise ValueError(f"{len(listed)} rows, header says {m}")
            step = max(1, parallel.BLOCK_CELLS // max(n, 1))
            blocks = (_listed(listed[lo : lo + step], n, booleans) for lo in range(0, m, step))
        else:
            fh = io.TextIOWrapper(io.BytesIO(data) if whole else raw, "latin-1", newline="")
            header = fh.readline()
            if not header:
                raise ValueError("empty PA file")
            head = _parse_header(header.rstrip("\r\n").encode("latin-1").decode("utf-8"))
            n, m, d = int(head["n"]), int(head["M"]), int(head["d"])
            inf = None if head["inf"] == "none" else head["inf"]
            provenance = head["provenance"]
            body = (len(data) if whole else info.st_size) - len(header)
            most = (body + 1) // max(2 * n, 1)
            if not 0 <= m <= most:
                raise ValueError(f"header says {m} rows, the body holds at most {most}")
            # Blank as bytes are: str.isspace also takes \x1c-\x1f, \x85 and \xa0.
            blocks = (
                np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
                for lines in iter(lambda: fh.readlines(parallel.BLOCK_CELLS), [])
                if not all(line.encode("latin-1").isspace() for line in lines)
            )
        if m * n > EMIT_CELL_CAP:
            raise ValueError(f"{m} rows of {n} points exceed the cell cap {EMIT_CELL_CAP}")
        rows = _filled(blocks, n, m)
    if inf is not None and str(inf) != str(n - 1):
        raise ValueError(f"unsupported infinity point {inf}")
    return PermArray(rows, d, provenance=provenance, infinity=inf is not None)
