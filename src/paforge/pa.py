"""Permutation arrays: Hamming distance, minimum-distance verification,
sharp transitivity checks, and the on-disk array format."""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .parallel import map_blocks, resolve_workers

Permutation = tuple[int, ...]

FULL_PAIR_CAP = 10**10
DEFAULT_SAMPLE_PAIRS = 10**6
SAMPLED_NOTE = "sampled check: evidence only, not an exhaustive proof"


def identity(n: int) -> Permutation:
    return tuple(range(n))


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


def row_dtype(n: int) -> type:
    """Smallest unsigned dtype that holds the points 0..n-1 of a row."""
    return np.uint8 if n <= 256 else np.uint16


def hamming_distance(p: Sequence[int], r: Sequence[int]) -> int:
    """Number of points where two equal-length permutations disagree."""
    if len(p) != len(r):
        raise ValueError(f"length mismatch: {len(p)} vs {len(r)}")
    return sum(1 for a, b in zip(p, r) if a != b)


class PermArray:
    """A set of permutations of n points with a claimed minimum distance.

    Point n-1 encodes the extra symbol of length-(q+1) constructions when
    `infinity` is set; rows are stored as a dense integer matrix and are
    required to be pairwise distinct.
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
        n = arr.shape[1]
        dtype = row_dtype(n)
        arr = arr.astype(dtype, order="C", copy=True)
        arr.setflags(write=False)
        if not (1 <= claimed_distance <= n):
            raise ValueError(f"claimed distance {claimed_distance} not in [1, {n}]")
        ref = np.arange(n, dtype=dtype)
        if not (np.sort(arr, axis=1) == ref).all():
            raise ValueError("some row is not a permutation")
        whole_rows = arr.view(np.dtype((np.void, arr.itemsize * n))).ravel()
        if len(np.unique(whole_rows)) != arr.shape[0]:
            raise ValueError("rows must be pairwise distinct")
        self.rows = arr
        self.n = n
        self.claimed_distance = claimed_distance
        self.provenance = provenance
        self.infinity = infinity

    @property
    def M(self) -> int:
        return int(self.rows.shape[0])

    def row(self, i: int) -> Permutation:
        return tuple(int(x) for x in self.rows[i])

    def __len__(self) -> int:
        return self.M

    def __repr__(self) -> str:
        return f"PermArray(n={self.n}, M={self.M}, d={self.claimed_distance})"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a distance check.

    In FULL mode with a passing result, pairs_checked covers every pair and
    min_observed is the true minimum; a failing FULL check stops at the first
    violating pair in index order.  SAMPLED results are evidence only.
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


# The FULL scan cuts the pairs i < j into tiles: a band of _TILE_ROWS rows
# i against a block of _TILE_COLS rows j, the first block starting at j = i0 + 1.
# _TILE_ROWS <= _TILE_COLS, so only a band's first block holds pairs j <= i.
_TILE_ROWS = 64
_TILE_COLS = 8192


def _scan_pairs(
    pa: PermArray, claimed: int, workers: Optional[int]
) -> tuple[int, tuple[int, int], bool]:
    """Exact tiled scan of all pairs: (distance, witness, violated).

    With no pair closer than `claimed` (always so for 0) this is the
    minimum distance and the lex-first pair reaching it; otherwise the
    lex-first pair closer than `claimed` and its distance.  A tile holds
    agreement + 1 per pair, summed column by column over the column-major
    rows, so masked pairs (j <= i) hold 0 and never tie a real pair.
    Distinct rows agree in at most n - 2 points, so row_dtype(n) holds it
    (a masked self pair may wrap before the mask zeroes it).
    """
    n, M = pa.n, pa.M
    cols = np.ascontiguousarray(pa.rows.T)
    dtype = row_dtype(n)
    limit = n + 1 - claimed
    tiles = [
        (band, i0, j0)
        for band, i0 in enumerate(range(0, M - 1, _TILE_ROWS))
        for j0 in range(i0 + 1, M, _TILE_COLS)
    ]
    # A violation skips only later bands: a later block of the same band may
    # hold a lex-smaller one.  An unlocked min() can only lose a smaller band,
    # which skips fewer tiles, never the band of the first violation.
    first_bad = [M]
    buffers = threading.local()

    def scan(tile: tuple[int, int, int]) -> Optional[tuple[bool, int, int, int]]:
        band, i0, j0 = tile
        if band > first_bad[0]:
            return None
        if not hasattr(buffers, "agree"):
            buffers.agree = np.empty(_TILE_ROWS * _TILE_COLS, dtype)
            buffers.eq = np.empty(_TILE_ROWS * _TILE_COLS, np.bool_)
        h, w = min(_TILE_ROWS, M - 1 - i0), min(_TILE_COLS, M - j0)
        agree = buffers.agree[: h * w].reshape(h, w)
        eq = buffers.eq[: h * w].reshape(h, w)
        agree.fill(1)
        for col in cols:
            np.equal(col[i0 : i0 + h, None], col[None, j0 : j0 + w], out=eq)
            agree += eq.view(np.uint8)
        if j0 == i0 + 1:
            agree *= np.arange(w)[None, :] >= np.arange(h)[:, None]
        flat = int(agree.argmax())
        violated = bool(agree.flat[flat] > limit)
        if violated:
            flat = int((agree > limit).argmax())
            first_bad[0] = min(first_bad[0], band)
        r, c = divmod(flat, w)
        return violated, int(agree[r, c]), i0 + r, j0 + c

    found = [t for t in map_blocks(scan, tiles, resolve_workers(workers)) if t]
    bad = [t for t in found if t[0]]
    if bad:
        _, top, i, j = min(bad, key=lambda t: (t[2], t[3]))
    else:
        _, top, i, j = min(found, key=lambda t: (-t[1], t[2], t[3]))
    return n + 1 - top, (i, j), bool(bad)


def min_distance(
    pa: PermArray,
    mode: str = "full",
    sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
    seed: int = 0,
    workers: Optional[int] = None,
    pair_cap: int = FULL_PAIR_CAP,
) -> VerifyReport:
    """Verify the claimed minimum distance exhaustively or by sampling."""
    M = pa.M
    if M < 2:
        raise ValueError("need at least two rows to measure a distance")
    total_pairs = M * (M - 1) // 2
    claimed = pa.claimed_distance
    if mode == "full":
        if total_pairs > pair_cap:
            raise ValueError(
                f"{total_pairs} pairs exceed the full-verification cap {pair_cap}"
            )
        observed, witness, violated = _scan_pairs(pa, claimed, workers)
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
        remaining = sample_pairs
        while remaining > 0:
            chunk = min(remaining, 1 << 17)
            i = rng.integers(0, M, size=chunk)
            j = rng.integers(0, M - 1, size=chunk)
            j = j + (j >= i)
            d = (pa.rows[i] != pa.rows[j]).sum(axis=1)
            k = int(d.argmin())
            if d[k] < best:
                best = int(d[k])
                witness = (int(i[k]), int(j[k]))
            remaining -= chunk
        return VerifyReport(
            "SAMPLED", sample_pairs, best, witness, best >= claimed, claimed,
            note=SAMPLED_NOTE,
        )
    raise ValueError(f"unknown mode {mode!r}")


def exact_min_distance(pa: PermArray, workers: Optional[int] = None) -> int:
    """True minimum distance (no early exit); convenience over min_distance."""
    if pa.M < 2:
        raise ValueError("need at least two rows to measure a distance")
    return _scan_pairs(pa, 0, workers)[0]


def _closure_spot_check(pa: PermArray) -> None:
    rows = {tuple(int(x) for x in r) for r in pa.rows}
    for p in rows:
        for q in rows:
            if compose(p, q) not in rows:
                raise ValueError("rows are not closed under composition")


def is_sharply_k_transitive(pa: PermArray, k: int, check_group: bool = True) -> bool:
    """Whether the rows (assumed a group) act sharply k-transitively.

    Equivalent by counting to: all k-prefixes of rows are distinct and
    M = n!/(n-k)!.  The group property is spot-checked for small M.
    """
    n = pa.n
    if k > n:
        raise ValueError(f"k={k} exceeds degree {n}")
    if check_group and pa.M <= 360:
        _closure_spot_check(pa)
    target = math.factorial(n) // math.factorial(n - k)
    if pa.M != target:
        return False
    prefixes = np.unique(pa.rows[:, :k], axis=0)
    return len(prefixes) == pa.M


def sharpness_matches_distance(pa: PermArray, k: int) -> bool:
    """Check that 'min distance >= n-k+1' and 'sharply k-transitive' agree
    for a group of order n!/(n-k)! given as rows."""
    n = pa.n
    target = math.factorial(n) // math.factorial(n - k)
    if pa.M != target:
        raise ValueError(f"row count {pa.M} is not n!/(n-k)! = {target}")
    lhs = exact_min_distance(pa) >= n - k + 1
    rhs = is_sharply_k_transitive(pa, k)
    return lhs == rhs


# -- file format -------------------------------------------------------------


_FORMAT_BLOCK_ROWS = 1 << 14


def _text_pieces(pa: PermArray) -> Iterator[str]:
    """The text format in pieces, one block of rows at a time."""
    inf = str(pa.n - 1) if pa.infinity else "none"
    yield (
        f"PA n={pa.n} M={pa.M} d={pa.claimed_distance} "
        f"inf={inf} provenance={pa.provenance}\n"
    )
    template = " ".join(["%d"] * pa.n)
    for lo in range(0, pa.M, _FORMAT_BLOCK_ROWS):
        block = pa.rows[lo : lo + _FORMAT_BLOCK_ROWS].tolist()
        if lo:
            yield "\n"
        yield "\n".join([template % tuple(r) for r in block])
    yield "\n"


def format_pa(pa: PermArray) -> str:
    return "".join(_text_pieces(pa))


def pa_to_json(pa: PermArray) -> str:
    payload = {
        "n": pa.n,
        "M": pa.M,
        "d": pa.claimed_distance,
        "inf": pa.n - 1 if pa.infinity else None,
        "provenance": pa.provenance,
        "rows": [[int(x) for x in row] for row in pa.rows],
    }
    return json.dumps(payload)


def write_pa(pa: PermArray, path: Union[str, Path]) -> None:
    """Write text format, or the JSON mirror for a .json suffix."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(pa_to_json(pa), encoding="utf-8")
    else:
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(_text_pieces(pa))


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


def read_pa(path: Union[str, Path]) -> PermArray:
    """Parse either the text format or its JSON mirror."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return PermArray(
            payload["rows"],
            payload["d"],
            provenance=payload.get("provenance", ""),
            infinity=payload.get("inf") is not None,
        )
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty PA file")
    head = _parse_header(lines[0])
    n, m, d = int(head["n"]), int(head["M"]), int(head["d"])
    infinity = head["inf"] != "none"
    if infinity and head["inf"] != str(n - 1):
        raise ValueError(f"unsupported infinity point {head['inf']}")
    body = lines[1:]
    if not any(map(str.strip, body)):
        raise ValueError(f"no rows, header says {m}")
    rows = np.loadtxt(body, dtype=np.int64, ndmin=2, comments=None)
    if rows.shape[1] != n:
        raise ValueError(f"row of length {rows.shape[1]}, expected {n}")
    if len(rows) != m:
        raise ValueError(f"{len(rows)} rows, header says {m}")
    return PermArray(rows, d, provenance=head["provenance"], infinity=infinity)
