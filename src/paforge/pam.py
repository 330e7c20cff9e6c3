"""Completion of fractional maps into permutations, and array assembly.

Each fraction pins one preimage per attained value (the smallest); the rest
of the domain is matched to the unused values in ascending order, which makes
every emitted array a deterministic function of its member set.  For
length-(q+1) arrays the extra point maps to itself when the denominator has
no root, and otherwise the smallest root is sent to the extra point.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from . import parallel, sfp
from .pa import PermArray, _filled
from .sfp import SfpQuery, SfpResult, Variant, enumerate_fast


def _complete_rows(
    q: int, n: int, m: int, values: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    """The completions (see the module docstring) of the value rows
    values(lo, hi) of rows 0..m-1, in one row_dtype(n) buffer (`_filled`),
    completed in blocks of rows that fit one tile of TILE_CELLS cells, so that
    besides the result nothing larger than a block is held and each block's
    columns stay in cache.  `_filled` range-checks each block before the
    narrowing cast: a hole left at -1 must not wrap to a valid point."""
    step = max(1, parallel.TILE_CELLS // q)
    blocks = (_complete_block(q, n, values(lo, min(lo + step, m))) for lo in range(0, m, step))
    return _filled(blocks, n, m)


def _complete_block(q: int, n: int, vals: np.ndarray) -> np.ndarray:
    """`_complete_rows` on one block, one column at a time."""
    N = len(vals)
    # first[r, v]: the first preimage of v in row r, n when v is unattained.
    # The columns are written last to first, so the least beta stays.
    first = np.full((N, q + 1), n, dtype=np.int16)
    flat, at = first.reshape(-1), np.arange(0, N * (q + 1), q + 1)
    for beta in range(q - 1, -1, -1):
        flat[at + vals[:, beta]] = beta
    # Each attained value goes to its first preimage; the unattained ones
    # land in the dump column n.
    images = np.full((N, n + 1), -1, dtype=np.int16)
    flat, at = images.reshape(-1), np.arange(0, N * (n + 1), n + 1)
    for v in range(q):
        flat[at + first[:, v]] = v
    if n > q:  # the first root goes to the extra point, else it is fixed
        flat[at + np.minimum(first[:, q], q)] = q
    images = images[:, :n]
    # A row has as many holes as spare values; the i-th hole takes the
    # i-th spare, and both masks are read row by row in ascending order.
    spare = np.flatnonzero(first[:, :q] == n)
    images[images < 0] = np.remainder(spare, q, out=spare)
    return images


def build_pa(
    query: SfpQuery,
    result: Optional[SfpResult] = None,
    workers: Optional[int] = None,
) -> PermArray:
    """Assemble the permutation array of one enumeration cell.

    Rows follow the canonical member order; the claimed distance is the
    cell's guarantee.  Each block of members' values is gathered from the
    result's `images` and `source` when its rows are completed (`_gather`),
    so no value array of the whole cell is held.  Only those two are kept:
    a result that build_pa enumerates itself frees its member coefficient
    rows before completion.
    """
    if result is None:
        result = enumerate_fast(query, workers=workers)
    m, values = result.count, partial(sfp._gather, query.field, result.images, result.source)
    del result  # only images and source are kept, so the member rows can go
    return PermArray(
        _complete_rows(query.q, query.length(), m, values),
        claimed_distance=query.distance(),
        provenance=f"sfp:{query.describe()}",
        infinity=query.variant is Variant.Q_PLUS_1,
    )
