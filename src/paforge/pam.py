"""Completion of fractional maps into permutations, and array assembly.

Each fraction pins one preimage per attained value (the smallest); the rest
of the domain is matched to the unused values in ascending order, which makes
every emitted array a deterministic function of its member set.  For
length-(q+1) arrays the extra point maps to itself when the denominator has
no root, and otherwise the smallest root is sent to the extra point.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import sfp
from .fracpoly import FracPoly
from .pa import PermArray, Permutation, _narrowed, row_dtype
from .sfp import SfpQuery, SfpResult, Variant, enumerate_fast


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


def _complete_rows(
    q: int, n: int, m: int, values: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    """`_complete` on the value rows values(lo, hi) of rows 0..m-1, as
    row_dtype(n) rows, in blocks of rows that fit one scan buffer of cells,
    so that besides the result nothing larger than a block is held and each
    block's columns stay in cache.  Each block is range-checked before the
    narrowing cast (`_narrowed`): a hole left at -1 must not wrap to a valid
    point."""
    images = np.empty((m, n), dtype=row_dtype(n))
    step = max(1, sfp._CELL_BUDGET // q)
    for lo in range(0, m, step):
        block = values(lo, min(lo + step, m))
        images[lo : lo + step] = _narrowed(_complete_block(q, n, block), n)
    return images


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


def build_q_pam(phi: FracPoly) -> Permutation:
    """Complete a fraction to a permutation of GF(q)."""
    q = phi.field.q
    return _complete(q, q, phi.values())


def build_q1_pam(phi: FracPoly) -> Permutation:
    """Complete a fraction to a permutation of GF(q) plus an extra point."""
    q = phi.field.q
    return _complete(q, q + 1, phi.values())


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
