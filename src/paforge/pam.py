"""Completion of fractional maps into permutations, and array assembly.

Each fraction pins one preimage per attained value (the smallest); the rest
of the domain is matched to the unused values in ascending order, which makes
every emitted array a deterministic function of its member set.  For
length-(q+1) arrays the extra point maps to itself when the denominator has
no root, and otherwise the smallest root is sent to the extra point.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .fracpoly import FracPoly
from .pa import PermArray, Permutation
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


def _complete_rows(q: int, n: int, vals: np.ndarray) -> np.ndarray:
    """`_complete` on every row of an (N, q) value array at once."""
    N = len(vals)
    # Each attained value goes to its first preimage: the head of its run
    # in a stable sort of the row, scattered back through the sort order.
    order = np.argsort(vals, axis=1, kind="stable")
    srt = np.take_along_axis(vals, order, axis=1)
    head = srt < q
    head[:, 1:] &= srt[:, 1:] != srt[:, :-1]
    images = np.full((N, n), -1, dtype=np.int16)
    np.put_along_axis(images[:, :q], order, np.where(head, srt, -1), axis=1)
    if n > q:  # the first root goes to the extra point, else it is fixed
        root = vals == q
        images[np.arange(N), np.where(root.any(axis=1), root.argmax(axis=1), q)] = q
    taken = np.zeros((N, q + 1), dtype=bool)
    np.put_along_axis(taken, vals, True, axis=1)
    # A row has as many holes as spare values; the i-th hole takes the
    # i-th spare, and both masks are read row by row in ascending order.
    images[images < 0] = np.nonzero(~taken[:, :q])[1]
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
    cell's guarantee.
    """
    if result is None:
        result = enumerate_fast(query, workers=workers)
    return PermArray(
        _complete_rows(query.q, query.length(), result.values()),
        claimed_distance=query.distance(),
        provenance=f"sfp:{query.describe()}",
        infinity=query.variant is Variant.Q_PLUS_1,
    )
