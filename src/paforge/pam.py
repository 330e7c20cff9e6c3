"""Completion of fractional maps into permutations, and array assembly.

Each fraction pins one preimage per attained value (the smallest); the rest
of the domain is matched to the unused values in ascending order, which makes
every emitted array a deterministic function of its member set.  For
length-(q+1) arrays the extra point maps to itself when the denominator has
no root, and otherwise the smallest root is sent to the extra point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fracpoly import FracPoly
from .pa import PermArray, Permutation, row_dtype
from .sfp import SfpQuery, SfpResult, Variant, enumerate_fast


@dataclass(frozen=True)
class PamAssignment:
    """A completed map: which points the fraction pinned, which were filled.

    forced_count counts assignments dictated by the completion rule (one per
    attained value, plus the extra-point rule for length q+1); filled_count
    counts the ascending-order matches of the remaining points.
    """

    phi: FracPoly
    images: Permutation
    forced_count: int
    filled_count: int

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("completed map is not a permutation")
        if self.forced_count + self.filled_count != len(self.images):
            raise ValueError("forced and filled counts must cover the domain")


def _value_row(phi: FracPoly) -> list[int]:
    """Per-point values, with q as the pole sentinel."""
    F = phi.field
    q = F.q
    vals: list[int] = []
    for alpha in range(q):
        gv = phi.den.eval(alpha)
        if gv == 0:
            vals.append(q)
        else:
            vals.append(F.mul(phi.num.eval(alpha), F.inv(gv)))
    return vals


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


def _assign(phi: FracPoly, n: int) -> PamAssignment:
    q = phi.field.q
    vals = _value_row(phi)
    forced = len({v for v in vals if v < q}) + n - q  # plus the extra-point rule
    return PamAssignment(phi, _complete(q, n, vals), forced, n - forced)


def assign_q(phi: FracPoly) -> PamAssignment:
    """Complete a fraction to a permutation of GF(q), with bookkeeping."""
    return _assign(phi, phi.field.q)


def assign_q1(phi: FracPoly) -> PamAssignment:
    """Complete a fraction to a permutation of GF(q) plus an extra point."""
    return _assign(phi, phi.field.q + 1)


def build_q_pam(phi: FracPoly) -> Permutation:
    """Complete a fraction to a permutation of GF(q)."""
    return assign_q(phi).images


def build_q1_pam(phi: FracPoly) -> Permutation:
    """Complete a fraction to a permutation of GF(q) plus an extra point."""
    return assign_q1(phi).images


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
    n = query.length()
    rows = [_complete(query.q, n, vals) for vals in result.values().tolist()]
    arr = np.array(rows, dtype=row_dtype(n)).reshape(len(rows), n)
    return PermArray(
        arr,
        claimed_distance=query.distance(),
        provenance=f"sfp:{query.describe()}",
        infinity=query.variant is Variant.Q_PLUS_1,
    )
