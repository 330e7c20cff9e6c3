"""Completion of fractional maps into permutations, and array assembly.

Each fraction pins one preimage per attained value (the smallest); the rest
of the domain is matched to the unused values in ascending order, which makes
every emitted array a deterministic function of its member set.  For
length-(q+1) arrays the extra point maps to itself when the denominator has
no root, and otherwise the smallest root is sent to the extra point.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fracpoly import FracPoly
from .pa import PermArray, Permutation, row_dtype
from .sfp import SfpQuery, SfpResult, Variant, _eval_rows, enumerate_fast


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


def _value_row(phi: FracPoly) -> tuple[list[int], bool, Optional[int]]:
    """Per-point values with q as the pole sentinel, plus pole bookkeeping."""
    F = phi.field
    q = F.q
    vals: list[int] = []
    min_root: Optional[int] = None
    for alpha in range(q):
        gv = phi.den.eval(alpha)
        if gv == 0:
            if min_root is None:
                min_root = alpha
            vals.append(q)
        else:
            vals.append(F.mul(phi.num.eval(alpha), F.inv(gv)))
    return vals, min_root is not None, min_root


def _complete_q(q: int, vals: Sequence[int]) -> Permutation:
    images = [-1] * q
    taken = [False] * q
    for beta in range(q):
        v = vals[beta]
        if v < q and not taken[v]:
            images[beta] = v
            taken[v] = True
    spare = iter(v for v in range(q) if not taken[v])
    for beta in range(q):
        if images[beta] < 0:
            images[beta] = next(spare)
    return tuple(images)


def _complete_q1(
    q: int, vals: Sequence[int], has_pole: bool, min_root: Optional[int]
) -> Permutation:
    inf = q
    images = [-1] * (q + 1)
    if has_pole:
        images[min_root] = inf
    else:
        images[inf] = inf
    taken = [False] * q
    for beta in range(q):
        if images[beta] >= 0:
            continue
        v = vals[beta]
        if v < q and not taken[v]:
            images[beta] = v
            taken[v] = True
    spare = iter(v for v in range(q) if not taken[v])
    for beta in range(q + 1):
        if images[beta] < 0:
            images[beta] = next(spare)
    return tuple(images)


def assign_q(phi: FracPoly) -> PamAssignment:
    """Complete a fraction to a permutation of GF(q), with bookkeeping."""
    q = phi.field.q
    vals, _, _ = _value_row(phi)
    images = _complete_q(q, vals)
    forced = len({v for v in vals if v < q})
    return PamAssignment(phi, images, forced, q - forced)


def assign_q1(phi: FracPoly) -> PamAssignment:
    """Complete a fraction to a permutation of GF(q) plus an extra point."""
    q = phi.field.q
    vals, has_pole, min_root = _value_row(phi)
    images = _complete_q1(q, vals, has_pole, min_root)
    forced = len({v for v in vals if v < q}) + 1  # extra-point rule
    return PamAssignment(phi, images, forced, q + 1 - forced)


def build_q_pam(phi: FracPoly) -> Permutation:
    """Complete a fraction to a permutation of GF(q)."""
    return assign_q(phi).images


def build_q1_pam(phi: FracPoly) -> Permutation:
    """Complete a fraction to a permutation of GF(q) plus an extra point."""
    return assign_q1(phi).images


def _batched_value_rows(
    query: SfpQuery, members: Sequence[FracPoly]
) -> np.ndarray:
    """Value rows for every member (pole sentinel q), in member order."""
    F = query.field
    q = F.q
    inv_tab = np.zeros(q, dtype=np.int16)
    for a in range(1, q):
        inv_tab[a] = F.inv(a)
    out = np.empty((len(members), q), dtype=np.int16)
    groups: dict[tuple[int, int], list[int]] = defaultdict(list)
    for idx, phi in enumerate(members):
        groups[(int(phi.num.degree), int(phi.den.degree))].append(idx)
    for (s2, t2), idxs in groups.items():
        fc = np.array([members[i].num.coeffs for i in idxs], dtype=np.int16)
        gc = np.array([members[i].den.coeffs for i in idxs], dtype=np.int16)
        fvals = _eval_rows(F, fc)
        gvals = _eval_rows(F, gc)
        if F.k == 1:
            ratio = ((fvals.astype(np.int32) * inv_tab[gvals]) % F.p).astype(np.int16)
        else:
            ratio = F.tables()["mul"][fvals, inv_tab[gvals]]
        ratio[gvals == 0] = q
        out[idxs] = ratio
    return out


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
    q = query.q
    value_rows = _batched_value_rows(query, result.members)
    rows = []
    if query.variant is Variant.Q:
        for row in value_rows:
            rows.append(_complete_q(q, row.tolist()))
    else:
        for row in value_rows:
            vals = row.tolist()
            roots = [beta for beta in range(q) if vals[beta] == q]
            rows.append(_complete_q1(q, vals, bool(roots), roots[0] if roots else None))
    n = query.length()
    arr = np.array(rows, dtype=row_dtype(n)).reshape(len(rows), n)
    return PermArray(
        arr,
        claimed_distance=query.distance(),
        provenance=f"sfp:{query.describe()}",
        infinity=query.variant is Variant.Q_PLUS_1,
    )
