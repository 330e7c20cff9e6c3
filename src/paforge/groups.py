"""Permutation groups as arrays: order, minimal degree and element listing
through a stabilizer chain, and the named constructions used for the
group-based arrays.

The stabilizer chain is a deterministic Schreier-Sims build: base points are
taken from an optional hint, then by smallest moved point; orbits are BFS in
point order.  That makes orders, stabilizer generators, and element
enumeration reproducible run to run.  The chain is the only code that lists
group elements: each element is one product of coset representatives, one
per level, so nothing is deduplicated (Seress, *Permutation Group
Algorithms*, 2003).

The exact minimal degree of a t-transitive group with t >= 2 is read off
the pointwise stabilizer of the first t-1 base points (Dixon and Mortimer,
*Permutation Groups*, 1996): see `minimal_degree`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .field import Field
from .pa import (
    PermArray,
    Permutation,
    compose,
    identity,
    inverse,
    moved_points,
    row_dtype,
)
from .sfp import field_for_order

#: Most elements that one call lists (`group_to_pa`) or scans (`minimal_degree`).
EXACT_SCAN_CAP = 1 << 24


@dataclass(frozen=True)
class PermGroup:
    """Group given by generators acting on {0, ..., degree-1}."""

    degree: int
    generators: tuple[Permutation, ...]
    name: str = ""
    expected_order: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("generator list must be nonempty")
        for g in self.generators:
            if len(g) != self.degree or sorted(g) != list(range(self.degree)):
                raise ValueError("generator is not a permutation of the degree")


@dataclass(frozen=True)
class GroupFacts:
    """Order plus minimal-degree information for one group."""

    order: int
    minimal_degree: int
    exact: bool
    trials: int = 0


def fixity(group: PermGroup, facts: GroupFacts) -> Optional[int]:
    """Degree minus minimal degree, only meaningful for exact scans."""
    return group.degree - facts.minimal_degree if facts.exact else None


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain."""

    def __init__(
        self,
        degree: int,
        generators: Sequence[Permutation],
        base_hint: Sequence[int] = (),
    ) -> None:
        self.degree = degree
        self.base: list[int] = []
        self.stored: list[list[Permutation]] = []
        self.orbits: list[dict[int, Permutation]] = []
        for b in base_hint:
            self._append_level(b)
        for g in generators:
            self.add_generator(tuple(g))

    # -- construction ------------------------------------------------------

    def _append_level(self, basepoint: int) -> None:
        self.base.append(basepoint)
        self.stored.append([])
        self.orbits.append({basepoint: identity(self.degree)})

    def _level_gens(self, i: int) -> list[Permutation]:
        return [g for level in self.stored[i:] for g in level]

    def _rebuild_orbit(self, i: int) -> None:
        b = self.base[i]
        gens = self._level_gens(i)
        orbit = {b: identity(self.degree)}
        queue = [b]
        while queue:
            pt = queue.pop(0)
            u = orbit[pt]
            for g in gens:
                npt = g[pt]
                if npt not in orbit:
                    orbit[npt] = compose(g, u)
                    queue.append(npt)
        self.orbits[i] = orbit

    def sift(self, p: Permutation, start: int = 0) -> Permutation:
        """Reduce p by transversal elements; identity means membership."""
        for i in range(start, len(self.base)):
            img = p[self.base[i]]
            if img == self.base[i]:
                continue
            u = self.orbits[i].get(img)
            if u is None:
                return p
            p = compose(inverse(u), p)
        return p

    def add_generator(self, g: Permutation) -> None:
        g = tuple(g)
        if moved_points(g) == 0:
            return
        level = 0
        while level < len(self.base) and g[self.base[level]] == self.base[level]:
            level += 1
        if level == len(self.base):
            self._append_level(min(i for i, j in enumerate(g) if i != j))
        self.stored[level].append(g)
        for i in range(level, -1, -1):
            self._complete_level(i)

    def _complete_level(self, i: int) -> None:
        """Restore the chain invariant at level i (deeper levels assumed good)."""
        while True:
            self._rebuild_orbit(i)
            clean = True
            gens = self._level_gens(i)
            for pt in sorted(self.orbits[i]):
                u_pt = self.orbits[i][pt]
                for g in gens:
                    u_img = self.orbits[i][g[pt]]
                    schreier = compose(inverse(u_img), compose(g, u_pt))
                    residue = self.sift(schreier, i + 1)
                    if moved_points(residue) == 0:
                        continue
                    lev = i + 1
                    while lev < len(self.base) and residue[self.base[lev]] == self.base[lev]:
                        lev += 1
                    if lev == len(self.base):
                        self._append_level(
                            min(a for a, c in enumerate(residue) if a != c)
                        )
                    self.stored[lev].append(residue)
                    for j in range(lev, i, -1):
                        self._complete_level(j)
                    clean = False
                    break
                if not clean:
                    break
            if clean:
                return

    # -- queries -------------------------------------------------------------

    def order(self, depth: int = 0) -> int:
        """Order of the pointwise stabilizer of base[:depth]."""
        return math.prod(len(orbit) for orbit in self.orbits[depth:])

    def transitivity(self) -> int:
        """Largest t with orbit sizes n, n-1, ..., n-t+1 >= 2 down the chain;
        the group is then t-transitive."""
        t = 0
        while t < len(self.orbits) and len(self.orbits[t]) == self.degree - t >= 2:
            t += 1
        return t

    def contains(self, p: Permutation) -> bool:
        return moved_points(self.sift(tuple(p))) == 0

    def element_chunks(
        self, max_chunk: int = 1 << 20, depth: int = 0
    ) -> Iterator[np.ndarray]:
        """Every element of the pointwise stabilizer of base[:depth] exactly
        once, as arrays of image rows.

        Elements are coset products down the chain, so no deduplication is
        needed and memory stays bounded by max_chunk rows per yield.
        """
        n = self.degree
        dtype = row_dtype(n)
        transversals = [
            [np.array(orbit[pt], dtype=dtype) for pt in sorted(orbit)]
            for orbit in self.orbits[depth:]
        ]
        split = len(transversals)
        inner = 1
        while split > 0 and inner * len(transversals[split - 1]) <= max_chunk:
            split -= 1
            inner *= len(transversals[split])
        block = np.arange(n, dtype=dtype)[None, :]
        for us in reversed(transversals[split:]):
            block = np.concatenate([u[block] for u in us], axis=0)
        for combo in itertools.product(*transversals[:split]):
            u = np.arange(n, dtype=dtype)
            for v in combo:
                u = u[v]
            yield u[block]


def group_order(group: PermGroup) -> int:
    """Exact order from the stabilizer chain, no element materialization."""
    return StabilizerChain(group.degree, group.generators).order()


def minimal_degree(
    group: PermGroup,
    mode: str = "exact",
    trials: int = 10**5,
    seed: int = 0,
    chain: Optional[StabilizerChain] = None,
) -> GroupFacts:
    """Minimum number of moved points over nontrivial elements.

    Exact mode scans elements through the stabilizer chain.  When the chain
    shows the group t-transitive with t >= 2 (`StabilizerChain.transitivity`),
    it scans only H, the pointwise stabilizer of the first t-1 base points.
    Every element fixing at least t-1 points is conjugate into H, every
    other element moves at least n-t+2 points, and H is transitive on the
    n-t+1 >= 2 points it does not fix, so H has an element moving at most
    n-t+1 points: the minimal degree of H is that of the group.  With t <= 1
    the whole group is scanned.  EXACT_SCAN_CAP bounds the elements scanned.
    Sampled mode walks random generator words and reports an upper bound.
    """
    if chain is None:
        chain = StabilizerChain(group.degree, group.generators)
    order = chain.order()
    n = group.degree
    if order == 1:
        raise ValueError("trivial group has no minimal degree")
    if mode == "exact":
        depth = max(chain.transitivity() - 1, 0)
        scanned = chain.order(depth)
        if scanned > EXACT_SCAN_CAP:
            raise ValueError(
                f"{scanned} elements to scan exceed exact-scan cap {EXACT_SCAN_CAP}"
            )
        ref = np.arange(n)
        best = n + 1
        for block in chain.element_chunks(depth=depth):
            movedcounts = (block != ref).sum(axis=1)
            nz = movedcounts[movedcounts > 0]
            if len(nz):
                best = min(best, int(nz.min()))
        return GroupFacts(order=order, minimal_degree=best, exact=True)
    if mode == "sampled":
        if trials < 1:
            raise ValueError(f"sampled scan needs trials >= 1, got {trials}")
        import random

        rng = random.Random(seed)
        gens = group.generators
        current = identity(n)
        best = n + 1
        for _ in range(trials):
            current = compose(current, rng.choice(gens))
            m = moved_points(current)
            if 0 < m < best:
                best = m
        return GroupFacts(order=order, minimal_degree=best, exact=False, trials=trials)
    raise ValueError(f"unknown mode {mode!r}")


def group_to_pa(group: PermGroup, facts: Optional[GroupFacts] = None) -> PermArray:
    """Materialize the group as a permutation array with distance = minimal
    degree (computed exactly when not supplied or not exact).

    Rows are the chain's elements in lexicographic order.  An order above
    EXACT_SCAN_CAP is refused before any row is built.
    """
    chain = StabilizerChain(group.degree, group.generators)
    order = chain.order()
    if order > EXACT_SCAN_CAP:
        raise ValueError(f"order {order} exceeds row cap {EXACT_SCAN_CAP}")
    if facts is None or not facts.exact:
        facts = minimal_degree(group, mode="exact", chain=chain)
    rows = np.concatenate(list(chain.element_chunks()))
    return PermArray(
        rows[np.lexsort(rows.T[::-1])],
        claimed_distance=facts.minimal_degree,
        provenance=f"group:{group.name or 'anonymous'}",
    )


# -- named constructions ------------------------------------------------------


def _affine_line(field: Field) -> list[Permutation]:
    q = field.q
    shift = tuple(field.add(x, 1) for x in range(q))
    scale = tuple(field.mul(field.primitive, x) for x in range(q))
    return [shift, scale]


def _agl1(q: int) -> PermGroup:
    F = field_for_order(q)
    return PermGroup(q, tuple(_affine_line(F)), name=f"agl1({q})")


def _pgl2(q: int) -> PermGroup:
    """Fractional-linear maps on the projective line; infinity is point q."""
    F = field_for_order(q)
    inf = q
    shift = tuple(F.add(x, 1) for x in range(q)) + (inf,)
    scale = tuple(F.mul(F.primitive, x) for x in range(q)) + (inf,)
    invert = tuple(inf if x == 0 else F.inv(x) for x in range(q)) + (0,)
    return PermGroup(q + 1, (shift, scale, invert), name=f"pgl2({q})")


def _vector_points(field: Field, d: int) -> list[tuple[int, ...]]:
    return [tuple(v) for v in itertools.product(range(field.q), repeat=d)]


def _agl(d: int, q: int) -> PermGroup:
    """Affine maps v -> Av + t on the d-dimensional space over GF(q)."""
    F = field_for_order(q)
    points = _vector_points(F, d)
    index = {v: i for i, v in enumerate(points)}

    def dot(row: Sequence[int], v: Sequence[int]) -> int:
        acc = 0
        for r, x in zip(row, v):
            acc = F.add(acc, F.mul(r, x))
        return acc

    def from_matrix(mat: Sequence[Sequence[int]]) -> Permutation:
        return tuple(index[tuple(dot(row, v) for row in mat)] for v in points)

    # Translation by the first unit vector.
    trans = tuple(
        index[(F.add(v[0], 1),) + v[1:]] for v in points
    )
    gens: list[Permutation] = [trans]
    if d == 1:
        if F.primitive != 1:
            gens.append(tuple(index[(F.mul(F.primitive, v[0]),)] for v in points))
    else:
        ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        if F.primitive != 1:
            diag = [row[:] for row in ident]
            diag[0][0] = F.primitive
            gens.append(from_matrix(diag))
        cyc = [[1 if j == (i + 1) % d else 0 for j in range(d)] for i in range(d)]
        gens.append(from_matrix(cyc))
        transvect = [row[:] for row in ident]
        transvect[0][1] = 1
        gens.append(from_matrix(transvect))
    return PermGroup(len(points), tuple(gens), name=f"agl{d}({q})")


def _sym(m: int) -> PermGroup:
    swap = (1, 0) + tuple(range(2, m))
    cycle = tuple(range(1, m)) + (0,)
    gens = (swap, cycle) if m > 2 else (swap,)
    return PermGroup(m, gens, name=f"sym({m})")


def _sym_pairs(m: int) -> PermGroup:
    """Action of the symmetric group on unordered pairs, lexicographic index."""
    if m < 3:
        raise ValueError("pair action needs m >= 3")
    pairs = list(itertools.combinations(range(m), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def induced(sigma: Permutation) -> Permutation:
        return tuple(index[tuple(sorted((sigma[i], sigma[j])))] for i, j in pairs)

    base = _sym(m)
    return PermGroup(
        len(pairs), tuple(induced(g) for g in base.generators), name=f"sym_pairs({m})"
    )


def parse_generator_text(text: str) -> PermGroup:
    """Parse generator data: '#' header lines, one image row per line."""
    name = ""
    degree = None
    expected_order = None
    gens = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, val = body.partition(":")
                key, val = key.strip().lower(), val.strip()
                if key == "name":
                    name = val
                elif key == "degree":
                    degree = int(val)
                elif key == "order":
                    expected_order = int(val)
            continue
        gens.append(tuple(int(tok) for tok in line.split()))
    if degree is None:
        degree = len(gens[0]) if gens else 0
    return PermGroup(degree, tuple(gens), name=name, expected_order=expected_order)


def load_generator_file(path: Union[str, Path]) -> PermGroup:
    return parse_generator_text(Path(path).read_text(encoding="utf-8"))


def _mathieu(n: int) -> PermGroup:
    if n not in (22, 23, 24):
        raise ValueError(f"no embedded generators for degree {n}")
    text = (
        resources.files("paforge.data").joinpath(f"m{n}.txt").read_text("utf-8")
    )
    return parse_generator_text(text)


def make_named(name: str, **params) -> PermGroup:
    """Build a named group; see the CLI for the accepted names."""
    key = name.lower()
    if key == "agl1":
        return _agl1(params["q"])
    if key == "pgl2":
        return _pgl2(params["q"])
    if key == "agl":
        return _agl(params["d"], params["q"])
    if key == "sym":
        return _sym(params["m"])
    if key == "sym_pairs":
        return _sym_pairs(params["m"])
    if key in ("mathieu22", "mathieu23", "mathieu24"):
        return _mathieu(int(key[-2:]))
    raise ValueError(f"unknown group name {name!r}")
