"""Permutation groups as arrays: order, minimal degree and element listing
through a stabilizer chain, and the named constructions used for the
group-based arrays.

The stabilizer chain is one incremental deterministic Schreier-Sims build
on numpy rows (Seress, *Permutation Group Algorithms*, 2003, 4.2; Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, 4.4): each new
base point is the smallest point moved by the residue that needs it, orbits
grow in place in discovery order, and no Schreier pair is sifted twice.
That makes orders, strong generators and element enumeration reproducible
run to run.  The chain is the only code that lists group elements: each
element is one product of coset representatives, one per level, so nothing
is deduplicated.

The exact minimal degree of a t-transitive group is read off the pointwise
stabilizer of the first t base points, or of the first t-1 when that one is
trivial (Dixon and Mortimer, *Permutation Groups*, 1996): see
`minimal_degree`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .field import field_for_order
from .pa import (
    MAX_DEGREE,
    PermArray,
    Permutation,
    identity,
    row_dtype,
)

#: Most elements that one call lists (`group_to_pa`) or scans (`minimal_degree`).
EXACT_SCAN_CAP = 1 << 24

#: Most steps, and most walk cells (steps times degree), of one segment of
#: the sampled scan; they bound its scratch memory.
_WALK_SEGMENT = 1 << 16
_WALK_CELLS = 1 << 22

#: Most rows in one block of `StabilizerChain.element_chunks`.
_CHUNK_ROWS = 1 << 20

#: Walk length of the sampled minimal-degree scan unless one is given.
DEFAULT_TRIALS = 10**5


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

    @functools.cached_property
    def chain(self) -> StabilizerChain:
        """The stabilizer chain, built on first use and shared by every query.
        A ValueError when its order contradicts `expected_order`."""
        chain = StabilizerChain(self.degree, self.generators)
        order = chain.order()
        if self.expected_order not in (None, order):
            raise ValueError(f"order {order}, header says {self.expected_order}")
        return chain


@dataclass(frozen=True)
class GroupFacts:
    """Order plus minimal-degree information for one group."""

    order: int
    minimal_degree: int
    exact: bool


class StabilizerChain:
    """Incremental deterministic Schreier-Sims stabilizer chain on numpy rows.

    Level i keeps base[i]; gens[i], the strong generators that fix base[:i];
    orbits[i], each point of the orbit of base[i] under gens[i], in
    discovery order, mapped to its coset representative u (u[base[i]] is
    the point) and to u's inverse; and _paired[i], for each orbit point how
    many of gens[i] have been paired with it.  All three only grow.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation]) -> None:
        self.degree = degree
        self._identity = np.arange(degree, dtype=row_dtype(degree))
        self._identity_bytes = self._identity.tobytes()
        self.base: list[int] = []
        self.gens: list[list[np.ndarray]] = []
        self.orbits: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        self._paired: list[dict[int, int]] = []
        for g in generators:
            g = np.asarray(g, dtype=self._identity.dtype)
            if g.tobytes() != self._identity_bytes:
                self._add_strong(g)
        level = len(self.base) - 1
        while level >= 0:
            residue = self._unsifted(level)
            level = level - 1 if residue is None else self._add_strong(residue)

    # -- construction ------------------------------------------------------

    def _add_strong(self, g: np.ndarray) -> int:
        """Make the nonidentity g a strong generator at the first level whose
        base point it moves, or at a new level based at the smallest point it
        moves when it fixes every base point; return that level."""
        moved = np.flatnonzero(g[self.base] != self.base)
        level = int(moved[0]) if len(moved) else len(self.base)
        if level == len(self.base):
            point = int(np.flatnonzero(g != self._identity)[0])
            self.base.append(point)
            self.gens.append([])
            self.orbits.append({point: (self._identity, self._identity)})
            self._paired.append({point: 0})
        for gens in self.gens[: level + 1]:
            gens.append(g)
        return level

    def _unsifted(self, level: int) -> Optional[np.ndarray]:
        """Extend orbits[level] and sift the Schreier generator of every
        (point, generator) pair not paired before; the first residue that is
        not the identity, or None when the level is complete.

        A pair whose image is new gives the image its representative and a
        trivial Schreier generator.  Representatives are never replaced and
        deeper levels only grow, so a pair that sifted clean stays clean and
        the pair that yields a residue is clean once the residue is stored:
        no pair is sifted twice."""
        orbit, gens, paired = self.orbits[level], self.gens[level], self._paired[level]
        points = list(orbit)
        for point in points:
            u = orbit[point][0]
            while paired[point] < len(gens):
                g = gens[paired[point]]
                paired[point] += 1
                image = int(g[point])
                gu = g.take(u)
                if image not in orbit:
                    inv = np.empty_like(gu)
                    inv[gu] = self._identity
                    orbit[image] = (gu, inv)
                    paired[image] = 0
                    points.append(image)
                    continue
                residue = self.sift(orbit[image][1].take(gu), level + 1)
                if residue.tobytes() != self._identity_bytes:
                    return residue
        return None

    def sift(self, p: np.ndarray, start: int = 0) -> np.ndarray:
        """Divide p by one coset representative per level from `start`, one
        gather with the stored inverse each; the identity means membership."""
        for i in range(start, len(self.base)):
            image = int(p[self.base[i]])
            if image == self.base[i]:
                continue
            entry = self.orbits[i].get(image)
            if entry is None:
                return p
            p = entry[1].take(p)
        return p

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
        p = np.asarray(p, dtype=self._identity.dtype)
        return self.sift(p).tobytes() == self._identity_bytes

    def element_chunks(self, depth: int = 0) -> Iterator[np.ndarray]:
        """Every element of the pointwise stabilizer of base[:depth] exactly
        once, as arrays of image rows.

        Elements are coset products down the chain, so no deduplication is
        needed and memory stays bounded by _CHUNK_ROWS rows per yield.
        """
        transversals = [
            [u for u, _ in orbit.values()] for orbit in self.orbits[depth:]
        ]
        split = len(transversals)
        inner = 1
        while split > 0 and inner * len(transversals[split - 1]) <= _CHUNK_ROWS:
            split -= 1
            inner *= len(transversals[split])
        block = self._identity[None, :]
        for us in reversed(transversals[split:]):
            block = np.concatenate([u[block] for u in us], axis=0)
        for combo in itertools.product(*transversals[:split]):
            u = self._identity
            for v in combo:
                u = u[v]
            yield u[block]


def group_order(group: PermGroup) -> int:
    """Exact order from the stabilizer chain, no element materialization."""
    return group.chain.order()


def check_row_cap(order: int) -> None:
    """Refuse to list a group of more than EXACT_SCAN_CAP elements."""
    if order > EXACT_SCAN_CAP:
        raise ValueError(f"order {order} exceeds row cap {EXACT_SCAN_CAP}")


def _scan_depth(chain: StabilizerChain) -> int:
    """Base points fixed by the exact minimal-degree scan: t for a
    t-transitive group whose t-point stabilizer is nontrivial, else t-1
    (none for t = 0)."""
    t = chain.transitivity()
    return t if chain.order(t) > 1 else max(t - 1, 0)


def minimal_degree(
    group: PermGroup,
    mode: str = "exact",
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> GroupFacts:
    """Minimum number of moved points over nontrivial elements.

    Exact mode scans elements through the stabilizer chain.  Let the chain
    show the group t-transitive (`StabilizerChain.transitivity`) and let K
    be the pointwise stabilizer of the first t base points.  Every element
    fixing at least t points is conjugate into K, and every other element
    moves at least n-t+1 points, more than any element of K moves.  So when
    K is nontrivial its minimal degree is that of the group, and only K is
    scanned.  When K is trivial (the group is sharply t-transitive, t >= 1),
    the scan takes H, the pointwise stabilizer of the first t-1 base points:
    every element fixing at least t-1 points is conjugate into H, every
    other one moves at least n-t+2 points, and H is transitive on the
    n-t+1 >= 2 points it does not fix, so it has an element moving at most
    n-t+1 points.  With t = 0 the whole group is scanned.  EXACT_SCAN_CAP
    bounds the elements scanned.

    Sampled mode reports an upper bound: the least nonzero moved-point
    count over the walk P_t = P_(t-1)[g_t], t = 1..trials, from the
    identity, where each g_t is one `rng.choice` over the generators.  The
    draws are made in order, one per step, so every seed walks the same
    word as a one-composition-per-step loop.  Composition is associative,
    so `_walk_segment` may compute the same prefix products P_t in blocks;
    it visits exactly the elements that loop visits and the bound is the
    same.  Segments of at most _WALK_SEGMENT steps carry their last element
    into the next, so scratch memory does not grow with trials.
    """
    chain = group.chain
    order = chain.order()
    n = group.degree
    if order == 1:
        raise ValueError("trivial group has no minimal degree")
    if mode == "exact":
        depth = _scan_depth(chain)
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
        rng = random.Random(seed)
        gens = np.array(group.generators + (identity(n),), dtype=row_dtype(n))
        picks = range(len(group.generators))
        segment = max(1, min(_WALK_SEGMENT, _WALK_CELLS // n))
        carry = gens[-1]
        best = n + 1
        for done in range(0, trials, segment):
            steps = min(segment, trials - done)
            word = np.fromiter(
                map(rng.choice, itertools.repeat(picks, steps)), np.intp, steps
            )
            carry, least = _walk_segment(gens, word, carry)
            best = min(best, least)
        return GroupFacts(order=order, minimal_degree=best, exact=False)
    raise ValueError(f"unknown mode {mode!r}")


def _walk_segment(
    gens: np.ndarray, word: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, int]:
    """Walk P_t = P_(t-1)[gens[word[t]]] from P_0 = start as a blocked scan.

    The word is cut into blocks of about sqrt(len(word)) steps, padded with
    the identity (the last row of gens).  Every block steps from the
    identity at once, one gather per position; one pass over the blocks
    carries each block's prefix C in front of it.  P = C[L] moves x exactly
    when L[x] != C^-1[x], so one comparison with the inverse prefixes
    counts the moved points of every element.  Returns the last element and
    the least nonzero moved-point count (degree + 1 when there is none).
    """
    n = gens.shape[1]
    width = math.isqrt(len(word) - 1) + 1
    blocks = -(-len(word) // width)
    word = np.concatenate([word, np.full(blocks * width - len(word), len(gens) - 1)])
    word = word.reshape(blocks, width).T
    # local[j, b] is the product of block b's first j+1 steps.
    local = np.empty((width, blocks, n), dtype=gens.dtype)
    local[0] = gens[word[0]]
    rows = np.arange(0, blocks * n, n)[:, None]
    for j in range(1, width):
        local[j] = local[j - 1].ravel()[gens[word[j]] + rows]
    prefix = np.empty((blocks, n), dtype=gens.dtype)
    prefix[0] = start
    for b in range(1, blocks):
        prefix[b] = prefix[b - 1][local[-1, b - 1]]
    inverse_prefix = np.argsort(prefix, axis=1).astype(gens.dtype)
    moved = (local != inverse_prefix).sum(axis=2)
    moved = moved[moved > 0]
    least = int(moved.min()) if len(moved) else n + 1
    return prefix[-1][local[-1, -1]], least


def group_to_pa(group: PermGroup, facts: Optional[GroupFacts] = None) -> PermArray:
    """Materialize the group as a permutation array with distance = minimal
    degree (computed exactly when not supplied or not exact).

    Rows are the chain's elements in lexicographic order.  An order above
    EXACT_SCAN_CAP is refused before any row is built.
    """
    check_row_cap(group_order(group))
    if facts is None or not facts.exact:
        facts = minimal_degree(group, mode="exact")
    rows = np.concatenate(list(group.chain.element_chunks()))
    return PermArray(
        rows[np.lexsort(rows.T[::-1])],
        claimed_distance=facts.minimal_degree,
        provenance=f"group:{group.name or 'anonymous'}",
    )


# -- named constructions ------------------------------------------------------


def _check_points(name: str, count: int) -> None:
    """Refuse a named group on more than MAX_DEGREE points before any point
    is built."""
    if count > MAX_DEGREE:
        raise ValueError(f"{name} acts on more than {MAX_DEGREE} points")


def _pgl2(q: int) -> PermGroup:
    """Fractional-linear maps on the projective line; infinity is point q.
    The scale map is left out when it is the identity (q = 2)."""
    _check_points(f"pgl2({q})", q + 1)
    F = field_for_order(q)
    inf = q
    shift = tuple(F.add(x, 1) for x in range(q)) + (inf,)
    scale = tuple(F.mul(F.primitive, x) for x in range(q)) + (inf,)
    invert = tuple(inf if x == 0 else F.inv(x) for x in range(q)) + (0,)
    gens = (shift, scale, invert) if F.primitive != 1 else (shift, invert)
    return PermGroup(q + 1, gens, name=f"pgl2({q})")


def _agl(d: int, q: int) -> PermGroup:
    """Affine maps v -> Av + t on the d-dimensional space over GF(q),
    generated by coordinate maps: v0 + 1, then g*v0 unless g = 1 (q = 2),
    and for d > 1 the coordinate cycle and v0 + v1."""
    if d < 1:
        raise ValueError(f"affine group needs dimension d >= 1, got {d}")
    # Every q >= 2 passes the limit by d = 17, so the power stops there.
    _check_points(f"agl{d}({q})", q ** min(d, MAX_DEGREE.bit_length()))
    F = field_for_order(q)
    points = list(itertools.product(range(q), repeat=d))
    index = {v: i for i, v in enumerate(points)}
    maps = [lambda v: (F.add(v[0], 1),) + v[1:]]
    if F.primitive != 1:
        maps.append(lambda v: (F.mul(F.primitive, v[0]),) + v[1:])
    if d > 1:
        maps += [lambda v: v[1:] + v[:1], lambda v: (F.add(v[0], v[1]),) + v[1:]]
    gens = tuple(tuple(index[f(v)] for v in points) for f in maps)
    return PermGroup(len(points), gens, name=f"agl{d}({q})")


def _sym(m: int) -> PermGroup:
    _check_points(f"sym({m})", m)
    swap = (1, 0) + tuple(range(2, m))
    cycle = tuple(range(1, m)) + (0,)
    gens = (swap, cycle) if m > 2 else (swap,)
    return PermGroup(m, gens, name=f"sym({m})")


def _sym_pairs(m: int) -> PermGroup:
    """Action of the symmetric group on unordered pairs, lexicographic index."""
    if m < 3:
        raise ValueError("pair action needs m >= 3")
    _check_points(f"sym_pairs({m})", m * (m - 1) // 2)
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
        return _agl(1, params["q"])
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
