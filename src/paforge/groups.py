"""Permutation groups as arrays: order, minimal degree and element listing
through a stabilizer chain, and the named constructions used for the
group-based arrays.

The stabilizer chain is one incremental deterministic Schreier-Sims build
on numpy rows (Seress, *Permutation Group Algorithms*, 2003, 4.2; Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, 4.4): each new
base point is the smallest point moved by the residue that needs it, orbits
grow in place in discovery order, and no Schreier pair is sifted twice.
That makes orders, strong generators and element enumeration reproducible
run to run.  Each element is one product of coset representatives, one per
level, so nothing is deduplicated, and one expander (`_lex_expand`)
multiplies them out for both listings: the minimal-degree scan
(`StabilizerChain.element_chunks`, one stage per level, in transversal
order) and the lexicographic rows of `group_to_pa` (`_lex_blocks`, stages
sorted by their key points).

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

from . import pa
from .field import field_for_order
from .pa import (
    MAX_DEGREE,
    PermArray,
    Permutation,
    _filled,
    header_fields,
    identity,
    ordered_blocks,
    row_dtype,
    write_blocks,
)

#: Most elements that one call lists (`group_to_pa`) or scans (`minimal_degree`).
EXACT_SCAN_CAP = 1 << 24
#: Most rows x points cells that one emit lists.  An `sfp` emit holds its
#: rows, about 2.2 bytes a cell at its peak (q = 509, k = 1: 131.6M cells,
#: 295 MB); a group emit streams them, so its peak does not grow with the
#: array (sym(10): 36.3M cells, 32.9 MB; M23: 234.6M cells, 33.3 MB).  31 MB
#: of each is the import.  The cap admits the M23 array of the published
#: bounds.
EMIT_CELL_CAP = 1 << 28

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

    def transversal_product(self, start: int, stop: Optional[int] = None) -> np.ndarray:
        """Every product u_start[u_(start+1)[...]] of one coset representative
        per level of base[start:stop], as rows, the deepest level varying
        fastest: one element of each coset of the pointwise stabilizer of
        base[:stop] in that of base[:start]."""
        block = self._identity[None, :]
        for orbit in reversed(self.orbits[start:stop]):
            block = np.concatenate([u[block] for u, _ in orbit.values()], axis=0)
        return block

    def element_chunks(self, depth: int = 0) -> Iterator[np.ndarray]:
        """Every element of the pointwise stabilizer of base[:depth] exactly
        once, in the order of `transversal_product(depth)`, as blocks of at
        most _BLOCK_CELLS cells and at least one row, each a view of a reused
        buffer that the next block overwrites.

        Elements are coset products down the chain, so no deduplication is
        needed: `_expand` multiplies them out one level per stage, with no
        key points, so each stage keeps transversal order.
        """
        return _expand(self, [(i, i + 1, ()) for i in range(depth, len(self.base))])


def group_order(group: PermGroup) -> int:
    """Exact order from the stabilizer chain, no element materialization."""
    return group.chain.order()


def check_row_cap(rows: int, n: int) -> None:
    """Refuse to emit more than EXACT_SCAN_CAP rows, or rows of n points
    that hold more than EMIT_CELL_CAP cells."""
    if rows > EXACT_SCAN_CAP:
        raise ValueError(f"{rows} rows exceed the row cap {EXACT_SCAN_CAP}")
    if rows * n > EMIT_CELL_CAP:
        raise ValueError(f"{rows} rows of {n} points exceed the cell cap {EMIT_CELL_CAP}")


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
    identity, where each g_t is one `rng.choice` over the generators.
    `_choices` draws the same words in bulk, so every seed walks the same
    word as a one-composition-per-step loop.  Composition is associative,
    so `_walk_segment` may compute the same prefix products P_t in blocks;
    it visits exactly the elements that loop visits and the bound is the
    same.  A step holds n walk cells and about 32 bytes of words and
    counts, so segments of _BLOCK_CELLS/(n + 32) steps, each carrying its
    last element into the next, hold about one block (0.4 MiB traced for
    M24) however many trials there are.
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
        segment = max(1, pa._BLOCK_CELLS // (n + 32))
        carry = gens[-1]
        best = n + 1
        for done in range(0, trials, segment):
            word = _choices(rng, len(group.generators), min(segment, trials - done))
            carry, least = _walk_segment(gens, word, carry)
            best = min(best, least)
        return GroupFacts(order=order, minimal_degree=best, exact=False)
    raise ValueError(f"unknown mode {mode!r}")


def _choices(rng: random.Random, g: int, steps: int) -> np.ndarray:
    """The next `steps` results of rng.choice(range(g)), from the same
    words: each choice keeps the top g.bit_length() bits of one 32-bit
    word and draws again at g or above.  The words come in bulk, as many
    as results are missing, so none past the last one used is drawn."""
    parts, missing = [], steps
    while missing:
        bits = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        words = np.frombuffer(bits, "<u4") >> (32 - g.bit_length())
        parts.append(words[words < g])
        missing -= len(parts[-1])
    return np.concatenate(parts).astype(np.intp)


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


def _lex_stages(chain: StabilizerChain) -> list[tuple[int, int, np.ndarray]]:
    """The stages (start, stop, key points) of `group_to_pa`'s listing: a
    stage ends at the first level stop after which every point moved by
    the stabilizer of base[:stop] lies past b, the largest of
    base[start:stop], or at the last level; its key points are those up to
    b that the stabilizer of base[:start] moves."""
    moved = [
        np.flatnonzero((np.stack(gens) != chain._identity).any(axis=0)) for gens in chain.gens
    ]
    stages: list[tuple[int, int, np.ndarray]] = []
    start = 0
    while start < len(chain.base):
        stop = start + 1
        while stop < len(chain.base) and max(chain.base[start:stop]) > moved[stop][0]:
            stop += 1
        top = max(chain.base[start:stop])
        stages.append((start, stop, moved[start][moved[start] <= top]))
        start = stop
    return stages


def _lex_blocks(chain: StabilizerChain) -> Iterator[np.ndarray]:
    """The chain's elements in lexicographic order (see `group_to_pa`), in
    blocks of at most _BLOCK_CELLS cells and at least one row, each a view
    of one row buffer that the next block overwrites."""
    return _expand(chain, _lex_stages(chain))


def _expand(chain: StabilizerChain, plan: Sequence[tuple]) -> Iterator[np.ndarray]:
    """`_lex_expand` from the identity through the stages (start, stop, key
    points) of `plan`, each the `transversal_product` of its levels, with
    one row buffer of a block and one spare buffer that serve every block."""
    stages = [(chain.transversal_product(start, stop), keys) for start, stop, keys in plan]
    n = chain.degree
    out = np.empty((max(1, pa._BLOCK_CELLS // n), n), chain._identity.dtype)
    spare = np.empty(max([out.size] + [p.size for p, _ in stages]), out.dtype)
    return _lex_expand(stages, chain._identity[None, :], out, spare)


def _lex_expand(
    stages: list[tuple[np.ndarray, Sequence[int]]],
    prefixes: np.ndarray,
    out: np.ndarray,
    spare: np.ndarray,
) -> Iterator[np.ndarray]:
    """The products p[q_1[q_2[...]]] of each of the ordered prefixes p with
    one transversal product q_i per stage, prefix-major: the only code that
    multiplies coset representatives into listed elements.  A block of
    prefixes at a time, bounded in cells, each prefix's products with the
    first stage's are built in spare, sorted by that stage's key points (a
    stage with none keeps transversal order), then passed on to the next
    stage or, at the last, yielded len(out) rows at a time, gathered into
    out when sorted and as views of spare when not.  Both
    buffers serve every block (a block's products fit in max(out.size,
    products.size) cells): a fresh quarter-MiB array per block made the
    allocator map and zero new pages for every block."""
    if not stages:
        yield prefixes
        return
    (products, keys), rest = stages[0], stages[1:]
    n = products.shape[1]
    step = max(1, pa._BLOCK_CELLS // products.size)
    for lo in range(0, len(prefixes), step):
        block = prefixes[lo : lo + step]
        cells = spare[: len(block) * products.size].reshape(len(block), *products.shape)
        children = np.take(block, products, axis=1, out=cells, mode="clip").reshape(-1, n)
        order = None
        if len(keys):
            order = np.lexsort(np.moveaxis(block[:, products[:, keys[::-1]]], 2, 0), axis=-1)
            order += np.arange(0, order.size, len(products))[:, None]
            order = order.ravel()
        if rest:  # spare is free again once its rows are copied out in order
            ordered = children.copy() if order is None else children[order]
            yield from _lex_expand(rest, ordered, out, spare)
            continue
        for at in range(0, len(children), len(out)):
            if order is None:
                yield children[at : at + len(out)]
                continue
            part = order[at : at + len(out)]
            # indices in range; mode="raise" would buffer the output
            yield np.take(children, part, axis=0, out=out[: len(part)], mode="clip")


def group_to_pa(
    group: PermGroup,
    facts: Optional[GroupFacts] = None,
    path: Union[str, Path, None] = None,
) -> Optional[PermArray]:
    """Materialize the group as a permutation array with distance = minimal
    degree (computed exactly when not supplied or not exact), or with a
    path, write it there (`pa.write_blocks`) and return None.

    Rows are the chain's elements in lexicographic order, listed stage by
    stage a block at a time (`_lex_blocks`), with no sort of the whole list.
    Let G_i fix base[:i] pointwise.  A stage is a run of levels start..stop
    (`_lex_stages`); every element reads p[q[k]], with p a product of coset
    representatives of the levels before the stage, q one of the stage's
    levels (`transversal_product`) and k in G_stop.  At every point that
    G_start fixes the element reads p, and at every point that G_stop fixes
    it reads p[q].  The stage ends at the first stop where every point that
    G_stop moves lies past b, the stage's largest base point, or at the
    last level.  Two distinct q lie in distinct cosets of G_stop, so they
    differ at a base point of the stage; two elements of one coset
    p G_start with distinct q therefore first differ at a point up to b
    that G_start moves and G_stop fixes, where they read p[q].  So sorting
    each prefix's products p[q] by those key points and expanding them in
    that order, stage after stage, lists the rows in lexicographic order;
    at the last stage k is the identity.

    The array is held in one row buffer that `PermArray` checks.  Written
    to a path, no row is held: each block is checked as `PermArray` checks
    rows (`pa.ordered_blocks`; the order proves them distinct) before it is
    written, and the file is removed when one fails.  More rows or cells
    than `check_row_cap` admits are refused before any row is built or the
    file is opened.
    """
    chain = group.chain
    check_row_cap(chain.order(), group.degree)
    if facts is None or not facts.exact:
        facts = minimal_degree(group, mode="exact")
    provenance = f"group:{group.name or 'anonymous'}"
    fields = header_fields(group.degree, chain.order(), facts.minimal_degree, provenance)
    blocks = _lex_blocks(chain)
    if path is not None:
        write_blocks(path, fields, ordered_blocks(fields, blocks))
        return None
    return PermArray(
        _filled(blocks, group.degree, chain.order()),
        claimed_distance=facts.minimal_degree,
        provenance=provenance,
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
    if m < 2:
        raise ValueError("symmetric group needs m >= 2")
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

    def param(p: str) -> int:
        if p not in params:
            raise ValueError(f"{key} needs the parameter {p}")
        return params[p]

    if key == "agl1":
        return _agl(1, param("q"))
    if key == "pgl2":
        return _pgl2(param("q"))
    if key == "agl":
        return _agl(param("d"), param("q"))
    if key == "sym":
        return _sym(param("m"))
    if key == "sym_pairs":
        return _sym_pairs(param("m"))
    if key in ("mathieu22", "mathieu23", "mathieu24"):
        return _mathieu(int(key[-2:]))
    raise ValueError(f"unknown group name {name!r}")
