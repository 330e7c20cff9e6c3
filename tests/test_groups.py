"""Groups: stabilizer-chain orders and element listing, minimal degree,
named constructions, and the embedded sporadic generator data.  A
breadth-first closure kept here is the independent oracle for the chain."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import traced_peak
from paforge import groups as groups_module
from paforge import pa as pa_module
from paforge import parallel
from paforge.groups import (
    DEFAULT_TRIALS,
    PermGroup,
    StabilizerChain,
    _choices,
    _lex_stages,
    _scan_depth,
    group_order,
    group_to_pa,
    make_named,
    minimal_degree,
    parse_generator_text,
)
from paforge.pa import MAX_DEGREE, identity, row_dtype, write_pa
from reference import compose, contains, exact_min_distance, inverse, is_sharply_k_transitive
from reference import load_generator_file, moved_points, sharpness_matches_distance


def group_closure(group):
    """All elements by breadth-first closure, canonically sorted rows."""
    n = group.degree
    dtype = row_dtype(n)
    gens = np.array(group.generators, dtype=np.int64)
    elements = np.arange(n, dtype=dtype)[None, :]
    frontier = elements
    while len(frontier):
        images = np.concatenate([frontier[:, g] for g in gens], axis=0)
        images = np.unique(images, axis=0)
        merged = np.unique(np.concatenate([elements, images], axis=0), axis=0)
        if len(merged) == len(elements):
            break
        # New rows = those in merged but absent from elements.
        keys_old = {row.tobytes() for row in elements}
        fresh = [row for row in merged if row.tobytes() not in keys_old]
        frontier = np.array(fresh, dtype=dtype).reshape(len(fresh), n)
        elements = merged
    return elements


def whole_chain_min_degree(group):
    """Minimal degree by scanning every coset product of the chain, built
    by `transversal_product`, not by the listing's expander."""
    chain = StabilizerChain(group.degree, group.generators)
    moved = (chain.transversal_product(0) != np.arange(group.degree)).sum(axis=1)
    return int(moved[moved > 0].min())


def random_group(seed):
    """Generators permute random subsets of 10 points, so bases start late,
    skip points and leave moved points below fixed ones; order 2..50,000."""
    rng = random.Random(seed)
    n, order = 10, 1
    while not 1 < order <= 50_000:
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(2, 6))
            g = list(range(n))
            for a, b in zip(support, rng.sample(support, len(support))):
                g[a] = b
            gens.append(tuple(g))
        grp = PermGroup(n, tuple(gens))
        order = group_order(grp)
    return grp


def test_cyclic_closure():
    g = PermGroup(3, ((1, 2, 0),))
    rows = group_closure(g)
    assert len(rows) == 3


def test_agl1_closure_size():
    rows = group_closure(make_named("agl1", q=5))
    assert len(rows) == 20
    # Canonical order: rows sorted lexicographically, identity first.
    assert rows[0].tolist() == [0, 1, 2, 3, 4]
    assert (rows == np.unique(rows, axis=0)).all()


def test_closure_cap(monkeypatch):
    # sym(11) has order 39916800 > 2**24: refused before any row is listed;
    # the scan's chunks and the ordered listing both start from the stage
    # products of transversal_product.
    def no_listing(*args, **kwargs):
        raise AssertionError("rows were materialized")

    monkeypatch.setattr(StabilizerChain, "element_chunks", no_listing)
    monkeypatch.setattr(StabilizerChain, "transversal_product", no_listing)
    with pytest.raises(ValueError, match="row cap"):
        group_to_pa(make_named("sym", m=11))


def test_group_to_pa_rows_match_closure():
    for name, params in [
        ("agl1", {"q": 5}),
        ("agl1", {"q": 8}),
        ("pgl2", {"q": 7}),
        ("sym", {"m": 5}),
        ("sym_pairs", {"m": 5}),
        ("agl", {"d": 2, "q": 3}),
    ]:
        grp = make_named(name, **params)
        assert np.array_equal(group_to_pa(grp).rows, group_closure(grp))


# Base [3, 5, 1]: points 6 and 7 lie past the last base point.
SPREAD_BASE = "0 1 2 4 3 5 6 7\n0 1 2 3 4 6 7 5\n0 2 1 3 4 5 6 7\n"

# Sym{3, 5, 6, 8} x Sym{1, 2}, base [5, 1, 3, 6]: the stabilizer of 5 still
# moves 1, 2 and 3, so the listing's first stage takes three levels.
LATE_BASE = "0 1 2 3 4 6 8 7 5\n0 1 2 5 4 3 6 7 8\n0 2 1 3 4 5 6 7 8\n"


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_named("agl1", q=7),
        lambda: make_named("pgl2", q=8),
        lambda: make_named("agl", d=2, q=3),
        lambda: make_named("sym", m=5),
        lambda: make_named("sym_pairs", m=5),
        lambda: parse_generator_text(SPREAD_BASE),
        lambda: parse_generator_text(LATE_BASE),
        lambda: make_named("mathieu22"),
    ],
    ids=["agl1", "pgl2", "agl", "sym", "sym_pairs", "spread_base", "late_base", "mathieu22"],
)
def test_group_to_pa_sorts_by_base_columns_as_by_all(make):
    # Oracle: the chain's elements, lexsorted over every column.
    grp = make()
    rows = grp.chain.transversal_product(0)
    assert np.array_equal(group_to_pa(grp).rows, rows[np.lexsort(rows.T[::-1])])


def test_spread_base_leaves_columns_past_it():
    grp = parse_generator_text(SPREAD_BASE)
    assert grp.chain.base == [3, 5, 1] and group_order(grp) == 12


def test_late_base_merges_listing_stages():
    grp = parse_generator_text(LATE_BASE)
    assert grp.chain.base == [5, 1, 3, 6] and group_order(grp) == 48
    stages = [(start, stop, keys.tolist()) for start, stop, keys in _lex_stages(grp.chain)]
    assert stages == [(0, 3, [1, 2, 3, 5]), (3, 4, [6])]


@pytest.mark.parametrize("seed", range(30))
def test_ordered_listing_matches_lexsort_on_random_groups(seed):
    grp = random_group(seed)
    rows = grp.chain.transversal_product(0)
    assert np.array_equal(group_to_pa(grp).rows, rows[np.lexsort(rows.T[::-1])])


def test_mathieu22_listing_peaks_under_2_bytes_a_cell():
    # One row buffer and blocks of scratch; the concatenate-lexsort-copy
    # listing peaked at 3.36 bytes a cell.
    grp = make_named("mathieu22")
    pa, peak = traced_peak(lambda: group_to_pa(grp))
    assert pa.M == 443520 and peak <= 2 * pa.rows.size, peak / pa.rows.size


@pytest.mark.parametrize("suffix", [".txt", ".json"])
@pytest.mark.parametrize(
    "make, rows",
    [
        (lambda: make_named("mathieu22"), 1000),
        (lambda: make_named("sym", m=8), 5),
        (lambda: make_named("pgl2", q=27), 5),
        (lambda: make_named("agl1", q=64), 5),
        (lambda: make_named("agl", d=2, q=4), 5),
        (lambda: make_named("sym_pairs", m=8), 5),
        (lambda: parse_generator_text(LATE_BASE), 5),
    ],
    ids=["mathieu22", "sym8", "pgl2_27", "agl1_64", "agl_2_4", "sym_pairs8", "late_base"],
)
def test_streamed_emit_writes_the_in_memory_bytes(tmp_path, monkeypatch, make, rows, suffix):
    # Oracle: the in-memory array, written by write_pa.  The stream lists
    # blocks of a few rows, which split a prefix's products and end
    # between prefixes and between stages; every boundary is checked.
    grp = make()
    oracle = tmp_path / f"oracle{suffix}"
    write_pa(group_to_pa(grp), oracle)
    monkeypatch.setattr(parallel, "BLOCK_CELLS", rows * grp.degree)
    path = tmp_path / f"streamed{suffix}"
    assert group_to_pa(grp, path=path) is None
    assert path.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize(
    "make",
    [lambda: make_named("mathieu22"), lambda: make_named("sym", m=10)],
    ids=["mathieu22", "sym10"],
)
def test_streamed_emit_peak_does_not_grow_with_the_array(tmp_path, make):
    # 9.8M and 36.3M cells; held whole, the rows alone take 9.3 and
    # 34.6 MiB.  The stream holds the stage products, two reused buffers
    # of a block and the sorted products of the stages before the last,
    # and checks and formats a block in smaller steps: 1.86 and 1.60 MiB
    # measured (traced), 5.16 and 4.22 when the checks and the formatter
    # took a whole block at once and each stage held its unsorted products.
    grp = make()
    facts = minimal_degree(grp, "exact")  # scanned outside the trace
    path = tmp_path / "a.txt"
    _, peak = traced_peak(lambda: group_to_pa(grp, facts, path))
    assert path.stat().st_size > 20 * grp.chain.order()
    assert peak <= 2.25 * 2**20, peak


def test_caps_refuse_a_streamed_emit_before_listing_or_opening(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("rows were listed or the file was opened")

    monkeypatch.setattr(StabilizerChain, "element_chunks", unreachable)
    monkeypatch.setattr(StabilizerChain, "transversal_product", unreachable)
    monkeypatch.setattr(groups_module, "write_blocks", unreachable)
    path = tmp_path / "s11.txt"
    with pytest.raises(ValueError, match="row cap"):
        group_to_pa(make_named("sym", m=11), path=path)
    monkeypatch.setattr(groups_module, "EMIT_CELL_CAP", 100)
    with pytest.raises(ValueError, match="cell cap"):
        group_to_pa(make_named("sym", m=5), path=path)
    assert not path.exists()


def test_group_order_s4():
    g = PermGroup(4, ((1, 0, 2, 3), (1, 2, 3, 0)))
    assert group_order(g) == 24


def test_group_axioms_spot_check():
    rng = random.Random(0)
    for name, params in [("agl1", {"q": 7}), ("pgl2", {"q": 5}), ("sym_pairs", {"m": 5})]:
        grp = make_named(name, **params)
        rows = [tuple(int(x) for x in r) for r in group_closure(grp)]
        members = set(rows)
        assert identity(grp.degree) in members
        assert len(rows) == group_order(grp)
        for _ in range(60):
            p, r = rng.choice(rows), rng.choice(rows)
            assert compose(p, r) in members
            assert inverse(p) in members


def test_chain_membership():
    grp = make_named("pgl2", q=5)
    chain = StabilizerChain(grp.degree, grp.generators)
    rows = group_closure(grp)
    for r in rows[:: 7]:
        assert contains(chain, tuple(int(x) for x in r))
    assert not contains(chain, (1, 0, 2, 3, 4, 5))  # odd-looking transposition


def test_element_chunks_enumerate_exactly_once(monkeypatch):
    grp = make_named("sym_pairs", m=5)
    monkeypatch.setattr(parallel, "BLOCK_CELLS", 16 * grp.degree)
    chain = StabilizerChain(grp.degree, grp.generators)
    blocks = [block.copy() for block in chain.element_chunks()]  # views of reused buffers
    assert len(blocks) > 1 and max(map(len, blocks)) <= 16
    seen = set()
    for block in blocks:
        for row in block:
            seen.add(tuple(int(x) for x in row))
    closure_keys = {tuple(int(x) for x in r) for r in group_closure(grp)}
    assert seen == closure_keys


def assert_scan_listing_keeps_its_sequence(monkeypatch, grp):
    """Oracle: transversal_product, which builds the same coset products
    without the listing's expander.  Blocks of one row, of two rows and of
    the whole group list the same elements in the same order, at depth 0
    and at the depth of the exact minimal-degree scan, and no block holds
    more rows than the budget."""
    chain = StabilizerChain(grp.degree, grp.generators)
    for depth in sorted({0, _scan_depth(chain)}):
        oracle = chain.transversal_product(depth)
        assert len(oracle) == chain.order(depth)
        for rows in (1, 2, 1 << 20):
            monkeypatch.setattr(parallel, "BLOCK_CELLS", rows * grp.degree)
            blocks = [block.copy() for block in chain.element_chunks(depth)]
            assert max(map(len, blocks)) <= rows
            assert np.array_equal(np.concatenate(blocks), oracle)


@pytest.mark.parametrize("name, params", [("sym_pairs", {"m": 6}), ("pgl2", {"q": 7})])
def test_element_chunks_keep_their_sequence_at_any_cell_budget(monkeypatch, name, params):
    # pgl2(7)'s deepest orbit of 6 points outgrows a budget of 2 rows.
    assert_scan_listing_keeps_its_sequence(monkeypatch, make_named(name, **params))


@pytest.mark.parametrize("seed", range(30))
def test_scan_listing_keeps_its_sequence_on_random_groups(monkeypatch, seed):
    assert_scan_listing_keeps_its_sequence(monkeypatch, random_group(seed))


def test_exact_scan_holds_blocks_bounded_in_cells():
    # sym_pairs(11) scans 8! * 9 elements of 55 points at its scan depth;
    # blocks of 2^20 rows held 119.8 MiB (traced).  The listing takes one
    # stage per level and holds, besides its two block buffers, a copy of
    # at most BLOCK_CELLS cells at each of the 7 levels before the last:
    # 2.02 MiB measured (0.25 when a block was one walk over the deepest
    # levels).
    grp = make_named("sym_pairs", m=11)
    grp.chain.order()  # the chain is built outside the trace
    facts, peak = traced_peak(lambda: minimal_degree(grp, "exact"))
    assert facts.minimal_degree == 18
    assert peak < 4 << 20, peak
    # M23 scans the 48 elements of its 4-point stabilizer: 0.52 MiB with
    # block buffers of BLOCK_CELLS cells, 17 KiB with buffers capped at the
    # listing's rows (traced).
    grp = make_named("mathieu23")
    grp.chain.order()
    facts, peak = traced_peak(lambda: minimal_degree(grp, "exact"))
    assert facts.minimal_degree == 16
    assert peak < 32 << 10, peak


def test_minimal_degree_examples():
    assert minimal_degree(make_named("agl1", q=5)).minimal_degree == 4
    facts = minimal_degree(make_named("sym_pairs", m=5))
    assert facts.minimal_degree == 6  # 2m - 4 for m = 5


def test_minimal_degree_pair_action_formula():
    for m in (5, 6):
        facts = minimal_degree(make_named("sym_pairs", m=m))
        assert facts.minimal_degree == 2 * m - 4


def test_minimal_degree_rejects_trivial_group(monkeypatch):
    trivial = PermGroup(3, ((0, 1, 2),))
    with pytest.raises(ValueError):
        minimal_degree(trivial)

    def no_walk(*args, **kwargs):
        raise AssertionError("the sampled walk started")

    monkeypatch.setattr(random, "Random", no_walk)
    with pytest.raises(ValueError, match="trivial"):
        minimal_degree(trivial, "sampled")


def sampled_walk_oracle(group, trials, seed):
    """The sampled scan one tuple composition at a time: the same seeded
    generator choices, the least nonzero moved-point count seen."""
    rng = random.Random(seed)
    current = identity(group.degree)
    best = group.degree + 1
    for _ in range(trials):
        current = compose(current, rng.choice(group.generators))
        m = moved_points(current)
        if 0 < m < best:
            best = m
    return best


def test_sampled_walk_matches_composition_oracle():
    cases = [
        (grp, seed, trials)
        for grp in [
            make_named("mathieu22"),
            make_named("mathieu24"),
            make_named("sym_pairs", m=6),
            make_named("agl1", q=7),
            make_named("sym", m=5),
            make_named("sym", m=2),  # the walk keeps returning to the identity
        ]
        for seed in (0, 1, 7, 99)
        for trials in (1, 3, 50, 2000)
    ]
    # More than one scan segment, not a multiple of the block length.
    for grp in (make_named("sym", m=5), make_named("agl1", q=7)):
        segment = parallel.BLOCK_CELLS // (grp.degree + 32)
        cases += [(grp, seed, segment + 3) for seed in (0, 7)]
    cases += [(make_named("sym", m=2), 5, 2 * (parallel.BLOCK_CELLS // 34) + 1)]
    for grp, seed, trials in cases:
        facts = minimal_degree(grp, "sampled", trials=trials, seed=seed)
        assert facts.minimal_degree == sampled_walk_oracle(grp, trials, seed)
        assert not facts.exact


def test_sampled_scan_memory_does_not_grow_with_trials():
    # Segments of BLOCK_CELLS / (n + 32) steps: the M24 walk at the default
    # trials peaked at 0.39 MiB traced, and four times as many trials at
    # the same (4.58 MiB in segments of 2^22 cells, drawn one at a time).
    # agl1(4096) walks segments of 63 steps: 0.98 MiB at 1000 and 4000 trials.
    for grp, trials, bound in (
        (make_named("mathieu24"), (DEFAULT_TRIALS, 4 * DEFAULT_TRIALS), 0.6),
        (make_named("agl1", q=4096), (1000, 4000), 1.2),
    ):
        grp.chain  # built outside the measured span
        for steps in trials:
            _, peak = traced_peak(lambda: minimal_degree(grp, "sampled", trials=steps, seed=2))
            assert peak < bound * 2**20, (grp.degree, steps, peak)


@pytest.mark.parametrize("seed", [0, 1, 7, 99, 2**31 - 1, -1])
def test_walk_draws_the_words_of_rng_choice(seed, monkeypatch):
    # Against rng.choice itself, so a Python whose choice draws its words
    # otherwise fails here instead of changing a sampled bound.  Segments
    # of 3 steps: walks of 1 and 2 steps, of one segment, and of several
    # and a remainder.  The bulk draw stops at the last word it uses.
    words, walk = [], groups_module._walk_segment

    def recorded(gens, word, start):
        words.append(word)
        return walk(gens, word, start)

    monkeypatch.setattr(groups_module, "_walk_segment", recorded)
    shuffle = random.Random(seed)
    for g in range(1, 10):
        grp = PermGroup(6, tuple(tuple(shuffle.sample(range(6), 6)) for _ in range(g)))
        assert grp.chain.order() > 1
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "BLOCK_CELLS", 3 * (6 + 32))
            for trials in (1, 2, 3, 3 * 4 + 2):
                words.clear()
                minimal_degree(grp, "sampled", trials=trials, seed=seed)
                loop = random.Random(seed)
                want = list(map(loop.choice, itertools.repeat(range(g), trials)))
                assert np.concatenate(words).tolist() == want
        loop, bulk = random.Random(seed), random.Random(seed)
        want = list(map(loop.choice, itertools.repeat(range(g), 5000)))
        assert _choices(bulk, g, 5000).tolist() == want
        assert bulk.getstate() == loop.getstate()


def test_sampled_minimal_degree_is_upper_evidence():
    grp = make_named("agl1", q=7)
    exact = minimal_degree(grp, "exact").minimal_degree
    sampled = minimal_degree(grp, "sampled", trials=2000, seed=4)
    assert not sampled.exact
    assert sampled.minimal_degree >= exact


def test_sampled_scan_needs_a_trial():
    with pytest.raises(ValueError):
        minimal_degree(make_named("sym", m=5), "sampled", trials=0)


def test_named_group_pa_parameters():
    expectations = [
        ("agl1", {"q": 5}, (5, 20, 4)),
        ("agl1", {"q": 7}, (7, 42, 6)),
        ("agl1", {"q": 8}, (8, 56, 7)),
        ("pgl2", {"q": 5}, (6, 120, 4)),
        ("pgl2", {"q": 7}, (8, 336, 6)),
        ("sym_pairs", {"m": 5}, (10, 120, 6)),
        ("agl", {"d": 2, "q": 2}, (4, 24, 2)),
    ]
    for name, params, (n, M, d) in expectations:
        pa = group_to_pa(make_named(name, **params))
        assert (pa.n, pa.M, pa.claimed_distance) == (n, M, d)
        assert exact_min_distance(pa) == d  # group min distance = minimal degree


def test_oversized_named_groups_refused_before_any_point(monkeypatch):
    # Listing the points of agl(200, 2) would exhaust memory, so a guard that
    # comes too late fails here at once instead.
    def no_points(*args, **kwargs):
        raise AssertionError("points were listed")

    monkeypatch.setattr(groups_module.itertools, "product", no_points)
    monkeypatch.setattr(groups_module.itertools, "combinations", no_points)
    for name, params in (
        ("agl", {"d": 200, "q": 2}),
        ("agl", {"d": 17, "q": 2}),
        ("agl1", {"q": 65537}),
        ("agl1", {"q": 10**40}),
        ("pgl2", {"q": 65536}),
        ("sym", {"m": MAX_DEGREE + 1}),
        ("sym_pairs", {"m": 363}),  # 65,703 pairs
    ):
        with pytest.raises(ValueError, match=f"more than {MAX_DEGREE} points"):
            make_named(name, **params)
    assert make_named("sym", m=MAX_DEGREE).degree == MAX_DEGREE


def test_agl_order_formula():
    for d, q in [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5), (2, 8), (3, 3)]:
        grp = make_named("agl", d=d, q=q)
        expect = q**d
        for i in range(d):
            expect *= q**d - q**i
        assert group_order(grp) == expect


def test_agl_example_size_form():
    # 2^{d(d+1)/2} * prod(2^i - 1) for q = 2.
    for d in (2, 3):
        grp = make_named("agl", d=d, q=2)
        expect = 2 ** (d * (d + 1) // 2)
        for i in range(1, d + 1):
            expect *= 2**i - 1
        assert group_order(grp) == expect


def test_agl_generators_are_pinned():
    # One sha256 over (degree, generators, name) of agl(d, q) for q^d <= 5000
    # and of agl1(q): the generators fix the chain, and so the element order
    # of every emitted group array.
    digest = hashlib.sha256()
    for d in (1, 2, 3):
        for q in (2, 3, 4, 5, 7, 8, 9, 16):
            if q**d <= 5000:
                grp = make_named("agl", d=d, q=q)
                digest.update(repr((grp.degree, grp.generators, grp.name)).encode())
    for q in (2, 3, 4, 5, 8, 9, 16, 27, 64, 256, 1024):
        grp = make_named("agl1", q=q)
        digest.update(repr((grp.degree, grp.generators, grp.name)).encode())
    assert digest.hexdigest() == (
        "a0b5b8da586131815c2cc40bf5e583dc5448bd48fd34d4c2491603aa395a7e9c"
    )


def test_pair_action_size_bound():
    # |G| = m! clears exp(sqrt(2n) log sqrt(2n) - sqrt(2n)) on the pair action.
    for m in (5, 6, 7):
        n = m * (m - 1) // 2
        root = math.sqrt(2 * n)
        bound = math.exp(root * math.log(root) - root)
        assert math.factorial(m) >= bound


def test_sharp_transitivity_named():
    for q in (5, 7):
        agl = group_to_pa(make_named("agl1", q=q))
        assert is_sharply_k_transitive(agl, 2)
        assert sharpness_matches_distance(agl, 2)
        pgl = group_to_pa(make_named("pgl2", q=q))
        assert is_sharply_k_transitive(pgl, 3)
        assert sharpness_matches_distance(pgl, 3)


def test_make_named_rejects_unknown():
    with pytest.raises(ValueError):
        make_named("mystery")
    with pytest.raises(ValueError, match="^agl1 needs the parameter q$"):
        make_named("agl1")
    with pytest.raises(ValueError, match="^agl needs the parameter d$"):
        make_named("agl", q=4)


def test_generator_file_parsing():
    text = "# name: demo\n# degree: 3\n# order: 3\n1 2 0\n"
    grp = parse_generator_text(text)
    assert grp.name == "demo" and grp.degree == 3
    assert grp.expected_order == 3
    assert group_order(grp) == 3


def test_mathieu_expected_orders_recorded():
    for n, order in [(22, 443520), (23, 10200960), (24, 244823040)]:
        grp = make_named(f"mathieu{n}")
        assert grp.degree == n
        assert grp.expected_order == order


def test_mathieu_orders_exact():
    assert group_order(make_named("mathieu24")) == 244823040
    assert group_order(make_named("mathieu23")) == 10200960
    assert group_order(make_named("mathieu22")) == 443520


def test_mathieu22_exact_scan():
    facts = minimal_degree(make_named("mathieu22"), "exact")
    assert facts.order == 443520
    assert facts.minimal_degree == 16


def test_mathieu22_closure_matches_order():
    grp = make_named("mathieu22")
    rows = group_closure(grp)
    assert len(rows) == 443520
    assert np.array_equal(group_to_pa(grp).rows, rows)


def test_mathieu23_exact_scan():
    facts = minimal_degree(make_named("mathieu23"), "exact")
    assert facts.minimal_degree == 16


def test_mathieu24_exact_scan():
    facts = minimal_degree(make_named("mathieu24"), "exact")
    assert (facts.order, facts.minimal_degree, facts.exact) == (244823040, 16, True)


def test_transitivity_from_chain():
    for name, params, t in [
        ("mathieu22", {}, 3),
        ("mathieu23", {}, 4),
        ("mathieu24", {}, 5),
        ("pgl2", {"q": 7}, 3),
        ("agl1", {"q": 9}, 2),
        ("sym_pairs", {"m": 6}, 1),
    ]:
        grp = make_named(name, **params)
        assert StabilizerChain(grp.degree, grp.generators).transitivity() == t


def test_reduced_exact_scan_matches_whole_chain_scan():
    # (group, transitivity t, scan depth): t base points are fixed when the
    # t-point stabilizer K is nontrivial, t-1 when the group is sharply
    # t-transitive (K = 1), none when the group is intransitive.
    intransitive = PermGroup(5, ((1, 0, 2, 3, 4), (0, 1, 3, 4, 2)))
    for grp, t, depth in [
        (make_named("mathieu22"), 3, 3),
        (make_named("sym_pairs", m=6), 1, 1),
        (make_named("sym_pairs", m=8), 1, 1),
        (make_named("agl", d=3, q=2), 3, 3),
        (make_named("agl", d=2, q=3), 2, 2),
        (make_named("pgl2", q=7), 3, 2),
        (make_named("pgl2", q=8), 3, 2),
        (make_named("agl1", q=9), 2, 1),
        (make_named("sym", m=6), 5, 4),
        (intransitive, 0, 0),
    ]:
        chain = StabilizerChain(grp.degree, grp.generators)
        assert (chain.transitivity(), _scan_depth(chain)) == (t, depth)
        assert minimal_degree(grp).minimal_degree == whole_chain_min_degree(grp)
    # Random two-generator groups: intransitive, transitive, and (11 of
    # these 20) at least 2-transitive.
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(3, 8)
        gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
        if all(g == identity(n) for g in gens):
            continue
        grp = PermGroup(n, gens)
        assert minimal_degree(grp).minimal_degree == whole_chain_min_degree(grp)


def test_exact_scan_sizes():
    # Elements the exact scan visits, out of the group order.
    for name, params, scanned in [
        ("mathieu22", {}, 48),
        ("mathieu23", {}, 48),
        ("mathieu24", {}, 48),
        ("sym_pairs", {"m": 10}, 80640),
    ]:
        grp = make_named(name, **params)
        chain = StabilizerChain(grp.degree, grp.generators)
        assert chain.order(_scan_depth(chain)) == scanned


def test_mathieu24_sampled_scan():
    grp = make_named("mathieu24")
    facts = minimal_degree(grp, "sampled", trials=10**5, seed=0)
    # No sampled element moves fewer than 16 points or fixes more than 8.
    assert facts.minimal_degree >= 16
    assert grp.degree - facts.minimal_degree <= 8


def test_chain_order_matches_sympy_on_random_groups():
    # Independent oracle: sympy's Schreier-Sims on random generator sets.
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup

    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(3, 12)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(tuple(img))
        if all(g == identity(n) for g in gens):
            continue
        mine = group_order(PermGroup(n, tuple(gens)))
        theirs = SymGroup([SymPerm(list(g)) for g in gens]).order()
        assert mine == theirs


def test_minimal_degree_matches_closure_scan():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randrange(3, 9)
        img = list(range(n))
        rng.shuffle(img)
        if img == list(range(n)):
            continue
        grp = PermGroup(n, (tuple(img),))
        rows = group_closure(grp)
        brute = min(
            sum(1 for i, j in enumerate(row) if i != int(j))
            for row in rows
            if any(i != int(j) for i, j in enumerate(row))
        )
        assert minimal_degree(grp).minimal_degree == brute
        assert whole_chain_min_degree(grp) == brute


def test_load_generator_file(tmp_path):
    path = tmp_path / "grp.txt"
    path.write_text("# name: c4\n# degree: 4\n# order: 4\n1 2 3 0\n")
    grp = load_generator_file(path)
    assert grp.name == "c4" and group_order(grp) == 4


def test_order_header_is_checked_against_the_chain():
    grp = parse_generator_text("# order: 7\n1 0 2\n")
    with pytest.raises(ValueError, match="order 2, header says 7"):
        grp.chain
    assert group_order(parse_generator_text("# order: 2\n1 0 2\n")) == 2
    for name in ("mathieu22", "mathieu23", "mathieu24"):
        grp = make_named(name)
        assert grp.expected_order == group_order(grp)


def test_mathieu_chain_is_point_stabilizer_chain():
    # The degree-23 generators are the degree-24 ones restricted off the
    # fixed point; the degree-22 group sits inside the degree-23 stabilizer.
    m24 = make_named("mathieu24")
    m23 = make_named("mathieu23")
    assert [g[:23] for g in m24.generators[:2]] == list(m23.generators)
    chain = StabilizerChain(23, m23.generators)
    m22 = make_named("mathieu22")
    for g in m22.generators:
        assert contains(chain, tuple(g) + (22,))


def test_groups_import_leaves_the_fraction_search_unloaded():
    code = (
        "import sys, paforge.groups; "
        "print(sorted(m for m in ('paforge.sfp', 'paforge.fracpoly') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(groups_module.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_sampled_scan_of_q2_groups_sees_a_moved_point():
    # At q = 2 the primitive element is 1, so a scale generator would be the
    # identity and a one-step walk could report the n+1 sentinel.
    for name in ("agl1", "pgl2"):
        group = make_named(name, q=2)
        assert identity(group.degree) not in group.generators
        for seed in range(10):
            facts = minimal_degree(group, mode="sampled", trials=1, seed=seed)
            assert facts.minimal_degree <= group.degree, (name, seed)


def test_no_schreier_pair_is_sifted_twice(monkeypatch):
    # Every (level, point, generator) pair is paired once the chain is
    # built.  A pair whose image is new gives that image its representative
    # and needs no sift; every other pair needs at least one.  So exactly
    # one sift per such pair means no pair was sifted twice.
    sifts = []
    sift = StabilizerChain.sift

    def counted(self, p, start=0):
        sifts.append(start)
        return sift(self, p, start)

    monkeypatch.setattr(StabilizerChain, "sift", counted)
    rng = random.Random(3)
    groups = [
        make_named(name, **params)
        for name, params in [
            ("mathieu22", {}),
            ("mathieu24", {}),
            ("sym", {"m": 9}),
            ("sym_pairs", {"m": 7}),
            ("pgl2", {"q": 16}),
            ("agl", {"d": 3, "q": 3}),
        ]
    ]
    groups += [
        PermGroup(n, tuple(tuple(rng.sample(range(n), n)) for _ in range(3)))
        for n in (5, 9, 12)
    ]
    for grp in groups:
        sifts.clear()
        chain = StabilizerChain(grp.degree, grp.generators)
        needed = 0
        for orbit, gens, paired in zip(chain.orbits, chain.gens, chain._paired):
            assert set(paired.values()) == {len(gens)}
            needed += len(orbit) * len(gens) - (len(orbit) - 1)
        assert len(sifts) == needed, grp.name


def test_pgl2_and_sym_orders_match_textbook_formulas():
    cases = [(("pgl2", {"q": q}), (q + 1) * q * (q - 1)) for q in (16, 25, 27, 32, 49)]
    cases += [
        ((name, {"m": m}), math.factorial(m))
        for name in ("sym", "sym_pairs")
        for m in range(7, 11)
    ]
    for (name, params), order in cases:
        assert group_order(make_named(name, **params)) == order, (name, params)


def test_chain_membership_matches_sympy_at_degree_102():
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup

    grp = make_named("pgl2", q=101)
    chain = StabilizerChain(grp.degree, grp.generators)
    theirs = SymGroup([SymPerm(list(g)) for g in grp.generators])
    rng = random.Random(9)
    n = grp.degree
    swap = (1, 0) + tuple(range(2, n))
    candidates = []
    for _ in range(20):
        word = identity(n)
        for _ in range(rng.randrange(1, 40)):
            word = compose(word, rng.choice(grp.generators))
        candidates += [word, compose(word, swap), tuple(rng.sample(range(n), n))]
    answers = [contains(chain, p) for p in candidates]
    assert answers == [theirs.contains(SymPerm(list(p))) for p in candidates]
    assert answers[0::3] == [True] * 20 and not any(answers[1::3])
