"""Membership predicates, oracle/fast enumeration agreement, grid maxima."""

import itertools

import numpy as np
import pytest

from conftest import traced_peak
from paforge import sfp
from paforge.field import Field
from paforge.sfp import (
    OFFSET_CHOICES,
    SfpQuery,
    Variant,
    best_count,
    enumerate_fast,
    field_for_order,
    grid_queries,
)
from reference import FracPoly, Poly, _member_values, enumerate_oracle, gcd, is_member
from reference import is_normalized, make, members, orbit, pp_count, transform, value_count

F5 = Field(5)
F7 = Field(7)


def frac(field, num, den=(1,)):
    return make(Poly.of(field, num), Poly.of(field, den))


def test_field_for_order():
    assert field_for_order(19).q == 19
    assert field_for_order(8).q == 8 and field_for_order(8).p == 2
    with pytest.raises(ValueError):
        field_for_order(12)


def test_field_range_is_checked_before_any_cell():
    assert sfp.prime_power(59049) == (3, 10) and sfp.prime_power(32749) == (32749, 1)
    sfp.check_field_range(32749)
    sfp.check_field_range(2**10)
    with pytest.raises(ValueError, match="field order 32768 exceeds"):
        sfp.check_field_range(2**15)
    with pytest.raises(ValueError, match="12 is not a prime power"):
        sfp.check_field_range(12)
    # Every q+1 cell rejects GF(2048); the grid says so instead of coming
    # back empty.
    with pytest.raises(ValueError, match="extension field order 2048 exceeds"):
        grid_queries(2048, 1, Variant.Q_PLUS_1)


def test_query_validation():
    with pytest.raises(ValueError):
        SfpQuery(F5, Variant.Q, 2, 2)  # s+t > q-2
    with pytest.raises(ValueError):
        SfpQuery(F5, Variant.Q, 1, 0, a=1)  # offsets need the q+1 variant
    with pytest.raises(ValueError):
        SfpQuery(F5, Variant.Q_PLUS_1, 2, 1, 1, -1)  # s+t+a > q-2
    with pytest.raises(ValueError):
        SfpQuery(F7, Variant.Q_PLUS_1, 0, 2, -1, 1)  # s+a < 0


def test_distance_formula():
    assert SfpQuery(F7, Variant.Q, 1, 2).distance() == 4
    q = SfpQuery(F5, Variant.Q_PLUS_1, 1, 0, 0, 0)
    assert q.distance() == 4  # min(4, 4, 5)
    q = SfpQuery(F7, Variant.Q_PLUS_1, 2, 1, 1, -1)
    assert q.distance() == 4  # min(4, 4, 4)


def test_member_q_examples():
    assert is_member(frac(F5, (0, 1)), SfpQuery(F5, Variant.Q, 1, 0))
    assert not is_member(frac(F5, (1,), (0, 1)), SfpQuery(F5, Variant.Q, 1, 1))
    # x^3 permutes GF(5)
    assert is_member(frac(F5, (0, 0, 0, 1)), SfpQuery(F5, Variant.Q, 3, 0))


def test_member_q1_examples():
    assert is_member(frac(F5, (0, 1)), SfpQuery(F5, Variant.Q_PLUS_1, 1, 0, 0, 0))
    pole_slack = SfpQuery(F5, Variant.Q_PLUS_1, 1, 1, 0, 0)
    assert is_member(frac(F5, (1,), (0, 1)), pole_slack)
    shifted = SfpQuery(F5, Variant.Q_PLUS_1, 1, 1, 1, -1)
    assert not is_member(frac(F5, (0, 0, 1)), shifted)


def test_slack_rule():
    assert SfpQuery(F7, Variant.Q, 2, 2).slack(1, 1, False) == 1
    # numerator over budget
    assert SfpQuery(F7, Variant.Q, 2, 2).slack(3, 0, False) == -1
    # pole absorbs one
    assert SfpQuery(F7, Variant.Q_PLUS_1, 2, 2).slack(1, 1, True) == 2
    shifted = SfpQuery(F7, Variant.Q_PLUS_1, 2, 2, 1, -1)
    assert shifted.slack(1, 1, False) == 0  # budgets (3, 1)
    assert shifted.slack(2, 2, False) == -1


def test_member_rejects_zero_numerator():
    zero = make(Poly.zero(F5), Poly.one(F5))
    for s in range(4):
        for t in range(4 - s):
            assert not is_member(zero, SfpQuery(F5, Variant.Q, s, t))


def test_oracle_examples():
    assert enumerate_oracle(SfpQuery(F5, Variant.Q, 1, 0)).count == 20
    assert enumerate_oracle(SfpQuery(F5, Variant.Q, 0, 0)).count == 0
    result = enumerate_oracle(SfpQuery(F7, Variant.Q, 1, 1))
    assert result.count == 42
    # All 42 degree-one maps are present.
    affine_keys = {
        frac(F7, (b, a)).sort_key() for a in range(1, 7) for b in range(7)
    }
    assert affine_keys <= {m.sort_key() for m in members(result)}


def test_oracle_cap():
    F19 = field_for_order(19)
    with pytest.raises(ValueError):
        enumerate_oracle(SfpQuery(F19, Variant.Q, 9, 8))


def test_fast_members_are_members_and_sorted():
    result = enumerate_fast(SfpQuery(F7, Variant.Q_PLUS_1, 2, 1, 1, -1))
    keys = [m.sort_key() for m in members(result)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == result.count
    for member in members(result)[:: max(1, result.count // 40)]:
        assert is_member(member, result.query)


@pytest.mark.parametrize("q", [5, 7, 11])
def test_oracle_fast_equivalence_length_q(q, monkeypatch):
    # A budget of 4q cells cuts the pair scan into tiles of at most 2 x 2
    # pairs, so every block with more than two numerators and two
    # denominators splits on both sides, and value and shifted rows come in
    # chunks of a few rows.  Rows and counts match the default budget's.
    F = field_for_order(q)
    queries = [SfpQuery(F, Variant.Q, s, k - s) for k in range(4) for s in range(k + 1)]
    rows = [enumerate_fast(query).rows for query in queries]
    best = [best_count(q, k, Variant.Q) for k in range(4)]
    tiles, map_blocks = [], sfp.map_blocks

    def recorded(fn, blocks, workers):
        tiles.append(blocks)
        return map_blocks(fn, blocks, workers)

    monkeypatch.setattr(sfp, "_CELL_BUDGET", 4 * q)
    monkeypatch.setattr(sfp, "map_blocks", recorded)
    for query, want in zip(queries, rows):
        oracle = enumerate_oracle(query)
        fast = enumerate_fast(query)
        assert [m.sort_key() for m in members(oracle)] == [
            m.sort_key() for m in members(fast)
        ], f"mismatch at {query.describe()}"
        assert np.array_equal(fast.gather(), oracle.gather())
        assert np.array_equal(fast.rows, want)
    for k, want in enumerate(best):
        got = best_count(q, k, Variant.Q)
        assert (got.query, got.count, got.cell_counts) == (
            want.query, want.count, want.cell_counts
        )
    assert any(len({f for f, _ in t}) > 1 and len({g for _, g in t}) > 1 for t in tiles)


@pytest.mark.parametrize("q", [5, 7, 11])
def test_oracle_fast_equivalence_length_q_plus_1(q):
    F = field_for_order(q)
    for k in range(0, 4):
        for s in range(0, k + 1):
            for a, b in OFFSET_CHOICES:
                try:
                    query = SfpQuery(F, Variant.Q_PLUS_1, s, k - s, a, b)
                except ValueError:
                    continue
                oracle = enumerate_oracle(query)
                fast = enumerate_fast(query)
                assert [m.sort_key() for m in members(oracle)] == [
                    m.sort_key() for m in members(fast)
                ], f"mismatch at {query.describe()}"
                assert np.array_equal(fast.gather(), oracle.gather())


def test_normalized_blocks_match_predicate(monkeypatch):
    # The two rectangles of a block are the pairs that `is_normalized`
    # accepts, each scanned once.  With thresholds every pair passes, the
    # rows the scan keys are the scanned pairs; their coprime ones must be
    # the predicate's pick of every monic pair of the block.  The grid has
    # gcd(D - j, q - 1) > 1 (q = 5, 7, 13), p | s2 (q = 4, 9), p dividing
    # both degrees (q = 4, blocks (2, 0) and (2, 2); q = 9, block (3, 0)),
    # and numerators x^s2 in every block.

    keyed, least_images = [], sfp._least_images

    def recorded(field, rows, dw):
        keyed.append(rows)
        return least_images(field, rows, dw)

    monkeypatch.setattr(sfp, "_least_images", recorded)
    for q, top in ((5, 4), (4, 4), (7, 3), (9, 3), (13, 3)):
        F = field_for_order(q)
        for s2 in range(top + 1):
            for t2 in range(top + 1 - s2):
                keyed.clear()
                sfp._scan_block(F, s2, t2, q, q, 1)
                scanned = np.concatenate(keyed)
                assert len(np.unique(scanned, axis=0)) == len(scanned)
                got = set()
                for r in scanned.tolist():
                    g, f = Poly.of(F, r[: t2 + 1]), Poly.of(F, r[t2 + 1 :])
                    if gcd(f, g).degree == 0:
                        got.add(tuple(r))
                want = set()
                for low in itertools.product(range(q), repeat=s2 + t2):
                    g, f = Poly.of(F, low[:t2] + (1,)), Poly.of(F, low[t2:] + (1,))
                    if gcd(f, g).degree == 0 and is_normalized(FracPoly(f, g)):
                        want.add(g.coeffs + f.coeffs)
                assert got == want, (q, s2, t2)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27, 256, 257, 1024, 32749])
def test_ratio_rows_match_field_division(q):
    F = field_for_order(q)
    if q <= 27:  # every pair
        f, g = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    else:  # sampled pairs, with zero numerators and zero denominators among them
        rng = np.random.default_rng(q)
        f, g = rng.integers(0, q, size=(2, 4000))
        f[:50], g[50:100] = 0, 0
    got = sfp._ratio_rows(F, f.astype(np.int16), g.astype(np.int16))
    pairs = zip(f.ravel().tolist(), g.ravel().tolist())
    want = [F.div(a, b) if b else q for a, b in pairs]
    assert got.dtype == np.int16
    assert got.ravel().tolist() == want


@pytest.mark.parametrize(
    "q, df, dg",
    [
        (4, 3, 2), (8, 4, 3), (9, 4, 3), (27, 3, 4),  # p divides a degree
        (4, 2, 2), (8, 2, 2), (9, 3, 0), (25, 5, 0),  # p divides both
        (7, 2, 1), (13, 3, 2), (19, 2, 1), (25, 2, 1),  # gcd(D - j, q - 1) > 1
    ],
)
def test_expand_orbit_rows_match_orbit(q, df, dg):
    # Degrees >= p make binomials C(m+i, i) vanish mod p in the shift.  One
    # batch holds every image under x -> cx + b of three coprime fractions
    # from three orbits, the first with numerator x^df, shuffled, so each
    # orbit arrives q(q-1) times: every image must give its orbit's least
    # row in the scanned set (`is_normalized`) and its stabilizer order, and
    # expanding the three keys gives the orbits.

    F = field_for_order(q)
    rng = np.random.default_rng(q)
    fracs, orbits = [], []
    while len(fracs) < 3:
        low = tuple(int(c) for c in rng.integers(0, q, size=df)) if fracs else (0,) * df
        f = Poly.of(F, low + (1,))
        g = Poly.of(F, tuple(int(c) for c in rng.integers(0, q, size=dg)) + (1,))
        if gcd(f, g).degree == 0 and all(g.coeffs + f.coeffs not in o for o in orbits):
            fracs.append(make(f, g))
            orbits.append({m.den.coeffs + m.num.coeffs: m for m in orbit(fracs[-1])})
    keys = [min(k for k, m in orb.items() if is_normalized(m)) for orb in orbits]
    batch = [(j, b, c) for j in range(len(fracs)) for b in range(q) for c in range(1, q)]
    batch = [batch[i] for i in rng.permutation(len(batch))]
    images = [transform(fracs[j], 1, b, c) for j, b, c in batch]
    rows = np.array([
        img.den.coeffs + img.num.scale(F.inv(img.num.coeffs[-1])).coeffs
        for img in images
    ])
    least, stab = sfp._least_images(F, rows, dg + 1)
    for (j, _, _), row, order in zip(batch, least.tolist(), stab.tolist()):
        assert tuple(row) == keys[j]
        assert (q - 1) * q * (q - 1) // order == len(orbits[j])
    reps = np.unique(least, axis=0)
    assert len(reps) == len(fracs)
    rows, images = sfp._orbit_rows(F, reps, dg + 1)
    values = sfp._gather(F, images, np.arange(len(rows)))
    got = [tuple(r) for r in rows.tolist()]
    assert sorted(got) == sorted(set().union(*orbits))
    num, den = sfp._eval_rows(F, rows[:, dg + 1 :]), sfp._eval_rows(F, rows[:, : dg + 1])
    assert np.array_equal(values, sfp._ratio_rows(F, num, den))


@pytest.mark.parametrize("q", [4, 8, 9, 19, 25])
@pytest.mark.parametrize("variant", list(Variant))
def test_gather_matches_evaluated_values_on_member_ranges(q, variant):
    # Values gathered from the image rows against values evaluated from the
    # coefficient rows, on random ranges of the sorted members, the empty
    # and the whole range among them; (1, -1) shifts the q+1 budgets where
    # GF(q) admits it.
    F = field_for_order(q)
    s, t = (1, 1) if q == 4 else (2, 1)
    offsets = [(0, 0)] if variant is Variant.Q or q == 4 else [(0, 0), (1, -1)]
    rng = np.random.default_rng(q)
    for a, b in offsets:
        query = SfpQuery(F, variant, s, t, a, b)
        result = enumerate_fast(query)
        M = result.count
        assert M > 0 and len(result.images) * (q - 1) == M
        ranges = [(0, M), (M // 2, M // 2)]
        ranges += [tuple(sorted(rng.integers(0, M + 1, 2).tolist())) for _ in range(8)]
        for lo, hi in ranges:
            got = result.gather(lo, hi)
            assert got.dtype == np.int16 and got.shape == (hi - lo, q)
            assert np.array_equal(got, _member_values(query, result.rows[lo:hi]))


@pytest.mark.parametrize("q", [4, 9])
def test_oracle_fast_equivalence_extension_fields(q):
    F = field_for_order(q)
    for k in range(0, 3):
        for s in range(0, k + 1):
            for variant, offsets in (
                (Variant.Q, [(0, 0)]),
                (Variant.Q_PLUS_1, OFFSET_CHOICES),
            ):
                for a, b in offsets:
                    try:
                        query = SfpQuery(F, variant, s, k - s, a, b)
                    except ValueError:
                        continue
                    oracle = enumerate_oracle(query)
                    fast = enumerate_fast(query)
                    assert [m.sort_key() for m in members(oracle)] == [
                        m.sort_key() for m in members(fast)
                    ], f"mismatch at {query.describe()}"
                    assert np.array_equal(fast.gather(), oracle.gather())


@pytest.mark.parametrize(
    "q, variant, s, t, a, b",
    [
        # p | s2 = p > 0 and p does not divide t2 = 1: the denominator
        # block of block (p, 1) is shift-normalized.
        (8, Variant.Q, 2, 1, 0, 0),
        (8, Variant.Q_PLUS_1, 2, 1, 0, 0),
        (8, Variant.Q_PLUS_1, 2, 1, 1, -1),
        (9, Variant.Q, 3, 1, 0, 0),
        (9, Variant.Q_PLUS_1, 3, 1, 0, 0),
        # p divides both s2 = 2 and t2 = 2: block (2, 2) is scanned whole.
        (8, Variant.Q, 2, 2, 0, 0),
        (8, Variant.Q_PLUS_1, 2, 2, 0, 0),
    ],
)
def test_denominator_shift_cells_match_oracle(q, variant, s, t, a, b):
    query = SfpQuery(field_for_order(q), variant, s, t, a, b)
    oracle = enumerate_oracle(query)
    fast = enumerate_fast(query)
    assert oracle.count > 0
    assert np.array_equal(oracle.rows, fast.rows)
    assert np.array_equal(oracle.gather(), fast.gather())


def test_denominator_shift_matches_unreduced_scan(monkeypatch):
    # q = 27, block (3, 1): past the oracle's reach, so the reference is the
    # same scan over every monic numerator and denominator, with no shift.
    query = SfpQuery(field_for_order(27), Variant.Q_PLUS_1, 3, 1, 0, 0)
    fast = enumerate_fast(query)
    monic_rows = sfp._monic_rows
    monkeypatch.setattr(
        sfp, "_monic_rows", lambda field, deg, free: monic_rows(field, deg, deg)
    )
    whole = enumerate_fast(query)
    assert fast.count > 0
    assert np.array_equal(fast.rows, whole.rows)
    assert np.array_equal(fast.gather(), _member_values(query, fast.rows))
    assert np.array_equal(whole.gather(), fast.gather())


@pytest.mark.parametrize(
    "q, s2, t2",
    [
        (4, 2, 1), (4, 2, 2), (4, 0, 2), (8, 2, 1), (8, 2, 2), (9, 3, 1),
        (7, 2, 1), (7, 3, 0), (7, 0, 2), (13, 2, 1), (13, 3, 0), (19, 2, 1),
        (25, 2, 1), (25, 0, 2),
    ],
)
def test_scanned_blocks_reach_every_orbit(q, s2, t2, monkeypatch):
    # With thresholds no pair misses, a block's orbits are all its coprime
    # fractions, whatever the members: the orbit sizes add up to the
    # (q-1) q^(s2+t2) fractions with monic g, less the q^(s2+t2-1) monic
    # pairs with a common factor when both degrees are positive.  The grid
    # has p | s2 (q = 8, 9), p dividing both degrees (q = 4; q = 8, block
    # (2, 2)), gcd(D - j, q - 1) > 1 (q = 7, 13, 19, 25), and numerators
    # x^s2 in every block.  Every m passes these thresholds, so each row
    # must carry its own orbit's m and pole flag, checked against
    # `value_count` on sampled rows.  The table must not change when every
    # monic pair is scanned (`_monic_rows` unreduced: the rectangles then
    # hold every pair, some more than once), nor when tiles of 4q cells
    # split both ranges of every rectangle.
    F = field_for_order(q)
    rng = np.random.default_rng(q + s2 + t2)
    pairs = q ** (s2 + t2) - (q ** (s2 + t2 - 1) if s2 and t2 else 0)

    def orbit_table():
        block = sfp._scan_block(F, s2, t2, q, q, 1)
        assert block.size.sum() == (q - 1) * pairs
        for i in rng.choice(len(block.rows), 200):
            den, num = block.rows[i, : t2 + 1].tolist(), block.rows[i, t2 + 1 :].tolist()
            prof = value_count(make(Poly.of(F, num), Poly.of(F, den)))
            assert (block.m[i], block.pole[i]) == (q - prof.v, prof.has_pole)
        return block

    reduced = orbit_table()
    with monkeypatch.context() as patch:
        patch.setattr(sfp, "_CELL_BUDGET", 4 * q)
        tiled = orbit_table()
    monic_rows = sfp._monic_rows
    monkeypatch.setattr(
        sfp, "_monic_rows", lambda field, deg, free: monic_rows(field, deg, deg)
    )
    whole = orbit_table()
    for got, tiles, want in zip(reduced[2:], tiled[2:], whole[2:]):
        assert np.array_equal(got, want)
        assert np.array_equal(tiles, want)


@pytest.mark.parametrize(
    "q, s2, t2",
    [
        (4, 2, 0), (4, 2, 2), (8, 2, 1), (8, 4, 0), (9, 3, 0), (9, 3, 1), (27, 3, 0),
        (4, 0, 2), (8, 2, 2), (7, 2, 1), (7, 0, 3), (13, 3, 1), (19, 2, 2), (25, 2, 1),
    ],
)
def test_block_sizes_match_orbit(q, s2, t2):
    # Each table row's size is (q-1) q(q-1)/|Stab|; check it against the
    # orbit under a f(cx+b)/g(cx+b) itself on random rows and on the
    # smallest orbits.  p | s2 lets a nonzero shift fix f, as x^2 + x fixed
    # by x -> x + 1 in characteristic 2; when p divides both degrees some
    # sampled row must have such a stabilizer, so that the sizes cover it.

    F = field_for_order(q)
    block = sfp._scan_block(F, s2, t2, q, q, 1)
    rng = np.random.default_rng(q + s2 + t2)
    sample = np.concatenate([rng.choice(len(block.rows), 5), np.argsort(block.size)[:5]])
    fixed_by_a_shift = False
    for i in sample:
        den, num = block.rows[i, : t2 + 1].tolist(), block.rows[i, t2 + 1 :].tolist()
        phi = make(Poly.of(F, num), Poly.of(F, den))
        assert block.size[i] == len(orbit(phi))
        if s2 % F.p == 0 and t2 % F.p == 0:
            images = [transform(phi, 1, b, c) for b in range(1, q) for c in range(1, q)]
            fixed_by_a_shift |= any(
                img.den == phi.den and img.num.scale(F.inv(img.num.coeffs[-1])) == phi.num
                for img in images
            )
    if s2 % F.p == 0 and t2 % F.p == 0:
        assert fixed_by_a_shift


@pytest.mark.parametrize("variant", list(Variant))
def test_best_count_cells_match_oracle(variant):
    # Blocks (2, 1) and (0, 1) of GF(8) scan shift-normalized denominators.
    F = field_for_order(8)
    bc = best_count(8, 3, variant)
    for (s, t, a, b), count in bc.cell_counts:
        oracle = enumerate_oracle(SfpQuery(F, variant, s, t, a, b))
        assert oracle.count == count, (variant, s, t, a, b)


def test_membership_monotone_in_budgets():
    for field in (F5, F7):
        q = field.q
        fractions = []
        for fc in itertools.product(range(q), repeat=3):
            for tail in itertools.product(range(q), repeat=1):
                f = Poly.of(field, fc)
                if f.is_zero():
                    continue
                phi = make(f, Poly.of(field, tail + (1,)))
                fractions.append(phi)
        budgets = [(s, t) for s in range(4) for t in range(4) if s + t <= q - 3]
        for phi in fractions[:: max(1, len(fractions) // 500)]:
            for s, t in budgets:
                if is_member(phi, SfpQuery(field, Variant.Q, s, t)):
                    assert is_member(phi, SfpQuery(field, Variant.Q, s + 1, t))
                    assert is_member(phi, SfpQuery(field, Variant.Q, s, t + 1))


def test_membership_invariant_under_transform():
    # Exhaustive at q = 5 and q = 4: every fraction with degrees <= 2, every
    # map a f(cx+b)/g(cx+b), every admissible budget in both variants.  The
    # fractions are closed under the maps, so each image's flags are read
    # from its own `value_count`, computed once per fraction.

    for q in (5, 4):
        field = field_for_order(q)
        fractions = set()
        for fc in itertools.product(range(q), repeat=3):
            f = Poly.of(field, fc)
            if f.is_zero():
                continue
            for d in range(3):
                for tail in itertools.product(range(q), repeat=d):
                    phi = make(f, Poly.of(field, tail + (1,)))
                    fractions.add(phi)
        queries = []
        for s in range(0, q - 1):
            for t in range(0, q - 1 - s):
                queries.append(SfpQuery(field, Variant.Q, s, t))
                for a, b in OFFSET_CHOICES:
                    try:
                        queries.append(SfpQuery(field, Variant.Q_PLUS_1, s, t, a, b))
                    except ValueError:
                        pass
        flags = {}
        for phi in fractions:
            prof = value_count(phi)
            flags[phi] = [is_member(phi, query, prof) for query in queries]
        for phi in fractions:
            for beta in range(q):
                shifted = transform(phi, 1, beta)
                for alpha in range(1, q):
                    for gamma in range(1, q):
                        assert flags[transform(shifted, alpha, 0, gamma)] == flags[phi]


def test_inequality_lemma_exhaustive():
    for s in range(7):
        for t in range(7):
            for s1 in range(s + 1):
                for s2 in range(s + 1):
                    for t1 in range(t + 1):
                        for t2 in range(t + 1):
                            lhs = (
                                min(s - s1, t - t1)
                                + min(s - s2, t - t2)
                                + max(s1 + t2, s2 + t1)
                            )
                            assert lhs <= s + t


def test_pp_count_examples():
    assert pp_count(5, 1) == 20
    assert pp_count(5, 3) == 120
    assert pp_count(5, 4) == 120
    with pytest.raises(ValueError):
        pp_count(5, 5)


def test_length_q_family_with_zero_denominator_budget_is_pp_set():
    for q in (5, 7):
        F = field_for_order(q)
        for s in range(1, 4):
            count = enumerate_fast(SfpQuery(F, Variant.Q, s, 0)).count
            assert count == pp_count(q, s)


def test_best_count_beats_pp_baseline():
    for q in (5, 7):
        for k in range(1, 4):
            bc = best_count(q, k, Variant.Q)
            assert bc.count >= pp_count(q, k)


def test_q_family_inside_q1_family():
    for q in (5, 7):
        F = field_for_order(q)
        for s in range(0, 3):
            for t in range(0, 3 - s):
                base = enumerate_fast(SfpQuery(F, Variant.Q, s, t))
                ext = enumerate_fast(SfpQuery(F, Variant.Q_PLUS_1, s, t, 0, 0))
                assert {m.sort_key() for m in members(base)} <= {
                    m.sort_key() for m in members(ext)
                }


def test_best_count_cells_match_per_cell_enumeration():
    # The shared union scan must agree with independent per-cell runs.
    for q, k, variant in [(7, 2, Variant.Q), (7, 2, Variant.Q_PLUS_1), (11, 3, Variant.Q_PLUS_1)]:
        bc = best_count(q, k, variant)
        for (s, t, a, b), count in bc.cell_counts:
            F = field_for_order(q)
            single = enumerate_fast(SfpQuery(F, variant, s, t, a, b))
            assert single.count == count, (q, k, variant, s, t, a, b)


def test_scanning_once_rescans_a_block_for_wider_thresholds(monkeypatch):
    # A table scanned for one cell holds that cell's survivors only; a grid
    # that needs more of a block scans it again, and every count and row
    # equals a fresh scan's.
    want = best_count(7, 2, Variant.Q_PLUS_1)
    for query in grid_queries(7, 2, Variant.Q_PLUS_1):
        rows = enumerate_fast(query).rows
        with sfp.scanning_once():
            enumerate_fast(query)
            got = best_count(7, 2, Variant.Q_PLUS_1)
            assert np.array_equal(enumerate_fast(query).rows, rows)
        assert (got.query, got.count, got.cell_counts) == (
            want.query, want.count, want.cell_counts
        )


@pytest.mark.parametrize("q", [8191, 32749])
def test_large_field_counts_by_orbit_size(q):
    # The k = 1 winner is the one orbit of the q(q-1) affine maps; it is
    # counted by its size, so the scan holds no row per member.
    bc, peak = traced_peak(lambda: best_count(q, 1, Variant.Q))
    assert (bc.query.s, bc.query.t, bc.count) == (1, 0, q * (q - 1))
    assert peak < 64 << 20


Q_LARGE = 32749


@pytest.mark.parametrize(
    "s2, t2, sizes",
    [
        (0, 0, [Q_LARGE - 1]),  # the constants
        (0, 1, [Q_LARGE * (Q_LARGE - 1)]),  # a/(x + b)
        (2, 0, [Q_LARGE * (Q_LARGE - 1)] + [(Q_LARGE - 1) ** 2 * Q_LARGE // 2] * 2),
    ],
)
def test_large_field_blocks_key_without_brute_force(s2, t2, sizes):
    # At q = 32749 a brute force over the q(q-1) images of one row would
    # hold gigabytes.  Block (0, 0) keys 1/1 over q shifts that each count
    # all q - 1 scales without building them; block (0, 1) keys 1/x through
    # its one pinned shift; block (2, 0) keys x^2, x^2 + 1 and x^2 + w (w
    # primitive) through at most gcd(2, q - 1) = 2 scales each, and x^2 + 1
    # and x^2 + w are fixed by x -> -x.
    F = field_for_order(Q_LARGE)
    block, peak = traced_peak(lambda: sfp._scan_block(F, s2, t2, Q_LARGE, Q_LARGE, 1))
    assert peak < 16 << 20
    assert block.size.tolist() == sizes
    assert sum(sizes) == (Q_LARGE - 1) * Q_LARGE ** (s2 + t2)


def test_grid_queries_and_tie_break():
    queries = grid_queries(7, 2, Variant.Q_PLUS_1)
    assert all(qq.s + qq.t == 2 for qq in queries)
    bc = best_count(7, 1, Variant.Q)
    assert (bc.query.s, bc.query.t) == (1, 0)  # 42 at (1,0); (0,1) has none
    assert bc.count == 42
    with pytest.raises(ValueError):
        best_count(7, 6, Variant.Q)
    with pytest.raises(ValueError):
        best_count(7, 5, Variant.Q_PLUS_1)
    for variant in Variant:
        with pytest.raises(ValueError):
            grid_queries(7, -1, variant)


def test_manifest_fields():
    m = sfp.best_cell([SfpQuery(F5, Variant.Q, 1, 0)]).manifest("x", argmax=False)
    assert m["q"] == 5 and m["count"] == 20 and m["tool_version"] == "x"
    assert m["argmax"] is None
    bc = best_count(5, 1, Variant.Q)
    m2 = bc.manifest()
    assert m2["argmax"] == {"s": 1, "t": 0, "a": 0, "b": 0}
