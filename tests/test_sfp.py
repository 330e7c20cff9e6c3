"""Membership predicates, oracle/fast enumeration agreement, grid maxima."""

import itertools

import numpy as np
import pytest

from paforge import sfp
from paforge.field import Field
from paforge.fracpoly import make, orbit, value_count
from paforge.poly import Poly, gcd
from paforge.sfp import (
    OFFSET_CHOICES,
    SfpQuery,
    Variant,
    best_count,
    enumerate_fast,
    enumerate_oracle,
    field_for_order,
    grid_queries,
    is_member,
    pp_count,
)

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
    assert affine_keys <= {m.sort_key() for m in result.members}


def test_oracle_cap():
    F19 = field_for_order(19)
    with pytest.raises(ValueError):
        enumerate_oracle(SfpQuery(F19, Variant.Q, 9, 8))


def test_fast_members_are_members_and_sorted():
    result = enumerate_fast(SfpQuery(F7, Variant.Q_PLUS_1, 2, 1, 1, -1))
    keys = [m.sort_key() for m in result.members]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == result.count
    for member in result.members[:: max(1, result.count // 40)]:
        assert is_member(member, result.query)


@pytest.mark.parametrize("q", [5, 7, 11])
def test_oracle_fast_equivalence_length_q(q, monkeypatch):
    # Prime-field evaluation in chunks of 7 rows: every block larger than
    # that crosses chunk boundaries.
    monkeypatch.setattr(sfp, "_EVAL_CHUNK_ROWS", 7)
    F = field_for_order(q)
    for k in range(0, 4):
        for s in range(0, k + 1):
            query = SfpQuery(F, Variant.Q, s, k - s)
            oracle = enumerate_oracle(query)
            fast = enumerate_fast(query)
            assert [m.sort_key() for m in oracle.members] == [
                m.sort_key() for m in fast.members
            ], f"mismatch at {query.describe()}"


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
                assert [m.sort_key() for m in oracle.members] == [
                    m.sort_key() for m in fast.members
                ], f"mismatch at {query.describe()}"


def test_normalized_blocks_match_predicate():
    from paforge.fracpoly import FracPoly, is_normalized
    from paforge.sfp import _normalized_num_block

    for field in (F5, Field(2, 2), Field(3, 2)):
        one = Poly.one(field)
        for s2 in range(0, 4):
            block = {
                tuple(int(c) for c in row) for row in _normalized_num_block(field, s2)
            }
            expected = set()
            for coeffs in itertools.product(range(field.q), repeat=s2):
                f = Poly.of(field, coeffs + (1,))
                if is_normalized(FracPoly(f, one)):
                    expected.add(f.coeffs)
            assert block == expected


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


@pytest.mark.parametrize("q, df, dg", [(4, 3, 2), (8, 4, 3), (9, 4, 3), (27, 3, 4)])
def test_expand_orbit_rows_match_orbit(q, df, dg, monkeypatch):
    # Degrees >= p make binomials C(m+i, i) vanish mod p in the shift.  One
    # batched call holds every shift of three coprime fractions, shuffled,
    # so each orbit arrives up to q times and must be expanded once.
    F = field_for_order(q)
    ratio_rows, divided = sfp._ratio_rows, []

    def counted(field, fvals, gvals):
        divided.append(fvals.size)
        return ratio_rows(field, fvals, gvals)

    monkeypatch.setattr(sfp, "_ratio_rows", counted)
    rng = np.random.default_rng(q)
    fracs = []
    while len(fracs) < 3:
        f = Poly.of(F, tuple(int(c) for c in rng.integers(0, q, size=df)) + (1,))
        g = Poly.of(F, tuple(int(c) for c in rng.integers(0, q, size=dg)) + (1,))
        if gcd(f, g).degree == 0:
            fracs.append(make(f, g))
    orbits = [{m.den.coeffs + m.num.coeffs for m in orbit(phi)} for phi in fracs]
    batch = [(j, beta) for j in range(len(fracs)) for beta in range(q)]
    batch = [batch[i] for i in rng.permutation(len(batch))]
    shifts = [(fracs[j].num.shift(beta), fracs[j].den.shift(beta)) for j, beta in batch]
    rows, src = sfp._expand_orbit_rows(
        F,
        np.array([f.coeffs for f, _ in shifts]),
        np.array([g.coeffs for _, g in shifts]),
    )
    got = [tuple(r) for r in rows.tolist()]
    assert got == sorted(set().union(*orbits))
    assert all(row in orbits[batch[i][0]] for row, i in zip(got, src.tolist()))
    # Scaling all 3q inputs by every unit would divide this many entries.
    assert sum(divided) < len(batch) * q * (q - 1) * (df + 1)


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
                    assert [m.sort_key() for m in oracle.members] == [
                        m.sort_key() for m in fast.members
                    ], f"mismatch at {query.describe()}"


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


@pytest.mark.parametrize(
    "q, s2, t2", [(4, 2, 1), (4, 2, 2), (4, 0, 2), (8, 2, 1), (8, 2, 2), (9, 3, 1)]
)
def test_scanned_blocks_reach_every_orbit(q, s2, t2, monkeypatch):
    # With thresholds no pair misses, a block's orbits are all its coprime
    # fractions, whatever the members.  When p divides t2 a shift cannot
    # change g's x^(t2-1) coefficient, so only a whole block reaches them all.
    # Every m passes these thresholds, so each row must carry its own orbit's
    # m and pole flag, checked against `value_count` on sampled rows.
    F = field_for_order(q)
    rng = np.random.default_rng(q + s2 + t2)

    def orbit_rows():
        block = sfp._scan_block(F, s2, t2, q, q, 1)
        for i in rng.choice(len(block.rows), 200):
            den, num = block.rows[i, : t2 + 1].tolist(), block.rows[i, t2 + 1 :].tolist()
            prof = value_count(make(Poly.of(F, num), Poly.of(F, den)))
            assert (block.m[i], block.pole[i]) == (q - prof.v, prof.has_pole)
        return block.rows

    reduced = orbit_rows()
    monic_rows = sfp._monic_rows
    monkeypatch.setattr(
        sfp, "_monic_rows", lambda field, deg, free: monic_rows(field, deg, deg)
    )
    whole = orbit_rows()
    assert len(np.unique(whole, axis=0)) == len(whole)
    assert np.array_equal(np.unique(reduced, axis=0), np.unique(whole, axis=0))


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
    # Exhaustive at q = 5: every fraction with degrees <= 2, every (alpha,
    # beta), every admissible budget in both variants.
    from paforge.fracpoly import transform

    field = F5
    fractions = set()
    for fc in itertools.product(range(5), repeat=3):
        f = Poly.of(field, fc)
        if f.is_zero():
            continue
        for d in range(3):
            for tail in itertools.product(range(5), repeat=d):
                phi = make(f, Poly.of(field, tail + (1,)))
                fractions.add(phi)
    queries = []
    for s in range(0, 4):
        for t in range(0, 4 - s):
            queries.append(SfpQuery(field, Variant.Q, s, t))
            for a, b in OFFSET_CHOICES:
                try:
                    queries.append(SfpQuery(field, Variant.Q_PLUS_1, s, t, a, b))
                except ValueError:
                    pass
    for phi in fractions:
        prof = value_count(phi)
        flags = [is_member(phi, query, prof) for query in queries]
        for alpha in range(1, 5):
            for beta in range(5):
                img = transform(phi, alpha, beta)
                img_prof = value_count(img)
                assert [is_member(img, query, img_prof) for query in queries] == flags


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
                assert {m.sort_key() for m in base.members} <= {
                    m.sort_key() for m in ext.members
                }


def test_best_count_cells_match_per_cell_enumeration():
    # The shared union scan must agree with independent per-cell runs.
    for q, k, variant in [(7, 2, Variant.Q), (7, 2, Variant.Q_PLUS_1), (11, 3, Variant.Q_PLUS_1)]:
        bc = best_count(q, k, variant)
        for (s, t, a, b), count in bc.cell_counts:
            F = field_for_order(q)
            single = enumerate_fast(SfpQuery(F, variant, s, t, a, b))
            assert single.count == count, (q, k, variant, s, t, a, b)


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
    res = enumerate_fast(SfpQuery(F5, Variant.Q, 1, 0))
    m = res.manifest(tool_version="x")
    assert m["q"] == 5 and m["count"] == 20 and m["tool_version"] == "x"
    bc = best_count(5, 1, Variant.Q)
    m2 = bc.manifest()
    assert m2["argmax"] == {"s": 1, "t": 0, "a": 0, "b": 0}
