"""Completion rules and assembled arrays: forced points, bijectivity,
distance guarantees, determinism."""

import dataclasses

import numpy as np
import pytest

from conftest import traced_peak
from paforge.field import Field
from paforge.groups import group_order, group_to_pa, make_named
from paforge.pa import _filled, min_distance, row_dtype, write_pa
from paforge import pam, parallel, sfp
from paforge.pam import build_pa
from paforge.sfp import (
    OFFSET_CHOICES,
    SfpQuery,
    Variant,
    best_cell,
    best_count,
    enumerate_fast,
    field_for_order,
)
from reference import Poly, _complete, _member_values, enumerate_oracle, exact_min_distance
from reference import format_pa, make, members

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)


def frac(field, num, den=(1,)):
    return make(Poly.of(field, num), Poly.of(field, den))


def test_q_pam_hand_examples():
    assert _complete(3, 3, frac(F3, (0, 1)).values()) == (0, 1, 2)
    assert _complete(3, 3, frac(F3, (1, 2, 1)).values()) == (1, 2, 0)
    assert _complete(3, 3, frac(F3, (0, 0, 1)).values()) == (0, 1, 2)


def test_q1_pam_hand_examples():
    assert _complete(3, 4, frac(F3, (0, 1)).values()) == (0, 1, 2, 3)
    assert _complete(3, 4, frac(F3, (1,), (0, 1)).values()) == (3, 1, 2, 0)
    assert _complete(3, 4, frac(F3, (0, 0, 1), (1, 1)).values()) == (0, 2, 3, 1)


def test_pam_respects_forced_points():
    # At both lengths, wherever the fraction attains a value, the permutation
    # sends one of the preimages (the smallest) to it.
    for phi in (
        frac(F5, (1, 2, 1)),
        frac(F5, (2, 0, 1), (1, 1)),
        frac(F7, (1, 3, 0, 2)),
        frac(F7, (1,), (0, 2, 1)),
        frac(F7, (0, 3)),
    ):
        F = phi.field
        q = F.q
        preimages = {}
        for beta in range(q):
            gv = phi.den.eval(beta)
            if gv == 0:
                continue
            val = F.mul(phi.num.eval(beta), F.inv(gv))
            preimages.setdefault(val, []).append(beta)
        for psi in (_complete(q, q, phi.values()), _complete(q, q + 1, phi.values())):
            for val, pre in preimages.items():
                assert psi[min(pre)] == val
            assert sorted(psi) == list(range(len(psi)))


def test_q1_pam_pole_handling():
    phi = frac(F5, (1,), (0, 0, 1))  # 1/x^2, double root at 0
    psi = _complete(5, 6, phi.values())
    assert psi[0] == 5  # smallest root carries the extra point
    assert sorted(psi) == list(range(6))
    nopole = frac(F5, (0, 0, 1))
    assert _complete(5, 6, nopole.values())[5] == 5


def test_batched_build_matches_single_builders():
    for query in (
        SfpQuery(F7, Variant.Q, 1, 2),
        SfpQuery(F7, Variant.Q_PLUS_1, 1, 1, 0, 0),
        SfpQuery(F7, Variant.Q_PLUS_1, 2, 1, 1, -1),
        # Extension fields take the table branch of the ratio kernel.
        SfpQuery(field_for_order(9), Variant.Q, 1, 2),
        SfpQuery(field_for_order(9), Variant.Q_PLUS_1, 2, 1, 1, -1),
        SfpQuery(field_for_order(16), Variant.Q, 2, 1),
        SfpQuery(field_for_order(16), Variant.Q_PLUS_1, 1, 1, 0, 0),
    ):
        result = enumerate_fast(query)
        assert np.array_equal(result.gather(), _member_values(query, result.rows))
        pa = build_pa(query, result=result)
        for idx, phi in enumerate(members(result)):
            assert tuple(pa.rows[idx].tolist()) == _complete(query.q, query.length(), phi.values())


@pytest.mark.parametrize(
    "q,variant", [(256, Variant.Q), (256, Variant.Q_PLUS_1), (257, Variant.Q)]
)
def test_batched_build_at_row_dtype_edge(q, variant):
    # Row length q or q+1 crosses 256, where rows move from uint8 to uint16.
    query = SfpQuery(field_for_order(q), variant, 1, 0)
    result = enumerate_fast(query)
    sample = dataclasses.replace(
        result, rows=result.rows[::4099], source=result.source[::4099]
    )
    assert np.array_equal(sample.gather(), _member_values(query, sample.rows))
    pa = build_pa(query, result=sample)
    assert pa.rows.dtype == row_dtype(query.length())
    for idx, phi in enumerate(members(sample)):
        assert tuple(pa.rows[idx].tolist()) == _complete(q, query.length(), phi.values())


def _scalar_rows(q, n, vals):
    return [list(_complete(q, n, row)) for row in vals.tolist()]


def _complete_rows(q, n, vals):
    """`pam._completed` over the rows of one value array, filled into one
    buffer (`pa._filled`) as reading a built array's rows fills it."""
    return _filled(pam._completed(q, n, len(vals), lambda lo, hi: vals[lo:hi]), n, len(vals))


@pytest.mark.parametrize("q", [4, 8, 9, 19, 25, 256])
def test_bulk_completion_matches_scalar_reference(q, monkeypatch):
    # Value rows with no root, one root, several roots and only roots, with
    # repeated values, and permutations (every value attained); in one
    # block, and in blocks of 7 rows.
    rng = np.random.default_rng(q)
    vals = rng.integers(0, q + 1, size=(300, q))
    vals[:60] %= q
    vals[60:120, :: max(2, q // 4)] = q
    vals[120:140] = rng.integers(0, q, size=(20, 1))
    vals[140:160] = [rng.permutation(q) for _ in range(20)]
    vals[160] = q
    vals = vals.astype(np.int16)
    roots = (vals == q).sum(axis=1)
    assert {0, 1, q}.issubset(set(roots.tolist())) and roots.max() >= 2
    for n in (q, q + 1):
        want = _scalar_rows(q, n, vals)
        assert _complete_rows(q, n, vals).tolist() == want
        with monkeypatch.context() as m:
            m.setattr(parallel, "TILE_CELLS", 7 * q)
            assert _complete_rows(q, n, vals).tolist() == want


@pytest.mark.parametrize("q, n", [(256, 256), (255, 256), (256, 257)])
def test_completion_range_checks_each_block_before_narrowing(q, n, monkeypatch):
    # Completed rows come back as row_dtype(n), written block by block into
    # one buffer; a hole left at -1 must be refused, not wrapped to the
    # valid point 255 of n = 256.
    vals = np.random.default_rng(q).integers(0, q + 1, size=(40, q), dtype=np.int16)
    rows = _complete_rows(q, n, vals)
    assert rows.dtype == row_dtype(n) and rows.flags.c_contiguous
    assert rows.tolist() == _scalar_rows(q, n, vals)
    complete_block = pam._complete_block

    def leaves_a_hole(q, n, vals):
        images = complete_block(q, n, vals)
        images[-1, 0] = -1
        return images

    monkeypatch.setattr(pam, "_complete_block", leaves_a_hole)
    monkeypatch.setattr(parallel, "TILE_CELLS", 7 * q)  # the hole in a later block
    with pytest.raises(ValueError, match="points must be integers"):
        _complete_rows(q, n, vals)


@pytest.mark.parametrize("q, rows", [(19, 200_000), (509, 20_000)])
def test_bulk_completion_peak_memory(q, rows):
    # In blocks of rows, completion holds the int16 result and one block's
    # tables: under 14 bytes a cell of the value rows (about 3 measured),
    # where a stable int64 argsort of the rows takes 8 alone.
    vals = np.random.default_rng(q).integers(0, q + 1, size=(rows, q), dtype=np.int16)
    for n in (q, q + 1):
        _, peak = traced_peak(lambda: _complete_rows(q, n, vals))
        assert peak < 14 * vals.size, (n, peak / vals.size)


def test_build_pa_peaks_under_4_5_bytes_a_cell():
    # The q19 k5 q+1 cell of the published bounds: 123,804 rows of 20
    # points.  With an (M, q) value array and its sorted copy, build_pa
    # peaked at 5.8 bytes a cell (traced); gathering each block's values
    # from the image rows at completion, at about 4.0.
    # build_pa completes nothing: the rows are completed when read.
    query = SfpQuery(field_for_order(19), Variant.Q_PLUS_1, 2, 3, 1, -1)
    rows, peak = traced_peak(lambda: build_pa(query).rows)
    assert len(rows) == 123804
    assert peak <= 4.5 * rows.size, peak / rows.size


def test_build_pa_frees_the_member_rows_before_completion():
    # Enumerating the cell itself, build_pa keeps only the result's images
    # and int32 source: 3.0 bytes a cell (traced) on the q19 k5 q+1 cell,
    # where holding the whole result, int64 source and member rows, took 4.0.
    query = SfpQuery(field_for_order(19), Variant.Q_PLUS_1, 2, 3, 1, -1)
    rows, peak = traced_peak(lambda: build_pa(query).rows)
    assert peak <= 3.2 * rows.size, peak / rows.size


def test_kept_indices_are_int32():
    query = SfpQuery(F7, Variant.Q_PLUS_1, 2, 1, 1, -1)
    fast, oracle = enumerate_fast(query), enumerate_oracle(query)
    assert fast.source.dtype == oracle.source.dtype == np.int32
    # Until its rows are read the array keeps only the result's images and
    # int32 source, and then only the rows: no row index or row order.
    pa = build_pa(query, result=fast)
    kept = {"M", "n", "claimed_distance", "provenance", "infinity", "_rows", "_blocks"}
    assert set(vars(pa)) == kept and pa._rows is None
    arrays = [a for a in pa._blocks.args[-1].args if isinstance(a, np.ndarray)]
    assert len(arrays) == 2 and arrays[0] is fast.images and arrays[1] is fast.source
    assert not [a for a in pa._blocks.args if isinstance(a, np.ndarray)]
    pa.rows
    assert set(vars(pa)) == kept and pa._blocks is None
    assert [k for k, v in vars(pa).items() if isinstance(v, np.ndarray)] == ["_rows"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "cell",
    [
        (7, Variant.Q, 0, 0, 0, 0),  # no members
        (25, Variant.Q_PLUS_1, 2, 1, 1, -1),  # the best k = 3 cells
        (19, Variant.Q, 1, 2, 0, 0),
    ],
)
def test_streamed_write_equals_the_held_write(tmp_path, monkeypatch, cell, workers):
    # build_pa completes no block until its rows are read or written.  The
    # streamed file equals write_pa of the same array once its rows are
    # read, and the rows read after a streamed write equal those read
    # before any.
    q, variant, s, t, a, b = cell
    query = SfpQuery(field_for_order(q), variant, s, t, a, b)
    before = build_pa(query, workers=workers).rows
    calls, complete_block = [], pam._complete_block

    def counted(*args):
        calls.append(len(args[2]))
        return complete_block(*args)

    monkeypatch.setattr(pam, "_complete_block", counted)
    for suffix in (".txt", ".json"):
        pa = build_pa(query, workers=workers)
        assert not calls and pa._rows is None and len(pa) == len(before)
        streamed, held = tmp_path / f"streamed{suffix}", tmp_path / f"held{suffix}"
        write_pa(pa, streamed)
        assert sum(calls) == len(before) and pa._rows is None
        rows = pa.rows
        assert rows.dtype == before.dtype and np.array_equal(rows, before)
        write_pa(pa, held)
        assert streamed.read_bytes() == held.read_bytes()
        calls.clear()


def _written(pa, path):
    write_pa(pa, path)
    return pa


def test_sfp_emit_streams_under_half_a_byte_a_cell(tmp_path):
    # sfp --q 251 --k 1: 62,750 rows of 251 points.  Enumerating, then
    # completing, checking and writing a block at a time, the emit peaked at
    # 0.36 bytes a cell (traced, 5.7 MB); holding the completed rows first,
    # it peaked at 1.27.
    query = best_count(251, 1, Variant.Q).query
    path = tmp_path / "q251.txt"
    pa, peak = traced_peak(lambda: _written(build_pa(query), path))
    assert (pa.M, pa.n) == (62750, 251) and pa._rows is None
    assert path.read_bytes().startswith(b"PA n=251 M=62750 d=250 ")
    assert peak <= 0.5 * pa.M * pa.n, peak / (pa.M * pa.n)


@pytest.mark.parametrize(
    "q, cells",
    [
        (4, [(1, 1), (2, 0)]),
        (8, [(1, 2), (2, 1)]),
        (9, [(1, 2), (2, 1)]),
        (19, [(1, 1), (0, 2)]),
        (25, [(1, 1), (0, 2)]),
        (256, [(1, 0)]),
    ],
)
def test_build_pa_matches_scalar_completion(q, cells):
    # Both lengths, every row (every 37th at q = 256, where the rows cross
    # the row_dtype edge: length 256 is uint8, 257 is uint16).
    F = field_for_order(q)
    for s, t in cells:
        for variant in Variant:
            query = SfpQuery(F, variant, s, t)
            result = enumerate_fast(query)
            if q == 256:
                result = dataclasses.replace(
                    result, rows=result.rows[::37], source=result.source[::37]
                )
            assert np.array_equal(result.gather(), _member_values(query, result.rows))
            pa = build_pa(query, result=result)
            assert pa.rows.dtype == row_dtype(query.length())
            want = _scalar_rows(q, query.length(), result.gather())
            assert pa.rows.tolist() == want


def test_rows_are_bijections_and_distinct():
    query = SfpQuery(F7, Variant.Q_PLUS_1, 2, 1, 1, -1)
    pa = build_pa(query)
    assert pa.M == 336
    ref = np.arange(pa.n, dtype=pa.rows.dtype)
    assert (np.sort(pa.rows, axis=1) == ref).all()


def test_distance_guarantees_small_fields():
    # Every admissible cell with s+t <= 3 at q in {5, 7}; q = 11 runs in the
    # acceptance suite.
    for q in (5, 7):
        F = field_for_order(q)
        for k in range(0, 4):
            for s in range(0, k + 1):
                t = k - s
                queries = []
                try:
                    queries.append(SfpQuery(F, Variant.Q, s, t))
                except ValueError:
                    pass
                for a, b in OFFSET_CHOICES:
                    try:
                        queries.append(SfpQuery(F, Variant.Q_PLUS_1, s, t, a, b))
                    except ValueError:
                        pass
                for query in queries:
                    pa = build_pa(query)
                    if pa.M < 2:
                        continue
                    assert exact_min_distance(pa) >= query.distance(), (
                        query.describe()
                    )


def test_cell_example_sizes():
    pa = build_pa(SfpQuery(F7, Variant.Q, 1, 0))
    assert (pa.n, pa.M, pa.claimed_distance) == (7, 42, 6)
    assert min_distance(pa, "full").passed
    pa = build_pa(SfpQuery(F5, Variant.Q_PLUS_1, 1, 0, 0, 0))
    assert pa.n == 6 and pa.claimed_distance == 4
    assert pa.infinity


def test_build_deterministic_across_workers():
    query = SfpQuery(F7, Variant.Q_PLUS_1, 2, 1, 1, -1)
    texts = {format_pa(build_pa(query, workers=w)) for w in (1, 2, 4)}
    assert len(texts) == 1


def test_empty_cell_builds_empty_array():
    pa = build_pa(SfpQuery(F5, Variant.Q, 0, 0))
    assert pa.M == 0 and pa.n == 5


# AGL(1, q) is the cell s = 1, t = 0 of length q (the maps ax + b, a != 0);
# PGL(2, q) is the cell s = 1, t = 1, a = b = 0 of length q + 1 (the Moebius
# maps on the projective line, q the point at infinity).  The fraction path
# and the group path share only the field.
MEETING_CELLS = [("agl1", Variant.Q, 0), ("pgl2", Variant.Q_PLUS_1, 1)]


@pytest.mark.parametrize(  # every prime power up to 64
    "q",
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    + [37, 41, 43, 47, 49, 53, 59, 61, 64],
)
def test_fraction_cells_hold_the_rows_of_agl1_and_pgl2(q):
    for name, variant, t in MEETING_CELLS:
        if q - 2 < 1 + t:  # s + t <= q - 2
            with pytest.raises(ValueError, match="exceeds q-2"):
                SfpQuery(field_for_order(q), variant, 1, t)
            continue
        query = SfpQuery(field_for_order(q), variant, 1, t)
        group = group_to_pa(make_named(name, q=q)).rows
        for workers in (1, 2):
            rows = build_pa(query, workers=workers).rows
            assert rows.dtype == group.dtype
            assert np.array_equal(np.unique(rows, axis=0), group), (name, q, workers)


# The top of each declared range: the largest prime the int16 kernels hold
# (32749), the Mersenne prime 8191, and extension fields up to MAX_EXT_Q =
# 1024 in characteristics 2 and 3.
@pytest.mark.parametrize("q", [32749, 8191, 512, 729, 1024])
def test_meeting_cells_count_the_group_orders_at_the_top_of_each_range(q):
    # Each cell is counted by its orbit sizes, with no row built, so it
    # reaches q where no brute force does.  The stabilizer chain confirms
    # the order where it builds quickly; that of pgl2(8191) takes seconds.
    F = field_for_order(q)
    agl = best_cell([SfpQuery(F, Variant.Q, 1, 0)]).count
    pgl = best_cell([SfpQuery(F, Variant.Q_PLUS_1, 1, 1)]).count
    assert (agl, pgl) == (q * (q - 1), (q + 1) * q * (q - 1))
    if q <= 8191:
        assert group_order(make_named("agl1", q=q)) == agl
    if q <= 1024:
        assert group_order(make_named("pgl2", q=q)) == pgl


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_full_verify_of_the_pgl2_cell_observes_its_minimal_degree(q):
    # The cell claims q - 2; PGL(2, q) is sharply 3-transitive, so every
    # element other than the identity fixes at most two points.
    pa = build_pa(SfpQuery(field_for_order(q), Variant.Q_PLUS_1, 1, 1))
    report = min_distance(pa, "full")
    assert (pa.claimed_distance, report.min_observed) == (q - 2, q - 1)
    assert report.passed and report.mode == "FULL"
