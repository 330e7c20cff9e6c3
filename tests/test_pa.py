"""Permutation arrays: distance, verification modes, files, transitivity."""

import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import traced_peak
from paforge import pa as pa_module
from paforge import parallel
from paforge import sfp as sfp_module
from paforge.pa import MAX_DEGREE, PermArray, identity, min_distance, read_pa, write_pa
from paforge.groups import group_to_pa, make_named
from paforge.pam import build_pa
from paforge.sfp import SfpQuery, Variant, best_count, field_for_order
from reference import compose, exact_min_distance, format_pa, hamming_distance, inverse
from reference import is_sharply_k_transitive, pa_to_json, sharpness_matches_distance


def test_hamming_examples():
    assert hamming_distance((0, 1, 2, 3, 4), (0, 1, 2, 3, 4)) == 0
    assert hamming_distance((0, 1, 2), (1, 2, 0)) == 3
    assert hamming_distance((0, 1, 2), (1, 0, 2)) == 2
    with pytest.raises(ValueError):
        hamming_distance((0, 1), (0, 1, 2))


def test_perm_helpers():
    p = (2, 0, 1, 3)
    assert compose(p, inverse(p)) == identity(4)
    assert inverse(inverse(p)) == p


def test_distance_never_one():
    # Two permutations cannot disagree in exactly one point.
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(2, 12)
        p = list(range(n))
        r = list(range(n))
        rng.shuffle(p)
        rng.shuffle(r)
        d = hamming_distance(tuple(p), tuple(r))
        assert d == 0 or 2 <= d <= n


def test_distance_left_invariant():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 12)
        p, r, u = [list(range(n)) for _ in range(3)]
        rng.shuffle(p)
        rng.shuffle(r)
        rng.shuffle(u)
        lhs = hamming_distance(compose(tuple(p), tuple(u)), compose(tuple(r), tuple(u)))
        assert lhs == hamming_distance(tuple(p), tuple(r))


def _random_rows(m, n, seed):
    rng = random.Random(seed)
    seen = set()
    while len(seen) < m:
        row = list(range(n))
        rng.shuffle(row)
        seen.add(tuple(row))
    return sorted(seen)


def _oracle(rows, claimed):
    """Brute-force FULL report (min_observed, witness, pairs_checked, pass):
    the lex-first pair closer than `claimed` and the pairs up to it, else
    the minimum and the lex-first pair reaching it."""
    rows = np.asarray(rows)
    best, witness, checked = rows.shape[1] + 1, None, 0
    for i in range(len(rows) - 1):
        d = (rows[i + 1:] != rows[i]).sum(axis=1)
        bad = np.flatnonzero(d < claimed)
        if len(bad):
            j = int(bad[0])
            return int(d[j]), (i, i + 1 + j), checked + j + 1, False
        checked += len(d)
        j = int(d.argmin())
        if d[j] < best:
            best, witness = int(d[j]), (i, i + 1 + j)
    return best, witness, checked, True


def _report(pa, workers=None):
    r = min_distance(pa, "full", workers=workers)
    return r.min_observed, r.witness, r.pairs_checked, r.passed


def _shifts(n):
    """All cyclic shifts of range(n): every pair is at distance n."""
    return [[(x + s) % n for x in range(n)] for s in range(n)]


def _swap(row, a, b):
    row = list(row)
    row[a], row[b] = row[b], row[a]
    return row


def test_full_matches_bruteforce_reference(monkeypatch):
    rows = _random_rows(120, 9, seed=2)
    pa = PermArray(rows, claimed_distance=1, provenance="random")
    brute = min(
        hamming_distance(rows[i], rows[j])
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    )
    assert exact_min_distance(pa) == brute
    report = min_distance(pa, "full")
    assert report.min_observed == brute
    assert report.pairs_checked == 120 * 119 // 2
    i, j = report.witness
    assert hamming_distance(pa.rows[i].tolist(), pa.rows[j].tolist()) == brute
    # Cyclic shifts: every distance is n, and no masked pair (j <= i) may
    # become the witness.  n = 256 is the top of the uint8 accumulator (a
    # distance-2 pair agrees in 254 points); n = 300 needs uint16.  The
    # small tiles put many diagonal and partial tiles on the same arrays.
    for tiles in ((pa_module._TILE_ROWS, parallel.TILE_CELLS), (16, 16 * 40)):
        monkeypatch.setattr(pa_module, "_TILE_ROWS", tiles[0])
        monkeypatch.setattr(parallel, "TILE_CELLS", tiles[1])
        for n in (5, 256, 300):
            shifts = PermArray(_shifts(n), claimed_distance=n)
            assert _report(shifts) == (n, (0, 1), n * (n - 1) // 2, True)
            assert exact_min_distance(shifts) == n
            near = _shifts(n) + [_swap(range(n), 1, n - 1)]
            for claimed in (2, 3):
                pa = PermArray(near, claimed_distance=claimed)
                assert _report(pa, workers=2) == _oracle(near, claimed)
            assert _oracle(near, 3)[:2] == (2, (0, n))


def test_full_verification_affine_example():
    pa = group_to_pa(make_named("agl1", q=7))
    report = min_distance(pa, "full")
    assert report.passed and report.min_observed == 6
    assert report.pairs_checked == 42 * 41 // 2


def test_duplicate_rows_rejected():
    with pytest.raises(ValueError):
        PermArray([(0, 1, 2), (0, 1, 2)], claimed_distance=1)
    # n > 256 stores uint16 rows; rows that differ only past the first
    # 256 points are distinct, repeated ones are not.
    ident = list(range(300))
    swapped = ident[:298] + [299, 298]
    assert PermArray([ident, swapped], claimed_distance=2).rows.dtype == np.uint16
    with pytest.raises(ValueError):
        PermArray([ident, swapped, ident], claimed_distance=2)
    # A column-major input is checked the same way.
    cols = np.asfortranarray([(0, 1, 2), (1, 2, 0), (0, 1, 2)])
    with pytest.raises(ValueError):
        PermArray(cols, claimed_distance=1)


@pytest.mark.parametrize("n, dtype", [(4, np.uint8), (300, np.uint16)])
def test_row_dtype_input_is_kept_read_only_without_a_copy(n, dtype):
    rows = np.ascontiguousarray(distinct_rows(n, 24, seed=n), dtype=dtype)
    pa = PermArray(rows, claimed_distance=2)
    assert np.shares_memory(pa.rows, rows)
    assert not pa.rows.flags.writeable and rows.flags.writeable
    # Other dtypes, a column-major layout and a strided view are copied
    # into C-ordered row_dtype(n) rows.
    copied = (rows.astype(np.int64), rows.astype(np.uint32), np.asfortranarray(rows), rows[::2])
    for other in copied:
        pa = PermArray(other, claimed_distance=2)
        assert not np.shares_memory(pa.rows, other)
        assert pa.rows.dtype == dtype and pa.rows.flags.c_contiguous
        assert np.array_equal(pa.rows, other) and other.flags.writeable


def test_checks_writer_and_reader_bounded_in_cells_at_a_wide_degree(tmp_path):
    # 1000 sorted rows of 20000 points, 38 MiB of uint16.  Blocks of 2^14
    # rows took the whole array at once: the constructor peaked at 210 MiB,
    # the writer at 458 MiB and the reader at 352 MiB (traced).
    n, m = 20000, 1000
    rng = np.random.default_rng(7)
    rows = np.empty((m, n), np.uint16)
    for row in rows:
        row[:] = rng.permutation(n)
    rows = rows[np.lexsort(rows.T[1::-1])]
    path = tmp_path / "wide.txt"
    pa, built = traced_peak(lambda: PermArray(rows, claimed_distance=2))
    _, written = traced_peak(lambda: write_pa(pa, path))
    back, read = traced_peak(lambda: read_pa(path))
    text = path.stat().st_size
    path.unlink()
    assert np.array_equal(back.rows, rows)
    # The constructor and the writer hold blocks of cells besides the rows;
    # the reader holds the file's bytes, its one row buffer and a block.
    assert built < rows.nbytes / 4 and written < rows.nbytes / 4, (built, written)
    assert read < text + 1.25 * rows.nbytes, (read, text)


def test_check_and_formatter_scratch_on_one_block():
    # One block of 2^18 cells, rows of 22 points as in M22: the permutation
    # check scatters BLOCK_CELLS/8 cells at a time and the formatter
    # gathers 64 KiB of tokens at a time, so neither holds scratch for the
    # whole block.  Measured (traced): 0.42 MiB for the check, 0.31 and
    # 0.25 MiB for the text and JSON pieces; on the whole block at once
    # 2.47, 3.0 and 6.0.
    n = 22
    rng = np.random.default_rng(5)
    block = np.argsort(rng.random((parallel.BLOCK_CELLS // n, n)), axis=1).astype(np.uint8)
    fields = pa_module.header_fields(n, len(block), 2)
    ok, peak = traced_peak(lambda: pa_module._permutation_check(n, len(block))(block))
    assert ok and peak < 0.5 * 2**20, peak
    for mirror in (False, True):
        size, peak = traced_peak(lambda: sum(map(len, pa_module._pieces(fields, [block], mirror))))
        assert size > 2 * block.size and peak < 0.5 * 2**20, (mirror, peak)


def test_rise_check_of_a_byte_block_takes_no_block_scratch():
    # A streamed emit checks every block against its neighbours.  uint8 rows
    # are compared as bytes keys viewed in place, so the check allocates
    # about a byte a row; a first-difference search made a bool block and
    # two int64 arrays a row, 40 bytes a row, fresh for every block.
    n = 23
    rng = np.random.default_rng(n)
    perms = np.argsort(rng.random((parallel.BLOCK_CELLS // n, n)), axis=1)
    rows = np.unique(perms.astype(np.uint8), axis=0)
    _, peak = traced_peak(lambda: pa_module._check_rising(rows[1:], rows[:-1]))
    assert peak < 4 * len(rows), peak / len(rows)
    with pytest.raises(ValueError, match="lexicographic order"):
        pa_module._check_rising(rows[:-1], rows[1:])


def test_row_dtype_refuses_degrees_past_the_limit():
    assert pa_module.row_dtype(256) is np.uint8
    assert pa_module.row_dtype(MAX_DEGREE) is np.uint16
    with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 1} exceeds the limit"):
        pa_module.row_dtype(MAX_DEGREE + 1)


def test_nonpermutation_rejected():
    with pytest.raises(ValueError):
        PermArray([(0, 1, 1)], claimed_distance=1)


def block_spanning_rows(n):
    """2^15 + 5 distinct permutations of n >= 8 points: the first 8 points
    permuted, the rest fixed.  With check blocks of 2^14 rows (2^14 * n
    cells) they span two whole blocks and part of a third."""
    head = np.array(list(itertools.islice(itertools.permutations(range(8)), 2**15 + 5)))
    tail = np.broadcast_to(np.arange(8, n), (len(head), n - 8))
    return np.concatenate([head, tail], axis=1)


@pytest.mark.parametrize("n, dtype", [(8, np.uint8), (300, np.uint16)])
def test_bad_rows_rejected_past_the_first_block(n, dtype, monkeypatch):
    monkeypatch.setattr(parallel, "BLOCK_CELLS", 2**14 * n)
    rows = block_spanning_rows(n)
    assert PermArray(rows, claimed_distance=2).rows.dtype == dtype
    for index in (2**14, 2**15 - 1, len(rows) - 1):
        bad = rows.copy()
        bad[index, 1] = bad[index, 0]  # one point twice, one missing
        with pytest.raises(ValueError, match="not a permutation"):
            PermArray(bad, claimed_distance=2)
        repeated = rows.copy()
        repeated[index] = rows[index - 2**14 + 1]
        with pytest.raises(ValueError, match="pairwise distinct"):
            PermArray(repeated, claimed_distance=2)


@pytest.mark.parametrize("n", [8, 300])
def test_sorted_rows_checked_against_their_neighbours(n, monkeypatch):
    monkeypatch.setattr(parallel, "BLOCK_CELLS", 2**14 * n)
    rows = block_spanning_rows(n)  # lexicographically sorted
    hash_calls = []
    row_hashes = pa_module._row_hashes

    def counted_hashes(rows):
        hash_calls.append(1)
        return row_hashes(rows)

    monkeypatch.setattr(pa_module, "_row_hashes", counted_hashes)
    PermArray(rows, claimed_distance=2)
    assert hash_calls == []
    # An adjacent repeat keeps the rows sorted and is rejected by the
    # neighbour compare, on either side of a check block boundary.
    for index in (1, 2**14, 2**14 + 1, len(rows) - 1):
        repeated = rows.copy()
        repeated[index] = rows[index - 1]
        with pytest.raises(ValueError, match="pairwise distinct"):
            PermArray(repeated, claimed_distance=2)
    assert hash_calls == []
    # The neighbour compare finds one inversion and hands over to the hash
    # proof, which hashes the rows once when no two share a hash.
    swapped = rows.copy()
    swapped[[2**14 + 7, 2**14 + 8]] = rows[[2**14 + 8, 2**14 + 7]]
    PermArray(swapped, claimed_distance=2)
    assert len(hash_calls) == 1
    repeated = swapped.copy()
    repeated[2**14 + 9] = swapped[2**14 + 7]  # not adjacent: the hash proof sees it
    with pytest.raises(ValueError, match="pairwise distinct"):
        PermArray(repeated, claimed_distance=2)
    assert len(hash_calls) == 3  # and again to find the rows that share one


def test_pa_import_loads_only_parallel():
    code = (
        "import sys, paforge.pa; "
        "print(sorted(m for m in sys.modules if m.startswith('paforge.')))"
    )
    src = os.path.dirname(os.path.dirname(pa_module.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "['paforge.pa', 'paforge.parallel']"


def test_permutation_check_matches_sorted_rows():
    # Oracle: a row is a permutation exactly when it sorts to 0..n-1.
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 9):
        for _ in range(40):
            m = int(rng.integers(1, 6))
            rows = np.array([rng.permutation(n) for _ in range(m)])
            if rng.random() < 0.5:
                rows[rng.integers(m), rng.integers(n)] = rng.integers(n)
            is_perm = bool((np.sort(rows, axis=1) == np.arange(n)).all())
            assert pa_module._permutation_check(n, len(rows))(rows.astype(np.uint8)) == is_perm


def test_full_failure_reports_first_witness():
    rows = [
        (0, 1, 2, 3, 4),
        (1, 0, 2, 3, 4),  # distance 2 from row 0
        (2, 3, 4, 0, 1),
    ]
    pa = PermArray(rows, claimed_distance=4)
    report = min_distance(pa, "full")
    assert not report.passed
    assert report.witness == (0, 1)
    assert report.min_observed == 2
    # Band 0 holds a violation in its first column block at i = B - 10 and
    # the lex-first one in its second block at i = 5; a later band holds
    # another.  Only bands after the first violating band may be skipped.
    rows, planted = _tiled_rows(seed=6)
    for workers in (1, 2, 5):
        pa = PermArray(rows, claimed_distance=3)
        assert _report(pa, workers) == _oracle(rows, 3)
    assert _oracle(rows, 3)[1] == planted[0]


def test_sampled_mode_seeded():
    rows = _random_rows(60, 8, seed=3)
    pa = PermArray(rows, claimed_distance=2)
    r1 = min_distance(pa, "sampled", sample_pairs=2000, seed=9)
    r2 = min_distance(pa, "sampled", sample_pairs=2000, seed=9)
    assert (r1.min_observed, r1.witness) == (r2.min_observed, r2.witness)
    assert r1.mode == "SAMPLED" and r1.note
    assert r1.pairs_checked == 2000
    assert r1.min_observed >= exact_min_distance(pa)


def _sampled_reference(rows, sample_pairs, seed):
    """The sampled check row by row: the same seeded draws (int64) in the
    same order, the first closest pair drawn, and its place among the
    draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    M, best, witness, remaining = len(rows), rows.shape[1] + 1, (-1, -1), sample_pairs
    at = -1
    while remaining > 0:
        chunk = min(remaining, 1 << 17)
        i = rng.integers(0, M, size=chunk)
        j = rng.integers(0, M - 1, size=chunk)
        j = j + (j >= i)
        d = (rows[i] != rows[j]).sum(axis=1)
        k = int(d.argmin())
        if d[k] < best:
            best, witness = int(d[k]), (int(i[k]), int(j[k]))
            at = sample_pairs - remaining + k
        remaining -= chunk
    return best, witness, at


@pytest.mark.parametrize("m, n", [(400, 6), (60, 300)])
def test_sampled_mode_matches_rowwise_reference(m, n, monkeypatch):
    # Many pairs tie at the minimum, so the witness tells the first closest
    # pair from any other; n = 300 counts agreements in uint16.  Steps of 7
    # rows split a chunk of draws into many, and the witness must be found
    # in a later step as well as in the first.  Both widths give the
    # reference's report to the byte.
    rows = np.array(_random_rows(m, n, seed=n))[np.random.default_rng(n).permutation(m)]
    pa = PermArray(rows, claimed_distance=n)
    later = 0
    for cells in (parallel.BLOCK_CELLS, 7 * n):
        monkeypatch.setattr(parallel, "BLOCK_CELLS", cells)
        for seed in range(3):
            for samples in (1, 1000, (1 << 17) + 5):
                report = min_distance(pa, "sampled", sample_pairs=samples, seed=seed)
                best, witness, at = _sampled_reference(rows, samples, seed)
                assert (report.min_observed, report.witness) == (best, witness)
                assert report.to_json() == pa_module.VerifyReport(
                    "SAMPLED", samples, best, witness, best >= n, n, note=pa_module.SAMPLED_NOTE
                ).to_json()
                later += cells == 7 * n and at % (1 << 17) >= 7
    assert later


@pytest.mark.parametrize("m", [2, 3, 400, 2**16 + 1, 10_200_960, 2**31 - 1])
def test_int32_draws_take_the_int64_values_and_state(m):
    # Below 2^31 rows the sampled check draws int32 indices; its witnesses
    # are those of the int64 draws only if both take the same values and
    # leave the generator in the same state, chunk after chunk.
    for seed in (0, 5, 11, 99, 2**32 + 7):
        narrow, wide = (np.random.Generator(np.random.PCG64(seed)) for _ in "nw")
        for size in (1 << 17, 1 << 17, 1000):
            for top in (m, m - 1):  # i, then j
                got = narrow.integers(0, top, size=size, dtype=np.int32)
                want = wide.integers(0, top, size=size)
                assert got.dtype == np.int32 and np.array_equal(got, want)
            assert narrow.bit_generator.state == wide.bit_generator.state


def test_sampled_check_scratch_does_not_grow_with_the_rows():
    # Besides the rows, the check holds one chunk of 2^17 int32 draws and
    # one step of gathered rows: 2.38 MiB (traced) on the q19 k5 q+1 array
    # (123,804 rows) and on M22 (443,520), where a column-major copy of the
    # rows and int64 draws took 5.5 and 12.4.
    query = SfpQuery(field_for_order(19), Variant.Q_PLUS_1, 2, 3, 1, -1)
    arrays = [build_pa(query), group_to_pa(make_named("mathieu22"))]
    min_distance(arrays[0], "sampled", sample_pairs=1)  # numpy.random loads once
    for pa in arrays:
        report, peak = traced_peak(lambda: min_distance(pa, "sampled", seed=3))
        assert report.min_observed >= pa.claimed_distance
        assert peak < 2.6 * 2**20, (pa, peak / 2**20)


def test_full_pair_cap(monkeypatch):
    rows = _random_rows(40, 8, seed=4)
    pa = PermArray(rows, claimed_distance=2)
    monkeypatch.setattr(pa_module, "FULL_PAIR_CAP", 10)
    with pytest.raises(ValueError):
        min_distance(pa, "full")


def _tiled_rows(seed):
    """Shuffled random rows of 16 points over three row bands and two column
    blocks of the FULL scan, with rows j made from rows i by one swap (a
    distance-2 pair) at the planted (i, j), lex-first first."""
    B = pa_module._TILE_ROWS
    C = parallel.TILE_CELLS // B  # the columns of a full band
    rows = _random_rows(C + 3 * B, 16, seed=seed)
    random.Random(seed).shuffle(rows)
    planted = [(5, C + 100), (B - 10, B + 10), (2 * B + 3, 2 * B + 10)]
    for i, j in planted:
        rows[j] = tuple(_swap(rows[i], 0, 1))
    return rows, planted


def test_workers_do_not_change_result():
    rows = _random_rows(150, 10, seed=5)
    pa = PermArray(rows, claimed_distance=1)
    reports = [min_distance(pa, "full", workers=w) for w in (1, 2, 5)]
    assert len({(r.min_observed, r.witness, r.pairs_checked) for r in reports}) == 1
    # Random rows over several tiles: the exact minimum and its lex-first
    # pair, which can sit in a later column block than a pair at larger i.
    rows, planted = _tiled_rows(seed=7)
    pa = PermArray(rows, claimed_distance=2)
    expected = _oracle(rows, 2)
    assert expected == (2, planted[0], len(rows) * (len(rows) - 1) // 2, True)
    for workers in (1, 2, 5):
        assert _report(pa, workers) == expected
        assert exact_min_distance(pa, workers) == 2
    B = pa_module._TILE_ROWS
    shuffled = _random_rows(parallel.TILE_CELLS // B + 3 * B, 10, seed=8)
    random.Random(8).shuffle(shuffled)
    pa = PermArray(shuffled, claimed_distance=1)
    expected = _oracle(shuffled, 1)
    assert {_report(pa, workers) for workers in (1, 2, 5)} == {expected}


def test_sharply_transitive_examples():
    s3 = group_to_pa(make_named("sym", m=3))
    assert is_sharply_k_transitive(s3, 3)
    agl7 = group_to_pa(make_named("agl1", q=7))
    assert is_sharply_k_transitive(agl7, 2)
    pgl5 = group_to_pa(make_named("pgl2", q=5))
    assert is_sharply_k_transitive(pgl5, 3)
    assert not is_sharply_k_transitive(pgl5, 2)  # 120 != 6!/4!
    with pytest.raises(ValueError):
        is_sharply_k_transitive(s3, 5)


def test_non_group_rows_fail_the_closure_check():
    # The 12 permutations of S4 that send 0 into {0, 1}: 4!/2! rows, but
    # (1 2 0 3) o (1 0 2 3) sends 0 to 2.
    rows = [p for p in itertools.permutations(range(4)) if p[0] < 2]
    with pytest.raises(ValueError, match="not closed under composition"):
        is_sharply_k_transitive(PermArray(rows, claimed_distance=2), 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int16])
@pytest.mark.parametrize("m", [0, 1, 2, 2**14, 2**14 + 1])
@pytest.mark.parametrize("presorted", [False, True])
def test_row_order_matches_first_occurrences(dtype, m, presorted, monkeypatch):
    # Oracle: a dict of each row's first index.  Entries are the dtype's
    # extremes and a few random values, so rows repeat and tie over leading
    # columns; one repeat is planted at the far end.  Blocks of 2^14 rows:
    # m = 2^14 + 1 spans two.  sfp keeps the first occurrences in
    # lexicographic order, and the distinct-rows check agrees with them.
    monkeypatch.setattr(parallel, "BLOCK_CELLS", 2**14 * 4)
    info = np.iinfo(dtype)
    rng = np.random.default_rng(m)
    extremes = [info.min, info.min + 1, info.max]
    values = np.array(extremes + rng.integers(info.min, info.max, 3).tolist())
    rows = values[rng.integers(0, len(values), size=(m, 4))].astype(dtype)
    if m >= 2:
        rows[-1] = rows[0]
    if presorted:
        rows = rows[np.lexsort(rows.T[::-1])]
    first: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        first.setdefault(row, i)
    expected = sorted(first.values(), key=lambda i: tuple(rows[i].tolist()))
    kept = sfp_module._first_rows(rows)
    assert kept.tolist() == expected
    assert pa_module._distinct(rows) == (len(expected) == m)
    assert pa_module._distinct(rows[kept])


def test_sharpness_distance_equivalence_examples():
    for name, params, k in [
        ("pgl2", {"q": 5}, 3),
        ("agl1", {"q": 5}, 2),
        ("sym", {"m": 4}, 4),
    ]:
        pa = group_to_pa(make_named(name, **params))
        assert sharpness_matches_distance(pa, k)


def test_file_round_trip_byte_exact(tmp_path):
    pa = group_to_pa(make_named("agl1", q=5))
    path = tmp_path / "a.txt"
    write_pa(pa, path)
    text1 = path.read_text()
    back = read_pa(path)
    assert format_pa(back) == text1
    assert back.n == pa.n and back.M == pa.M
    assert back.claimed_distance == pa.claimed_distance
    assert back.provenance == pa.provenance
    assert np.array_equal(back.rows, pa.rows)


def test_text_format_across_row_blocks(tmp_path):
    # 40320 rows span three formatting blocks; the text must equal the
    # row-by-row rendering.
    pa = PermArray(list(itertools.permutations(range(8))), claimed_distance=2)
    expected = "PA n=8 M=40320 d=2 inf=none provenance=\n" + "\n".join(
        " ".join(str(x) for x in row) for row in pa.rows.tolist()
    ) + "\n"
    assert format_pa(pa) == expected
    path = tmp_path / "s8.txt"
    write_pa(pa, path)
    assert path.read_text() == expected


def reference_header(pa):
    inf = str(pa.n - 1) if pa.infinity else "none"
    return (
        f"PA n={pa.n} M={pa.M} d={pa.claimed_distance} "
        f"inf={inf} provenance={pa.provenance}\n"
    )


def reference_body(rows):
    """The row-by-row `%` formatter the table-driven writer replaced."""
    template = " ".join(["%d"] * rows.shape[1])
    return "\n".join(template % tuple(r) for r in rows.tolist()) + "\n"


def distinct_rows(n, m, seed):
    """m distinct permutations of n points, relabeled at random."""
    k = min(n, 8)
    tail = np.array(
        list(itertools.islice(itertools.permutations(range(k)), m)), dtype=np.int64
    ).reshape(m, k)
    rows = np.concatenate([np.broadcast_to(np.arange(k, n), (m, n - k)), tail], axis=1)
    rng = np.random.default_rng(seed)
    return rng.permutation(n)[rows][:, rng.permutation(n)]


# Rows per writer block in the test below: m = _B + 1 spans two blocks.
_B = 1 << 14


@pytest.mark.parametrize(
    "n, m",
    [
        (n, m)
        for n in (2, 10, 11, 100, 101, 255, 256, 257, 1001)
        for m in (0, 1, 2, _B, _B + 1)
        if m <= math.factorial(n)
    ],
)
def test_writer_matches_row_by_row_formatter(tmp_path, monkeypatch, n, m):
    monkeypatch.setattr(parallel, "BLOCK_CELLS", _B * n)
    rows = distinct_rows(n, m, seed=n + m)
    body = reference_body(rows)
    for infinity in (False, True):
        pa = PermArray(rows, claimed_distance=2, provenance="p", infinity=infinity)
        expected = reference_header(pa) + body
        assert format_pa(pa) == expected
        path = tmp_path / f"{infinity}.txt"
        write_pa(pa, path)
        assert path.read_bytes() == expected.encode()


def test_json_rows_match_python_ints(tmp_path):
    # n = 257 stores rows as uint16; the mirror lists them as plain integers.
    rows = distinct_rows(257, 3, seed=1)
    pa = PermArray(rows, claimed_distance=2, provenance="p", infinity=True)
    assert pa.rows.dtype == np.uint16
    expected = json.dumps({
        "n": 257, "M": 3, "d": 2, "inf": 256, "provenance": "p",
        "rows": [[int(x) for x in row] for row in rows],
    })
    assert pa_to_json(pa) == expected
    write_pa(pa, tmp_path / "a.json")
    assert (tmp_path / "a.json").read_text() == expected


def mirror_oracle(pa):
    return json.dumps({
        "n": pa.n, "M": pa.M, "d": pa.claimed_distance,
        "inf": pa.n - 1 if pa.infinity else None, "provenance": pa.provenance,
        "rows": [[int(x) for x in row] for row in pa.rows],
    })


@pytest.mark.parametrize(
    "provenance", ["p", "", 'say "hi"', "back\\slash\\n", "tab\tend", "naïve ∞ \U0001f600"]
)
@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (11, 5), (257, 5), (1001, 3), (65536, 2), (5, 0)])
def test_json_mirror_is_json_dumps(tmp_path, monkeypatch, provenance, n, m):
    # Blocks of 2 rows, so rows are joined within and across blocks; the
    # tokens of n = 1001 and 65536 take 8 and 16 bytes.
    monkeypatch.setattr(parallel, "BLOCK_CELLS", 2 * n)
    pa = PermArray(distinct_rows(n, m, seed=n), 1, provenance=provenance, infinity=n % 2 == 1)
    expected = mirror_oracle(pa)
    assert pa_to_json(pa) == expected
    write_pa(pa, tmp_path / "a.json")
    assert (tmp_path / "a.json").read_bytes() == expected.encode()


def test_json_mirror_of_a_q_plus_1_array(tmp_path):
    # An sfp array of length q + 1, whose last point is the integer inf.
    pa = build_pa(best_count(7, 2, Variant.Q_PLUS_1).query)
    assert pa.infinity and pa.M > 1
    write_pa(pa, tmp_path / "a.json")
    assert (tmp_path / "a.json").read_bytes() == mirror_oracle(pa).encode()
    assert json.loads((tmp_path / "a.json").read_text())["inf"] == 7


def test_json_round_trip(tmp_path):
    pa = group_to_pa(make_named("agl1", q=5))
    path = tmp_path / "a.json"
    write_pa(pa, path)
    payload = json.loads(path.read_text())
    assert payload["n"] == 5 and payload["M"] == 20 and payload["inf"] is None
    back = read_pa(path)
    assert np.array_equal(back.rows, pa.rows)


def test_infinity_header(tmp_path):
    rows = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    pa = PermArray(rows, claimed_distance=2, provenance="x", infinity=True)
    path = tmp_path / "inf.txt"
    write_pa(pa, path)
    header = path.read_text().splitlines()[0]
    assert "inf=3" in header
    assert read_pa(path).infinity


@pytest.mark.parametrize("suffix", [".txt", ".json"])
@pytest.mark.parametrize("n", [2, 255, 256, 257, 1000, 1001, 65536])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_written_files_read_back_and_re_emit_byte_exact(tmp_path, suffix, n, m):
    rng = np.random.default_rng(n)
    rows = np.array([rng.permutation(n) for _ in range(m)]).reshape(m, n)
    if m == 2 and n == 2:
        rows = np.array([[0, 1], [1, 0]])
    pa = PermArray(rows, claimed_distance=2, provenance="p q", infinity=n > 255)
    first, second = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
    write_pa(pa, first)
    back = read_pa(first)
    write_pa(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert (back.n, back.M, back.infinity) == (n, m, n > 255)
    assert back.rows.dtype == pa.rows.dtype and np.array_equal(back.rows, pa.rows)


def reference_rows(path):
    """The line reader that block parsing replaced: the text split into
    lines, blank ones dropped, the rest parsed by one int64 loadtxt."""
    lines = path.read_text(encoding="utf-8").splitlines()
    n = int(lines[0].split()[1][len("n="):])
    body = [line for line in lines[1:] if line.strip()]
    if not body:
        return np.empty((0, n), np.int64)
    return np.loadtxt(body, dtype=np.int64, ndmin=2, comments=None)


def untidy_text(rows, end):
    """rows as text with the line ending `end`, blank and whitespace-only
    lines, tabs and leading and trailing spaces, and no final line end."""
    lines = [f"PA n={rows.shape[1]} M={len(rows)} d=2 inf=none provenance=p", ""]
    for i, row in enumerate(rows.tolist()):
        sep = "\t" if i % 3 == 0 else " " * (1 + i % 2)
        lines.append(" " * (i % 4) + sep.join(map(str, row)) + " \t"[: i % 3])
        if i % 5 == 1:
            lines.append(" \t  " if i % 2 else "")
    return end.join(lines).encode()


@pytest.mark.parametrize("block_bytes", [1, 5, 64, 1 << 20])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("n", [12, 300])
def test_block_reader_matches_line_reader(tmp_path, monkeypatch, block_bytes, end, n):
    monkeypatch.setattr(parallel, "BLOCK_CELLS", block_bytes)
    path = tmp_path / "untidy.txt"
    path.write_bytes(untidy_text(distinct_rows(n, 40, seed=n), end))
    back = read_pa(path)
    expected = reference_rows(path)
    assert back.rows.dtype == pa_module.row_dtype(n) and len(expected) == 40
    assert np.array_equal(back.rows, expected)


@pytest.mark.parametrize("block_bytes", [1, 8])
@pytest.mark.parametrize(
    "body, message",
    [
        ("0 1 2\n1 2 0\n\n2 0\n", "rows of shape"),  # ragged across blocks
        ("0 1 2\n1 2 0\n2 0 1 3\n", "rows of shape"),
        ("0 1 2\n1 2 0\n256 0 1\n", "points must be integers in [0, 3)"),
        ("0 1 2\n1 2 0\n-1 0 1\n", "points must be integers in [0, 3)"),
    ],
)
def test_block_reader_rejects_rows_in_later_blocks(
    tmp_path, monkeypatch, block_bytes, body, message
):
    monkeypatch.setattr(parallel, "BLOCK_CELLS", block_bytes)
    path = tmp_path / "bad.txt"
    path.write_text("PA n=3 M=3 d=2 inf=none provenance=x\n" + body)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_pa(path)


@pytest.mark.parametrize("m", [3, 10**15, -1])
def test_header_rows_the_body_cannot_hold_are_refused_unallocated(tmp_path, monkeypatch, m):
    # A row of n points takes at least 2n bytes, less the last line end:
    # this 11-byte body holds two rows of 3 points and no more.
    path = tmp_path / "short.txt"
    body = "0 1 2\n1 2 0"
    path.write_text(f"PA n=3 M=2 d=2 inf=none provenance=x\n{body}")
    assert read_pa(path).M == 2
    path.write_text(f"PA n=3 M={m} d=2 inf=none provenance=x\n{body}")

    def no_buffer(*args, **kwargs):
        raise AssertionError("a row buffer was allocated")

    monkeypatch.setattr(pa_module.np, "empty", no_buffer)
    with pytest.raises(ValueError, match=f"header says {m} rows, the body holds at most 2"):
        read_pa(path)


@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_arrays_over_the_cell_cap_are_refused_unallocated(tmp_path, monkeypatch, suffix):
    # 3 rows of 4 points: read at a cap of 12 cells, refused at 11 before
    # a row buffer exists.
    path = tmp_path / f"a{suffix}"
    write_pa(PermArray(distinct_rows(4, 3, seed=4), 2), path)
    monkeypatch.setattr(pa_module, "EMIT_CELL_CAP", 12)
    assert read_pa(path).M == 3
    monkeypatch.setattr(pa_module, "EMIT_CELL_CAP", 11)

    def no_buffer(*args, **kwargs):
        raise AssertionError("a row buffer was allocated")

    monkeypatch.setattr(pa_module.np, "empty", no_buffer)
    with pytest.raises(ValueError, match="3 rows of 4 points exceed the cell cap 11"):
        read_pa(path)


@pytest.mark.parametrize("n", [2, 22, 256])
def test_permarray_over_the_cell_cap_is_refused_uncopied(n):
    # Every array holds at most EMIT_CELL_CAP cells, so its rows fit the
    # int32 indices of verification.  A broadcast view one row over the cap
    # is refused before it is narrowed or copied (a copy takes 256 MiB).
    cap = pa_module.EMIT_CELL_CAP
    rows = np.broadcast_to(np.arange(n, dtype=np.uint8), (cap // n + 1, n))

    def refused():
        with pytest.raises(ValueError, match=f"rows of {n} points exceed the cell cap {cap}$"):
            PermArray(rows, 2)

    _, peak = traced_peak(refused)
    assert peak < 2**20, peak


def test_surplus_row_refused_before_later_blocks_are_read(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "BLOCK_CELLS", 1)  # one line a block
    path = tmp_path / "long.txt"
    path.write_text("PA n=3 M=2 d=2 inf=none provenance=x\n0 1 2\n1 2 0\n2 0 1\nnot a row\n")
    with pytest.raises(ValueError, match="a row past the header's M=2"):
        read_pa(path)


def test_read_peaks_under_12_bytes_a_cell(tmp_path):
    # Sorted distinct rows, as emitted files hold them: 2.1M cells.  The
    # line reader held the text, its lines and an int64 copy: 19 bytes a cell.
    rng = np.random.default_rng(0)
    rows = rng.permuted(np.tile(np.arange(20, dtype=np.uint8), (105_000, 1)), axis=1)
    rows = np.unique(rows, axis=0)
    path = tmp_path / "big.txt"
    write_pa(PermArray(rows, claimed_distance=2), path)
    del rows
    back, peak = traced_peak(lambda: read_pa(path))
    assert back.rows.size >= 2_000_000
    assert peak < 12 * back.rows.size


def test_read_peak_does_not_grow_with_the_text(tmp_path):
    # Unsorted distinct rows, as an sfp file holds them, padded with blank
    # lines and runs of spaces to five times the text: the reader holds its
    # row buffer, the order of the distinctness check and one block, not
    # the text (12.2 bytes a cell when the file was read whole).
    rng = np.random.default_rng(1)
    rows = rng.permuted(np.tile(np.arange(20, dtype=np.uint8), (105_000, 1)), axis=1)
    rows = np.unique(rows, axis=0)
    rows = rows[rng.permutation(len(rows))]
    path = tmp_path / "padded.txt"
    write_pa(PermArray(rows, claimed_distance=2), path)
    head, *lines = path.read_text().splitlines()
    padded = [head]
    for line in lines:
        padded += ["    ".join(line.split()) + " " * 60, "", " " * 100]
    text = path.stat().st_size
    path.write_text("\n".join(padded) + "\n")
    assert path.stat().st_size >= 5 * text
    back, peak = traced_peak(lambda: read_pa(path))
    assert np.array_equal(back.rows, rows)
    assert peak <= 2.5 * rows.size + parallel.BLOCK_CELLS, peak / rows.size


def test_malformed_files_rejected(tmp_path):
    bad1 = tmp_path / "b1.txt"
    bad1.write_text("not a header\n0 1 2\n")
    with pytest.raises(ValueError):
        read_pa(bad1)
    bad2 = tmp_path / "b2.txt"
    bad2.write_text("PA n=3 M=2 d=2 inf=none provenance=x\n0 1 2\n")
    with pytest.raises(ValueError):
        read_pa(bad2)  # row count mismatch
    bad3 = tmp_path / "b3.txt"
    bad3.write_text("PA n=3 M=2 d=2 inf=none provenance=x\n0 1 2\n0 1\n")
    with pytest.raises(ValueError):
        read_pa(bad3)  # short row
