"""FULL verification through checked isometries: the scan must be handed
fewer representatives than rows where the arrays have symmetry, and every
report must equal the scan of every pair's and the brute-force oracle's."""

import functools
import random

import numpy as np
import pytest

from paforge import groups as groups_module
from paforge import pa as pa_module
from paforge.field import field_for_order
from paforge.groups import group_to_pa, make_named
from paforge.pa import PermArray, min_distance, read_pa, write_pa
from paforge.pam import build_pa
from paforge.sfp import SfpQuery, Variant
from reference import exact_min_distance

from test_pa import _oracle, _swap

# The six published fraction rows and the five rows of the FULL benchmark
# pass (q19 k3/k4 q and q17/q23 k3 q+1 are in both), as (q, variant, s, t, a, b).
FRACTION_ROWS = {
    "q19-k3-q": (19, Variant.Q, 1, 2, 0, 0),
    "q19-k4-q": (19, Variant.Q, 2, 2, 0, 0),
    "q19-k5-q": (19, Variant.Q, 3, 2, 0, 0),
    "q17-k3-q+1": (17, Variant.Q_PLUS_1, 2, 1, 1, -1),
    "q19-k5-q+1": (19, Variant.Q_PLUS_1, 2, 3, 1, -1),
    "q23-k3-q+1": (23, Variant.Q_PLUS_1, 2, 1, 1, -1),
    "q25-k3-q+1": (25, Variant.Q_PLUS_1, 2, 1, 1, -1),
}


@functools.cache
def _fraction_array(name):
    q, variant, s, t, a, b = FRACTION_ROWS[name]
    return build_pa(SfpQuery(field_for_order(q), variant, s, t, a, b), workers=2)


def _full(pa, workers=None):
    r = min_distance(pa, "full", workers=workers)
    return r.min_observed, r.witness, r.pairs_checked, r.passed


def _tiled(pa, workers=2):
    """The report of the scan of every pair (each row its own
    representative), with min_distance's closed forms."""
    reps = np.arange(pa.M)
    observed, (i, j), violated = pa_module._scan_pairs(pa, pa.claimed_distance, reps, workers)
    M = pa.M
    if violated:
        return observed, (i, j), i * (M - 1) - i * (i - 1) // 2 + (j - i), False
    return observed, (i, j), M * (M - 1) // 2, True


def _proven(pa, monkeypatch, workers):
    """The FULL report, with the scan checked to be handed fewer
    representatives than rows."""
    handed = []
    scan = pa_module._scan_pairs

    def counted(pa, claimed, reps, workers):
        handed.append(len(reps))
        return scan(pa, claimed, reps, workers)

    with monkeypatch.context() as m:
        m.setattr(pa_module, "_scan_pairs", counted)
        result = _full(pa, workers), exact_min_distance(pa, workers)
    assert len(handed) == 2 and max(handed) < pa.M
    return result


def _with_claim(pa, claimed):
    return PermArray(pa.rows, claimed, provenance=pa.provenance, infinity=pa.infinity)


@pytest.mark.parametrize("name", sorted(FRACTION_ROWS))
def test_fraction_rows_are_proven_through_isometries(name, monkeypatch):
    pa = _fraction_array(name)
    expected = _tiled(pa)
    assert expected[3]
    for workers in (1, 2):
        assert _proven(pa, monkeypatch, workers) == (expected, expected[0])
    # A claim one above the minimum fails at the lex-first closest pair,
    # which the tiled scan reaches early.
    strict = _with_claim(pa, expected[0] + 1)
    failed = _tiled(strict)
    assert not failed[3] and failed[1] == expected[1]
    for workers in (1, 2):
        assert _proven(strict, monkeypatch, workers)[0] == failed


def _orbit(base, value_shift):
    """The rows x -> base[x + k] (and, with value_shift, base[x + k] + v)
    over Z_n: the orbit of one row under the column shift of Z_n, and
    under the value shift too."""
    n = len(base)
    orbit = {tuple(np.roll(base, -k)) for k in range(n)}
    if value_shift:
        orbit = {tuple((np.array(row) + v) % n) for row in orbit for v in range(n)}
    return sorted(orbit)


def _closed_rows(n, seeds, value_shift, rng):
    """The orbits of random rows of Z_n, one list each."""
    return [_orbit(rng.sample(range(n), n), value_shift) for _ in range(seeds)]


def _planted_array(n, value_shift, seed):
    """Rows closed under a small isometry group, first the rows of one
    orbit, then the rest shuffled, with an extra orbit made by one swap in
    a later orbit's base row: its pairs at distance 2 lie outside the
    orbit of row 0."""
    rng = random.Random(seed)
    orbits = _closed_rows(n, 3, value_shift, rng)
    near = _swap(orbits[2][0], n - 2, n - 1)
    rest = [row for o in orbits[1:] for row in o] + _orbit(near, value_shift)
    rng.shuffle(rest)
    return orbits[0] + rest, len(orbits) + 1


@pytest.mark.parametrize(
    "n,value_shift", [(13, True), (13, False), (257, False)], ids=["uint8-2gens", "uint8", "uint16"]
)
def test_planted_close_pair_outside_the_first_orbit(n, value_shift, monkeypatch):
    # The prime width n offers the field maps of GF(n): the column shift
    # (and the value shift) pass, the scalings do not.  At n = 257 the
    # points need uint16, and the planted rows share their leading points,
    # so they are found by the whole-row keys.
    # Small tiles split the representatives and the rows over many tiles.
    rows, orbits = _planted_array(n, value_shift, seed=n)
    for claimed, tile_rows, tile_cols in ((2, 64, 8192), (3, 64, 8192), (3, 2, 16)):
        monkeypatch.setattr(pa_module, "_TILE_ROWS", tile_rows)
        monkeypatch.setattr(pa_module, "_TILE_COLS", tile_cols)
        pa = PermArray(rows, claimed, provenance=f"sfp:q={n},variant=q,s=1,t=1")
        assert len(pa_module._orbit_representatives(pa)) == orbits
        expected = _oracle(rows, claimed)
        if tile_rows == 64:
            assert _tiled(pa) == expected
        for workers in (1, 2):
            assert _proven(pa, monkeypatch, workers) == (expected, 2)
    # The witness row is not in the orbit of row 0.
    assert _oracle(rows, 3)[1][0] >= (n * n if value_shift else n)


def test_keys_search_as_lexsort_orders_rows():
    # Little-endian uint16 bytes put 256 = (0, 1) before 1 = (1, 0); the
    # bytes keys must order the rows as lexsort does.
    rows = np.array([_swap(range(300), 0, 256), _swap(range(300), 0, 1), range(300)], np.uint16)
    srt = rows[np.lexsort(rows.T[::-1])]
    assert srt[:, 0].tolist() == [0, 1, 256]
    keys = pa_module._sorted_keys(srt)
    assert (np.searchsorted(keys, keys) == np.arange(3)).all()
    # uint16 rows are found by their hashes: agl1(257) is one orbit.
    pa = group_to_pa(make_named("agl1", q=257))
    assert pa.rows.dtype == np.uint16
    assert len(pa_module._orbit_representatives(pa)) == 1
    assert _full(pa) == (256, (0, 1), 2164260736, True)


def _column_shift(rows):
    return np.roll(rows, -1, axis=1)


def test_a_candidate_that_maps_one_row_outside_is_rejected(monkeypatch):
    # The shift orbits of four rows, less one row: the shift maps exactly
    # one row (the deleted row's preimage) outside the set.  It must be
    # rejected in whichever block of the check that row falls.
    n = 11
    rows = [row for o in _closed_rows(n, 4, False, random.Random(5)) for row in o]
    monkeypatch.setattr(pa_module, "_candidate_isometries", lambda pa: [_column_shift])
    full = PermArray(rows, 2)
    assert len(pa_module._orbit_representatives(full)) == 4
    # The check reads a first block of _TILE_ROWS rows, then blocks of
    # _BLOCK_CELLS cells (8 rows of n points in the second round).
    for first, cells in ((pa_module._TILE_ROWS, pa_module._BLOCK_CELLS), (4, 8 * n)):
        monkeypatch.setattr(pa_module, "_TILE_ROWS", first)
        monkeypatch.setattr(pa_module, "_BLOCK_CELLS", cells)
        for gone in (0, 17, len(rows) - 1):
            kept = rows[:gone] + rows[gone + 1 :]
            pa = PermArray(kept, 2)
            assert len(pa_module._orbit_representatives(pa)) == len(kept)
            assert _full(pa) == _oracle(kept, 2)


def test_relabeled_fraction_array_falls_back_to_the_tiled_scan(monkeypatch):
    # Permuted columns, renamed symbols and shuffled rows keep every
    # distance, but not the field maps that the width 19 offers: no candidate
    # passes, so every row is its own representative and the scan of every
    # pair gives the oracle's report.
    pa = build_pa(SfpQuery(field_for_order(19), Variant.Q, 1, 2))
    rng = np.random.default_rng(3)
    rows = rng.permutation(19)[pa.rows[rng.permutation(pa.M)][:, rng.permutation(19)]]
    relabeled = PermArray(rows, pa.claimed_distance, provenance=pa.provenance)
    assert len(pa_module._orbit_representatives(relabeled)) == relabeled.M
    calls = []
    scan = pa_module._scan_pairs

    def counted(pa, claimed, reps, workers):
        calls.append((claimed, reps.tolist()))
        return scan(pa, claimed, reps, workers)

    expected = _oracle(rows, pa.claimed_distance)
    assert expected[0] == min_distance(pa).min_observed
    monkeypatch.setattr(pa_module, "_scan_pairs", counted)
    for workers in (1, 2):
        assert _full(relabeled, workers) == expected
    assert calls == [(pa.claimed_distance, list(range(relabeled.M)))] * 2


def _involution_closed(n, conjugate, seed):
    """Random rows of n points closed under x -> n-1-x on the columns (with
    conjugate, on the values too, and then with rows that commute with it,
    its fixed points), shuffled, with a planted distance-2 pair."""
    rng = random.Random(seed)
    flip = list(range(n))[::-1]

    def image(row):
        return tuple(flip[row[x]] if conjugate else row[x] for x in flip)

    rows = set()
    for _ in range(40):
        row = rng.sample(range(n), n)
        rows |= {tuple(row), image(row)}
    near = _swap(row, 0, 1)
    rows |= {tuple(near), image(near)}
    if conjugate:
        for _ in range(20):
            half = rng.sample(range(n // 2), n // 2)
            rows.add(tuple(half + [n - 1 - v for v in reversed(half)]))
    rows = sorted(rows)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("conjugate", [False, True], ids=["columns", "conjugation"])
def test_rows_with_half_to_all_representatives_scan_fewer_pairs(conjugate, monkeypatch):
    # Orbits of one or two rows under an involution: between M/2 and M
    # representatives (exactly M/2 without fixed rows), which scan
    # k(M - 1) - k(k - 1)/2 of the M(M - 1)/2 pairs.
    n = 10
    flip = np.arange(n)[::-1]
    rows = _involution_closed(n, conjugate, seed=11)
    image = (lambda r: flip[r][:, flip]) if conjugate else (lambda r: r[:, flip])
    monkeypatch.setattr(pa_module, "_candidate_isometries", lambda pa: [image])
    M = len(rows)
    reps = pa_module._orbit_representatives(PermArray(rows, 2)).tolist()
    k = len(reps)
    assert M <= 2 * k < 2 * M and (2 * k > M) == conjugate
    scanned = k * (M - 1) - k * (k - 1) // 2
    least = _oracle(rows, 0)[0]
    for claimed in (2, 3, 5):
        pa = PermArray(rows, claimed)
        expected = _oracle(rows, claimed)
        for tile_rows, tile_cols in ((64, 8192), (2, 16)):
            monkeypatch.setattr(pa_module, "_TILE_ROWS", tile_rows)
            monkeypatch.setattr(pa_module, "_TILE_COLS", tile_cols)
            for workers in (1, 2, 5):
                assert _proven(pa, monkeypatch, workers) == (expected, least)
    monkeypatch.setattr(pa_module, "FULL_PAIR_CAP", scanned - 1)
    with pytest.raises(ValueError, match=f"^{scanned} pairs exceed the full-verification cap"):
        min_distance(pa, "full")
    monkeypatch.setattr(pa_module, "FULL_PAIR_CAP", scanned)
    # One cell a tile: the unmasked cells are the pairs (r, j) of each
    # representative r with every row but r and the representatives before.
    cells = []
    map_blocks = pa_module.map_blocks

    def mapped(fn, tiles, workers):
        found = map_blocks(fn, tiles, workers)
        cells.extend(found)
        return found

    monkeypatch.setattr(pa_module, "map_blocks", mapped)
    monkeypatch.setattr(pa_module, "_TILE_ROWS", 1)
    monkeypatch.setattr(pa_module, "_TILE_COLS", 1)
    assert exact_min_distance(pa, 1) == least
    later = {(r, j) for a, r in enumerate(reps) for j in range(M) if j not in reps[: a + 1]}
    assert {(i, j) for _, top, i, j in cells if top} == later
    assert len(later) == scanned


@pytest.mark.parametrize("name,params", [("agl1", {"q": 8}), ("pgl2", {"q": 7})])
def test_candidates_stop_once_the_rows_form_one_orbit(name, params, monkeypatch):
    # Right composition with the first two row candidates generates the
    # group, so the rows form one orbit and the third candidate, which
    # cannot change that, is never evaluated.  Both arrays have 8 points,
    # so GF(8)'s four maps follow the three row maps.
    pa = group_to_pa(make_named(name, **params))
    candidates = list(pa_module._candidate_isometries(pa))
    assert len(candidates) == 7
    evaluated = []

    def counted(k):
        def image_of(rows):
            evaluated.append(k)
            return candidates[k](rows)
        return image_of

    with monkeypatch.context() as m:
        m.setattr(pa_module, "_candidate_isometries", lambda pa: candidates[:1])
        assert len(pa_module._orbit_representatives(pa)) > 1
    monkeypatch.setattr(
        pa_module, "_candidate_isometries", lambda pa: [counted(k) for k in range(3)]
    )
    assert pa_module._orbit_representatives(pa).tolist() == [0]
    assert sorted(set(evaluated)) == [0, 1]
    assert _full(pa) == _tiled(pa)


@pytest.mark.parametrize(
    "name,params", [("agl1", {"q": 7}), ("agl1", {"q": 16}), ("pgl2", {"q": 7}), ("pgl2", {"q": 8})]
)
def test_group_arrays_proven_under_a_cap_the_tiled_scan_exceeds(name, params, monkeypatch):
    pa = group_to_pa(make_named(name, **params))
    reps = len(pa_module._orbit_representatives(pa))
    M = pa.M
    assert reps * M < M * (M - 1) // 2
    expected = _oracle(pa.rows, pa.claimed_distance)
    assert _tiled(pa) == expected
    scanned = reps * (M - 1) - reps * (reps - 1) // 2
    monkeypatch.setattr(pa_module, "FULL_PAIR_CAP", scanned)
    for workers in (1, 2):
        assert _proven(pa, monkeypatch, workers) == (expected, expected[0])
    monkeypatch.setattr(pa_module, "FULL_PAIR_CAP", scanned - 1)
    with pytest.raises(ValueError, match=f"^{scanned} pairs exceed the full-verification cap"):
        min_distance(pa, "full")


def _images_of_identity(pa):
    """The image of the identity row under each candidate, in order."""
    ident = np.arange(pa.n, dtype=pa.rows.dtype)[None, :]
    return [image_of(ident)[0].tolist() for image_of in pa_module._candidate_isometries(pa)]


@pytest.mark.parametrize("name", sorted(FRACTION_ROWS))
def test_field_maps_come_from_the_shape_not_the_provenance(name):
    # The field order is read off the width (less the infinity point), so a
    # fraction array with no provenance meets the maps that its `sfp:`
    # provenance would name: the three row maps, then x -> x+1 and x -> wx
    # on the columns, then v -> wv and v -> v+1 on the values, and gets the
    # same representatives and, where it is quick, the same FULL report.
    pa = _fraction_array(name)
    bare = PermArray(pa.rows, pa.claimed_distance, infinity=pa.infinity)
    assert pa.provenance.startswith("sfp:") and bare.provenance == ""
    F, M = field_for_order(FRACTION_ROWS[name][0]), pa.M
    fixed = list(range(F.q, pa.n))
    shift = [F.add(x, 1) for x in range(F.q)] + fixed
    scale = [F.mul(F.primitive, x) for x in range(F.q)] + fixed
    rows = [pa.row(i) for i in (M // 3, 2 * M // 3, M - 1)]
    expected = [list(r) for r in rows] + [shift, scale, scale, shift]
    assert _images_of_identity(bare) == _images_of_identity(pa) == expected
    reps = pa_module._orbit_representatives(pa)
    assert len(reps) < M
    assert np.array_equal(pa_module._orbit_representatives(bare), reps)
    if M < 25_000:
        assert min_distance(bare, "full") == min_distance(pa, "full")


@pytest.mark.parametrize("infinity", [False, True], ids=["n=6", "n=7-with-infinity"])
def test_widths_that_fit_no_field_get_only_the_row_maps(infinity):
    # q = 6 is not a prime power, with or without the infinity point; the
    # same rows read with n = 7 as a field order get GF(7)'s four maps.
    rows = [row + (6,) if infinity else row for row in _orbit(list(range(6)), True)]
    pa = PermArray(rows, 2, provenance="sfp:q=6,variant=q", infinity=infinity)
    assert len(list(pa_module._candidate_isometries(pa))) == 3
    if infinity:
        assert len(list(pa_module._candidate_isometries(PermArray(rows, 2)))) == 7
    assert _full(pa) == _oracle(rows, 2)


@pytest.mark.parametrize("name,params", [("agl1", {"q": 8}), ("pgl2", {"q": 7}), ("sym", {"m": 5})])
def test_a_group_the_row_maps_prove_builds_no_field(name, params, monkeypatch):
    # The rows form one orbit under the row maps, so the candidates stop
    # before AGL(1, q) is asked for, though 8 and 5 are field orders.
    pa = group_to_pa(make_named(name, **params))

    def refused(*args, **kwargs):
        raise AssertionError("make_named called")

    monkeypatch.setattr(groups_module, "make_named", refused)
    assert pa_module._orbit_representatives(pa).tolist() == [0]
    assert _full(pa) == _tiled(pa)


def test_forced_hash_collisions_change_no_result(tmp_path, monkeypatch):
    # With every weight 1, every permutation row hashes to n(n - 1)/2: the
    # distinct-rows check compares every row in full, and no FULL candidate
    # finds its images, so every row is its own representative.  The
    # reports stay those of the unpatched hashes.
    pa = _fraction_array("q19-k3-q")
    rng = np.random.default_rng(7)
    rows = _fraction_array("q17-k3-q+1").rows
    relabeled = rng.permutation(18)[rows[rng.permutation(len(rows))][:, rng.permutation(18)]]
    corrupted = _fraction_array("q23-k3-q+1").rows.copy()
    corrupted[5] = corrupted[900][_swap(range(24), 3, 11)]
    write_pa(PermArray(relabeled, 14), tmp_path / "relabeled.txt")
    write_pa(PermArray(corrupted, 20), tmp_path / "corrupted.txt")
    arrays = [
        lambda: pa,
        lambda: group_to_pa(make_named("pgl2", q=7)),
        lambda: read_pa(tmp_path / "relabeled.txt"),
        lambda: read_pa(tmp_path / "corrupted.txt"),
    ]
    want = [[_full(make(), workers) for workers in (1, 2)] for make in arrays]
    assert not want[3][0][3]
    monkeypatch.setattr(pa_module, "_hash_weights", lambda n: np.ones(n, np.uint64))
    assert (pa_module._row_hashes(pa.rows) == 19 * 18 // 2).all()
    shuffled = pa.rows[rng.permutation(pa.M)]
    assert PermArray(shuffled, pa.claimed_distance).M == pa.M
    shuffled[pa.M // 2] = shuffled[7]
    with pytest.raises(ValueError, match="pairwise distinct"):
        PermArray(shuffled, pa.claimed_distance)
    assert len(pa_module._orbit_representatives(pa)) == pa.M
    assert [[_full(make(), workers) for workers in (1, 2)] for make in arrays] == want
