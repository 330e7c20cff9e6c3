"""Completion rules and assembled arrays: forced points, bijectivity,
distance guarantees, determinism."""

import dataclasses

import numpy as np
import pytest

from paforge.field import Field
from paforge.fracpoly import make, value_count
from paforge.pa import exact_min_distance, format_pa, min_distance, row_dtype
from paforge.pam import assign_q, assign_q1, build_pa, build_q1_pam, build_q_pam
from paforge.poly import Poly
from paforge.sfp import (
    OFFSET_CHOICES,
    SfpQuery,
    Variant,
    enumerate_fast,
    field_for_order,
)

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)


def frac(field, num, den=(1,)):
    return make(Poly.of(field, num), Poly.of(field, den))


def test_q_pam_hand_examples():
    assert build_q_pam(frac(F3, (0, 1))) == (0, 1, 2)
    assert build_q_pam(frac(F3, (1, 2, 1))) == (1, 2, 0)
    assert build_q_pam(frac(F3, (0, 0, 1))) == (0, 1, 2)


def test_q1_pam_hand_examples():
    assert build_q1_pam(frac(F3, (0, 1))) == (0, 1, 2, 3)
    assert build_q1_pam(frac(F3, (1,), (0, 1))) == (3, 1, 2, 0)
    assert build_q1_pam(frac(F3, (0, 0, 1), (1, 1))) == (0, 2, 3, 1)


def test_pam_respects_forced_points():
    # Wherever the fraction attains a value, the permutation sends one of the
    # preimages (the smallest) to it.
    for phi in (
        frac(F5, (1, 2, 1)),
        frac(F5, (2, 0, 1), (1, 1)),
        frac(F7, (1, 3, 0, 2)),
        frac(F7, (1,), (0, 2, 1)),
    ):
        F = phi.field
        q = F.q
        psi = build_q_pam(phi)
        preimages = {}
        for beta in range(q):
            gv = phi.den.eval(beta)
            if gv == 0:
                continue
            val = F.mul(phi.num.eval(beta), F.inv(gv))
            preimages.setdefault(val, []).append(beta)
        for val, pre in preimages.items():
            assert psi[min(pre)] == val
        assert sorted(psi) == list(range(q))


def test_assignment_bookkeeping():
    # Forced assignments are one per attained value (plus the extra-point
    # rule for length q+1); fills make up the difference.
    for phi in (
        frac(F5, (1, 2, 1)),
        frac(F5, (2, 0, 1), (1, 1)),
        frac(F7, (1,), (0, 2, 1)),
        frac(F7, (0, 3)),
    ):
        v = value_count(phi).v
        q = phi.field.q
        a = assign_q(phi)
        assert (a.forced_count, a.filled_count) == (v, q - v)
        a1 = assign_q1(phi)
        assert (a1.forced_count, a1.filled_count) == (v + 1, q - v)
        assert a1.phi is phi


def test_q1_pam_pole_handling():
    phi = frac(F5, (1,), (0, 0, 1))  # 1/x^2, double root at 0
    psi = build_q1_pam(phi)
    assert psi[0] == 5  # smallest root carries the extra point
    assert sorted(psi) == list(range(6))
    nopole = frac(F5, (0, 0, 1))
    assert build_q1_pam(nopole)[5] == 5


def test_batched_build_matches_single_builders():
    for query in (
        SfpQuery(F7, Variant.Q, 1, 2),
        SfpQuery(F7, Variant.Q_PLUS_1, 1, 1, 0, 0),
        SfpQuery(F7, Variant.Q_PLUS_1, 2, 1, 1, -1),
    ):
        result = enumerate_fast(query)
        pa = build_pa(query, result=result)
        build = build_q_pam if query.variant is Variant.Q else build_q1_pam
        for idx, phi in enumerate(result.members):
            assert pa.row(idx) == build(phi)


@pytest.mark.parametrize(
    "q,variant", [(256, Variant.Q), (256, Variant.Q_PLUS_1), (257, Variant.Q)]
)
def test_batched_build_at_row_dtype_edge(q, variant):
    # Row length q or q+1 crosses 256, where rows move from uint8 to uint16.
    query = SfpQuery(field_for_order(q), variant, 1, 0)
    result = enumerate_fast(query)
    sample = dataclasses.replace(result, members=result.members[::4099])
    pa = build_pa(query, result=sample)
    assert pa.rows.dtype == row_dtype(query.length())
    build = build_q_pam if variant is Variant.Q else build_q1_pam
    for idx, phi in enumerate(sample.members):
        assert pa.row(idx) == build(phi)


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
