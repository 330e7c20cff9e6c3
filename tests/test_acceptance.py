"""Acceptance gate: every criterion from the build contract, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see them.

Tolerances here are exact integer matches and exact distance thresholds;
sampled checks use the pinned seeds and trial counts.
"""

import itertools

import pytest

from paforge.field import Field
from paforge.fracpoly import FracPoly, make, transform, value_count
from paforge.groups import (
    group_order,
    group_to_pa,
    make_named,
    minimal_degree,
)
from paforge.pa import (
    exact_min_distance,
    format_pa,
    min_distance,
    read_pa,
    sharpness_matches_distance,
    write_pa,
)
from paforge.pam import build_pa
from paforge.poly import Poly, gcd as poly_gcd
from paforge.sfp import (
    OFFSET_CHOICES,
    SfpQuery,
    Variant,
    best_count,
    enumerate_fast,
    enumerate_oracle,
    field_for_order,
    is_member,
)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{criterion}] {tag}{suffix}")
    return ok


# -- 1. bound reproduction, length q ------------------------------------------


@pytest.mark.parametrize(
    "k,expected", [(3, 684), (4, 6840), (5, 65322)], ids=["k3", "k4", "k5"]
)
def test_criterion_1_length_q_bounds(k, expected):
    bc = best_count(19, k, Variant.Q)
    ok = report(
        f"criterion 1: length-19 count, k={k}",
        bc.count == expected,
        f"count={bc.count}, expected={expected}, argmax=(s={bc.s},t={bc.t})",
    )
    assert ok


# -- 2. bound reproduction, length q+1 ----------------------------------------


@pytest.mark.parametrize(
    "q,k,expected", [(17, 3, 9520), (23, 3, 23782)], ids=["q17k3", "q23k3"]
)
def test_criterion_2_length_q1_bounds(q, k, expected):
    bc = best_count(q, k, Variant.Q_PLUS_1)
    ok = report(
        f"criterion 2: length-{q + 1} count, k={k}",
        bc.count == expected,
        f"count={bc.count}, expected={expected}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_2_length_q1_bound_slow_tier():
    bc = best_count(19, 5, Variant.Q_PLUS_1)
    ok = report(
        "criterion 2: length-20 count, k=5 (slow tier)",
        bc.count == 123804,
        f"count={bc.count}",
    )
    assert ok


# -- 3. distance guarantees at small q ----------------------------------------


def test_criterion_3_distance_guarantees():
    violations = []
    cells = 0
    for q in (5, 7, 11):
        F = field_for_order(q)
        for s in range(0, 4):
            for t in range(0, 4 - s):
                queries = [SfpQuery(F, Variant.Q, s, t)]
                for a, b in OFFSET_CHOICES:
                    try:
                        queries.append(SfpQuery(F, Variant.Q_PLUS_1, s, t, a, b))
                    except ValueError:
                        continue
                for query in queries:
                    pa = build_pa(query)
                    if pa.M < 2:
                        continue
                    cells += 1
                    observed = exact_min_distance(pa)
                    if observed < query.distance():
                        violations.append((query.describe(), observed))
    ok = report(
        "criterion 3: distance guarantees q in {5,7,11}, s+t <= 3",
        not violations,
        f"{cells} cells fully verified, violations={violations}",
    )
    assert ok


# -- 4. constructed arrays at paper scale --------------------------------------


def test_criterion_4_full_verification_684():
    pa = build_pa(SfpQuery(field_for_order(19), Variant.Q, 1, 2))
    rep = min_distance(pa, "full")
    ok = report(
        "criterion 4: (19, 684, 16) full check",
        pa.M == 684 and rep.passed,
        f"M={pa.M}, min={rep.min_observed}",
    )
    assert ok


def test_criterion_4_full_verification_6840():
    pa = build_pa(SfpQuery(field_for_order(19), Variant.Q, 2, 2))
    rep = min_distance(pa, "full")
    ok = report(
        "criterion 4: (19, 6840, 15) full check",
        pa.M == 6840 and rep.passed,
        f"M={pa.M}, min={rep.min_observed}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_4_sampled_verification_123804():
    pa = build_pa(SfpQuery(field_for_order(19), Variant.Q_PLUS_1, 2, 3, 1, -1))
    rep = min_distance(pa, "sampled", sample_pairs=10**6, seed=1)
    ok = report(
        "criterion 4: (20, 123804, 14) sampled check",
        pa.M == 123804 and rep.passed,
        f"M={pa.M}, sampled min={rep.min_observed}; full mode stays available "
        "via min_distance(pa, 'full') / --mode full",
    )
    assert ok


# -- 5. sporadic-group facts ---------------------------------------------------


def test_criterion_5_orders():
    orders = {
        24: group_order(make_named("mathieu24")),
        23: group_order(make_named("mathieu23")),
        22: group_order(make_named("mathieu22")),
    }
    expected = {24: 244823040, 23: 10200960, 22: 443520}
    ok = report("criterion 5: sporadic orders", orders == expected, f"{orders}")
    assert ok


def test_criterion_5_m22_exact_scan():
    facts = minimal_degree(make_named("mathieu22"), "exact")
    ok = report(
        "criterion 5: degree-22 exact minimal degree",
        facts.minimal_degree == 16,
        f"min degree={facts.minimal_degree}",
    )
    assert ok


def test_criterion_5_m23_exact_scan():
    facts = minimal_degree(make_named("mathieu23"), "exact")
    ok = report(
        "criterion 5: degree-23 exact minimal degree",
        facts.minimal_degree == 16,
        f"min degree={facts.minimal_degree}",
    )
    assert ok


def test_criterion_5_m24_exact_scan():
    facts = minimal_degree(make_named("mathieu24"), "exact")
    ok = report(
        "criterion 5: degree-24 exact minimal degree",
        facts.minimal_degree == 16 and facts.exact,
        f"min degree={facts.minimal_degree}",
    )
    assert ok


def test_criterion_5_m24_sampled_scan():
    grp = make_named("mathieu24")
    facts = minimal_degree(grp, "sampled", trials=10**5, seed=0)
    fixed_max = grp.degree - facts.minimal_degree
    ok = report(
        "criterion 5: degree-24 sampled scan, 1e5 trials",
        facts.minimal_degree >= 16 and fixed_max <= 8,
        f"sampled min degree={facts.minimal_degree}, max fixed={fixed_max}",
    )
    assert ok


# -- 6. named constructions ----------------------------------------------------


def test_criterion_6_named_constructions():
    cases = [
        ("agl1", {"q": 5}, (5, 20, 4)),
        ("agl1", {"q": 7}, (7, 42, 6)),
        ("agl1", {"q": 8}, (8, 56, 7)),
        ("pgl2", {"q": 5}, (6, 120, 4)),
        ("pgl2", {"q": 7}, (8, 336, 6)),
        ("sym_pairs", {"m": 5}, (10, 120, 6)),
        ("agl", {"d": 2, "q": 2}, (4, 24, 2)),
    ]
    failures = []
    for name, params, (n, M, d) in cases:
        pa = group_to_pa(make_named(name, **params))
        rep = min_distance(pa, "full")
        if (pa.n, pa.M, pa.claimed_distance) != (n, M, d) or not rep.passed:
            failures.append((name, params, (pa.n, pa.M, pa.claimed_distance)))
    # The affine example's size formula: q^{d(d+1)/2} * prod (q^i - 1).
    agl22 = group_order(make_named("agl", d=2, q=2))
    if agl22 != 2**3 * (2**2 - 1) * (2 - 1):
        failures.append(("agl-size-formula", {}, agl22))
    ok = report(
        "criterion 6: named constructions, full verification",
        not failures,
        f"failures={failures}" if failures else "7 constructions verified",
    )
    assert ok


# -- 7. sharp-transitivity equivalence -----------------------------------------


def test_criterion_7_sharpness_equivalence():
    cases = [
        ("agl1", {"q": 5}, 2),
        ("agl1", {"q": 7}, 2),
        ("pgl2", {"q": 5}, 3),
        ("pgl2", {"q": 7}, 3),
        ("sym", {"m": 4}, 4),
    ]
    bad = []
    for name, params, k in cases:
        pa = group_to_pa(make_named(name, **params))
        if not sharpness_matches_distance(pa, k):
            bad.append((name, params, k))
    ok = report(
        "criterion 7: sharp k-transitivity equals distance bound",
        not bad,
        f"checked {len(cases)} instances",
    )
    assert ok


# -- 8. structural property suites ----------------------------------------------


def _all_queries(field, kmax):
    for s in range(0, kmax + 1):
        for t in range(0, kmax + 1 - s):
            yield SfpQuery(field, Variant.Q, s, t)
            for a, b in OFFSET_CHOICES:
                try:
                    yield SfpQuery(field, Variant.Q_PLUS_1, s, t, a, b)
                except ValueError:
                    continue


def test_criterion_8_oracle_fast_equivalence():
    mismatches = []
    checked = 0
    for q in (5, 7, 11):
        F = field_for_order(q)
        for query in _all_queries(F, 3):
            oracle = enumerate_oracle(query)
            fast = enumerate_fast(query)
            checked += 1
            if [m.sort_key() for m in oracle.members] != [
                m.sort_key() for m in fast.members
            ]:
                mismatches.append(query.describe())
    ok = report(
        "criterion 8: oracle vs fast enumeration set equality",
        not mismatches,
        f"{checked} cells compared",
    )
    assert ok


def test_criterion_8_budget_inequality():
    ok = True
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
                            ok = ok and lhs <= s + t
    assert report("criterion 8: min/min/max budget inequality to 6", ok)


def test_criterion_8_cross_difference():
    # Signature grouping as in the unit suite: fractions with equal pointwise
    # projective values are exactly the cross-difference-zero pairs here.
    bad = 0
    for q in (5, 7):
        F = Field(q)
        fractions = []
        for fc in itertools.product(range(q), repeat=3):
            f = Poly.of(F, fc)
            for d in range(3):
                for tail in itertools.product(range(q), repeat=d):
                    g = Poly.of(F, tail + (1,))
                    if f.is_zero():
                        if g.coeffs == (1,):
                            fractions.append(FracPoly(f, g))
                        continue
                    if g.degree == 0 or poly_gcd(f, g).degree == 0:
                        fractions.append(FracPoly(f, g))
        groups = {}
        for phi in fractions:
            sig = []
            for a in range(q):
                fa, ga = phi.num.eval(a), phi.den.eval(a)
                sig.append((F.mul(fa, F.inv(ga)), 1) if ga else (1, 0))
            groups.setdefault(tuple(sig), []).append(phi)
        bound = q - 2
        for members in groups.values():
            for i, phi in enumerate(members):
                for psi in members[i + 1:]:
                    if (
                        phi.num.degree + psi.den.degree <= bound
                        and psi.num.degree + phi.den.degree <= bound
                    ):
                        bad += 1
    assert report("criterion 8: cross-difference lemma, q=5,7 deg<=2", bad == 0)


def test_criterion_8_transform_invariance():
    F = Field(5)
    fractions = []
    for fc in itertools.product(range(5), repeat=3):
        f = Poly.of(F, fc)
        if f.is_zero():
            continue
        for d in range(3):
            for tail in itertools.product(range(5), repeat=d):
                fractions.append(make(f, Poly.of(F, tail + (1,))))
    queries = list(_all_queries(F, 3))
    bad = 0
    seen = set()
    for phi in fractions:
        if phi.sort_key() in seen:
            continue
        seen.add(phi.sort_key())
        prof = value_count(phi)
        flags = [is_member(phi, query, prof) for query in queries]
        for alpha in range(1, 5):
            for beta in range(5):
                img = transform(phi, alpha, beta)
                iprof = value_count(img)
                if (iprof.v, iprof.has_pole) != (prof.v, prof.has_pole):
                    bad += 1
                elif [is_member(img, query, iprof) for query in queries] != flags:
                    bad += 1
    assert report(
        "criterion 8: value count and membership invariant under transform", bad == 0
    )


def test_criterion_8_file_round_trip(tmp_path):
    pa = build_pa(SfpQuery(field_for_order(7), Variant.Q_PLUS_1, 1, 1, 0, 0))
    path = tmp_path / "roundtrip.txt"
    write_pa(pa, path)
    ok = format_pa(read_pa(path)) == path.read_text()
    assert report("criterion 8: array file round-trip is byte exact", ok)


def test_criterion_8_thread_determinism(tmp_path):
    query = SfpQuery(field_for_order(11), Variant.Q_PLUS_1, 2, 1, 1, -1)
    outputs = set()
    for workers in (1, 4):
        pa = build_pa(query, workers=workers)
        outputs.add(format_pa(pa).encode())
    ok = len(outputs) == 1
    assert report("criterion 8: outputs identical across worker counts", ok)
