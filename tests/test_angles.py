import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coordgeo as cg
from coordgeo.angles import (AnglePool, bond_angles, derive_discretizer,
                             discretize, distinct_values, profile)

from published import TABLE

TET_ANGLE = math.degrees(math.acos(-1.0 / 3.0))  # 109.47122063449069


def test_bond_angles_tet():
    a = bond_angles(cg.build_geometry("TET").vertices)
    assert len(a) == 6
    assert np.allclose(a, TET_ANGLE, atol=1e-9)


def test_bond_angles_counts(catalog):
    for g in catalog.geometries:
        a = bond_angles(g.vertices)
        assert len(a) == g.k * (g.k - 1) // 2
        assert np.all((a > 0) & (a <= 180 + 1e-12))


def test_bond_angles_rejects_origin():
    with pytest.raises(ValueError):
        bond_angles(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


def test_bond_angles_rejects_single():
    with pytest.raises(ValueError):
        bond_angles(np.array([[1.0, 0.0, 0.0]]))


def test_derive_single_cluster_near_60():
    pool = AnglePool(values=np.array([59.1, 60.0, 60.4]), sources=("A", "B", "C"))
    d = derive_discretizer(pool, epsilon=2.85)
    assert d.n_classes == 2  # the 0 convention class plus one data class
    assert abs(d.inherent_angles[1] - 60.0) < 1.0


def test_derive_singleton_pool():
    pool = AnglePool(values=np.array([90.0]), sources=("A",))
    d = derive_discretizer(pool, epsilon=2.85)
    assert list(d.inherent_angles) == [0.0, 90.0]
    assert list(d.bin_edges) == [45.0]


def test_derive_rejects_bad_epsilon():
    pool = AnglePool(values=np.array([90.0]), sources=("A",))
    for eps in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            derive_discretizer(pool, epsilon=eps)


def test_derive_min_pts_noise():
    # an isolated point is noise for minPts=2 and keeps its cluster for 1
    pool = AnglePool(values=np.array([50.0, 50.5, 120.0]), sources=("A", "B", "C"))
    d1 = derive_discretizer(pool, min_pts=1, epsilon=2.0)
    d2 = derive_discretizer(pool, min_pts=2, epsilon=2.0)
    assert d1.n_classes == 3
    assert d2.n_classes == 2


def test_representative_mode_switch():
    pool = AnglePool(values=np.array([58.0, 60.0, 60.0, 61.0]),
                     sources=("A", "B", "C", "D"))
    mean_d = derive_discretizer(pool, epsilon=3.0, representative="mean")
    mode_d = derive_discretizer(pool, epsilon=3.0, representative="mode")
    assert abs(mean_d.inherent_angles[1] - 59.75) < 1e-9
    assert abs(mode_d.inherent_angles[1] - 60.0) < 1e-9


def test_discretize_180_tail(discretizer):
    # measured values crowding the straight angle all land on 180
    for v in (176.4, 178.7, 179.2, 180.0):
        assert discretize(v, discretizer) == 180.0


def test_discretize_inherent_fixed_point(discretizer):
    for rep in discretizer.inherent_angles[1:]:
        assert discretize(float(rep), discretizer) == float(rep)


def test_discretize_tet_angle(discretizer):
    rep = discretize(TET_ANGLE, discretizer)
    assert abs(rep - TET_ANGLE) < 2.85  # lands in the class anchored nearby


def test_discretize_out_of_range(discretizer):
    with pytest.raises(ValueError):
        discretize(0.0, discretizer)
    with pytest.raises(ValueError):
        discretize(181.0, discretizer)


@given(st.floats(min_value=1e-6, max_value=180.0))
@settings(max_examples=200, deadline=None)
def test_discretize_idempotent(angle):
    pool = AnglePool(values=np.array([60.0, 90.0, 120.0, 180.0]),
                     sources=("A", "A", "A", "A"))
    d = derive_discretizer(pool, epsilon=2.85)
    rep = discretize(angle, d)
    if rep > 0:  # the 0 class representative is outside the domain
        assert discretize(rep, d) == rep


@given(st.lists(st.floats(min_value=1e-3, max_value=180.0), min_size=2, max_size=20))
@settings(max_examples=100, deadline=None)
def test_discretize_monotone(angles):
    pool = AnglePool(values=np.array([30.0, 90.0, 150.0]), sources=("A", "A", "A"))
    d = derive_discretizer(pool, epsilon=5.0)
    a = sorted(angles)
    classes = [d.classify(x) for x in a]
    assert classes == sorted(classes)


@pytest.mark.parametrize("code", list(TABLE))
def test_profile_m_matches_published(catalog, discretizer, code):
    p = profile(catalog.get(code), discretizer)
    assert p.m == TABLE[code][1]
    assert p.f.shape == (discretizer.n_classes,)
    assert p.m == p.f.sum()
    assert p.class_count == np.count_nonzero(p.f) <= p.m
    assert p == profile(catalog.get(code), discretizer)
    assert p != profile(catalog.get("TET"), discretizer) or code == "TET"


def test_profile_pair_count_consistency(catalog, discretizer):
    # measured angles (with multiplicity) per class sum to k(k-1)/2
    for g in catalog.geometries:
        all_angles = bond_angles(g.vertices)
        classes = discretizer.classify(all_angles)
        total = sum(int(np.sum(classes == c)) for c in np.unique(classes))
        assert total == g.k * (g.k - 1) // 2


def test_profile_sds_merges_close_angles(catalog, discretizer):
    p = profile(catalog.get("SDS"), discretizer)
    assert p.m == 6
    assert p.f.max() > 1  # two distinct ideal angles share one class


def test_afflicted_families(catalog, discretizer):
    # the capped pentagonal prisms and square antiprisms also merge ideals
    for code in ("CPP", "BPP", "CSA", "BSA"):
        p = profile(catalog.get(code), discretizer)
        assert p.f.max() > 1, code


def test_axioms_at_published_epsilon(catalog, discretizer):
    ok, report = cg.axioms_satisfied(discretizer, catalog)
    assert ok, str(report)


def test_axioms_fail_just_above(catalog):
    d = cg.derive_discretizer(cg.collect_pool(catalog), epsilon=2.86)
    ok, report = cg.axioms_satisfied(d, catalog)
    assert not ok, str(report)


def test_axioms_tiny_epsilon_runs(catalog):
    # near-degenerate bins: every distinct ideal value becomes its own class;
    # exactly-shared values still coincide, so the axioms hold here too
    d = cg.derive_discretizer(cg.collect_pool(catalog), epsilon=0.01)
    ok, report = cg.axioms_satisfied(d, catalog)
    assert isinstance(ok, bool)
    assert ok is True
    assert len(report.comparisons) == 4


def test_pool_restricted_to_reduced_set(catalog):
    pool = cg.collect_pool(catalog)
    assert set(pool.sources) == set(cg.capping_reduced_set(catalog))
    assert np.all((pool.values > 0) & (pool.values <= 180))


def test_discretizer_json_roundtrip(discretizer):
    import json

    data = json.loads(discretizer.to_json())
    assert data["epsilon"] == 2.85
    assert data["min_pts"] == 1
    assert data["inherent_angles"][0] == 0.0
    assert len(data["bin_edges"]) == len(data["inherent_angles"]) - 1


def test_bin_edges_between_inherent(discretizer):
    inh = discretizer.inherent_angles
    edg = discretizer.bin_edges
    for j in range(len(edg)):
        assert inh[j] < edg[j] < inh[j + 1]
