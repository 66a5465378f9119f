import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coordgeo as cg
from coordgeo.angles import (AnglePool, angle_bins, bond_angles,
                             derive_discretizer, discretize, distinct_values)
from coordgeo.coefficients import descriptor

from published import TABLE
from references import searchsorted_bins

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


def test_pool_rejects_non_finite_values():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            AnglePool(values=np.array([bad, 90.0]), sources=("A", "B"))


def test_derive_min_pts_noise():
    # an isolated point is noise for minPts=2 and keeps its cluster for 1
    pool = AnglePool(values=np.array([50.0, 50.5, 120.0]), sources=("A", "B", "C"))
    d1 = derive_discretizer(pool, min_pts=1, epsilon=2.0)
    d2 = derive_discretizer(pool, min_pts=2, epsilon=2.0)
    assert d1.n_classes == 3
    assert d2.n_classes == 2


def _cluster_1d(values, weights, eps, min_pts):
    """1-D DBSCAN one point at a time.  Returns a list of (member values,
    member weights)."""
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    n = len(v)
    if min_pts > 1:
        lo = np.searchsorted(v, v - eps, side="left")
        hi = np.searchsorted(v, v + eps, side="right")
        core = (hi - lo) >= min_pts
        reach = core.copy()
        for i in range(n):  # border points adjacent to a core point
            if not core[i]:
                j0 = np.searchsorted(v, v[i] - eps, side="left")
                j1 = np.searchsorted(v, v[i] + eps, side="right")
                reach[i] = core[j0:j1].any()
    else:
        reach = np.ones(n, dtype=bool)
    clusters = []
    cur_v, cur_w = [], []
    prev = None
    for i in range(n):
        if not reach[i]:
            continue
        if prev is not None and v[i] - prev > eps and cur_v:
            clusters.append((np.array(cur_v), np.array(cur_w)))
            cur_v, cur_w = [], []
        cur_v.append(v[i])
        cur_w.append(w[i])
        prev = v[i]
    if cur_v:
        clusters.append((np.array(cur_v), np.array(cur_w)))
    return clusters


def _derive_loop(pool, min_pts=1, epsilon=2.85):
    """Reference derive_discretizer: a dict of pool values and the loop
    DBSCAN above, which the vectorised pass must reproduce bit for bit."""
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    if len(pool.values) == 0:
        raise ValueError("empty angle pool")
    uniq = {}
    for v in pool.values:
        key = round(float(v), 9)
        uniq[key] = uniq.get(key, 0) + 1
    vals = np.array(sorted(uniq))
    wts = np.array([uniq[k] for k in sorted(uniq)], dtype=float)
    clusters = _cluster_1d(vals, wts, epsilon, min_pts)
    if not clusters:
        raise ValueError("all pool points classified as noise")
    reps = [float(np.average(cv, weights=cw)) for cv, cw in clusters]
    if np.any(np.abs(vals - 180.0) < 1e-9):
        reps[-1] = 180.0
    inherent = np.concatenate([[0.0], reps])
    edges = [0.5 * clusters[0][0][0]]
    for (av, _), (bv, _) in zip(clusters[:-1], clusters[1:]):
        edges.append(0.5 * (av[-1] + bv[0]))
    return cg.Discretizer(inherent_angles=inherent, bin_edges=np.array(edges),
                          epsilon=float(epsilon), min_pts=int(min_pts))


def _outcome(derive, pool, min_pts, epsilon):
    """The discretizer's exact bits, or the text of the error it raised."""
    try:
        d = derive(pool, min_pts=min_pts, epsilon=epsilon)
    except ValueError as exc:
        return str(exc)
    return (d.inherent_angles.tobytes(), d.bin_edges.tobytes(), d.epsilon,
            d.min_pts)


@pytest.mark.parametrize("min_pts", [1, 2, 3, 4, 6])
def test_derive_matches_reference_on_the_catalog(catalog, min_pts):
    pool = cg.collect_pool(catalog)
    for eps in [round(0.05 * i, 2) for i in range(1, 120)] + [10.0, 50.0, 1000.0]:
        assert (_outcome(derive_discretizer, pool, min_pts, eps)
                == _outcome(_derive_loop, pool, min_pts, eps)), eps


_POOL_VALUE = st.one_of(
    st.floats(min_value=1e-3, max_value=180.0),
    # halfway between 1e-9 steps, where np.round(v, 9) and round(v, 9) differ
    st.integers(1, 179 * 10**9).map(lambda i: i / 1e9 + 5e-10),
    st.sampled_from([60.0, 60.0 + 1e-10, 60.5, 61.0, 90.0, TET_ANGLE, 120.0,
                     179.0, 180.0]))
# the exact gaps between the sampled values put neighbours on the boundary
_EPSILON = st.one_of(st.floats(min_value=1e-3, max_value=200.0),
                     st.sampled_from([0.5, 1.0, 30.0]))


@given(st.lists(_POOL_VALUE, min_size=1, max_size=30), _EPSILON,
       st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_derive_matches_reference(values, epsilon, min_pts):
    pool = AnglePool(values=np.array(values), sources=("A",) * len(values))
    assert (_outcome(derive_discretizer, pool, min_pts, epsilon)
            == _outcome(_derive_loop, pool, min_pts, epsilon))


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


def _assert_bins_as_searchsorted(edges, angles):
    """angle_bins equals np.searchsorted on the angles, on 0 and 180, and on
    every edge and both its neighbouring floats within [0, 180]."""
    edges = np.sort(np.asarray(edges, dtype=np.float64))
    near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf)])
    a = np.concatenate([angles, [0.0, 180.0], near[(near >= 0) & (near <= 180)]])
    got = angle_bins(edges)(a)
    assert got.dtype == np.intp
    assert np.array_equal(got, searchsorted_bins(edges, a))


_ANGLE = st.floats(0.0, 180.0)


@given(st.lists(st.floats(0.0, 180.0, exclude_min=True, exclude_max=True),
                max_size=40, unique=True),
       st.lists(_ANGLE, max_size=200))
@settings(max_examples=200, deadline=None)
def test_angle_bins_equal_searchsorted(edges, angles):
    _assert_bins_as_searchsorted(edges, angles)


@given(st.integers(0, 719), st.lists(st.floats(0.0, 0.25, exclude_max=True),
                                     min_size=2, max_size=4, unique=True),
       st.lists(st.floats(0.0, 180.0, exclude_min=True, exclude_max=True),
                max_size=20, unique=True),
       st.lists(_ANGLE, max_size=100))
@settings(max_examples=200, deadline=None)
def test_angle_bins_with_edges_inside_one_quarter_degree(quarter, offsets,
                                                         others, angles):
    """Two to four edges within one quarter degree, which no discretizer of
    the catalog holds, take as many comparisons after the table."""
    inside = quarter / 4.0 + np.array(offsets)
    edges = np.unique(np.concatenate([inside, others]))
    span = quarter / 4.0 + np.linspace(0.0, 0.25, 50, endpoint=False)
    _assert_bins_as_searchsorted(edges, np.concatenate([angles, span]))


@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5, 2.85])
def test_angle_bins_on_catalog_discretizers(catalog, epsilon):
    d = derive_discretizer(cg.collect_pool(catalog), epsilon=epsilon)
    angles = np.random.default_rng(0).uniform(0.0, 180.0, 20_000)
    _assert_bins_as_searchsorted(d.bin_edges, angles)
    assert np.array_equal(d.classify(angles[angles > 0]),
                          searchsorted_bins(d.bin_edges, angles[angles > 0]))


@pytest.mark.parametrize("code", list(TABLE))
def test_profile_m_matches_published(catalog, discretizer, code):
    p = descriptor(catalog.get(code), discretizer)
    assert p.m == TABLE[code][1]
    assert p.f.shape == (discretizer.n_classes,)
    assert p.m == p.f.sum()
    assert np.count_nonzero(p.f) <= p.m
    assert p == descriptor(catalog.get(code), discretizer)
    assert p != descriptor(catalog.get("TET"), discretizer) or code == "TET"


def test_profile_pair_count_consistency(catalog, discretizer):
    # measured angles (with multiplicity) per class sum to k(k-1)/2
    for g in catalog.geometries:
        all_angles = bond_angles(g.vertices)
        classes = discretizer.classify(all_angles)
        total = sum(int(np.sum(classes == c)) for c in np.unique(classes))
        assert total == g.k * (g.k - 1) // 2


def test_profile_sds_merges_close_angles(catalog, discretizer):
    p = descriptor(catalog.get("SDS"), discretizer)
    assert p.m == 6
    assert p.f.max() > 1  # two distinct ideal angles share one class


def test_afflicted_families(catalog, discretizer):
    # the capped pentagonal prisms and square antiprisms also merge ideals
    for code in ("CPP", "BPP", "CSA", "BSA"):
        p = descriptor(catalog.get(code), discretizer)
        assert p.f.max() > 1, code


def test_axioms_at_published_epsilon(dmatrix):
    report = cg.verify_axioms(dmatrix)
    assert report.passed, str(report)


def test_axioms_fail_just_above(catalog):
    d = cg.derive_discretizer(cg.collect_pool(catalog), epsilon=2.86)
    report = cg.verify_axioms(cg.distance_matrix(catalog, d))
    assert not report.passed, str(report)


def test_axioms_tiny_epsilon_runs(catalog):
    # near-degenerate bins: every distinct ideal value becomes its own class;
    # exactly-shared values still coincide, so the axioms hold here too
    d = cg.derive_discretizer(cg.collect_pool(catalog), epsilon=0.01)
    report = cg.verify_axioms(cg.distance_matrix(catalog, d))
    assert report.passed is True
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
