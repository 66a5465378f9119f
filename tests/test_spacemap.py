from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coordgeo as cg
from coordgeo.coefficients import d_e, descriptor
from coordgeo.spacemap import (DistanceMatrix, _pair_incidence, _smacof_stack,
                               _classical_mds, _delaunay_triangles, delaunay_2d,
                               hierarchical_cluster, mds, typicality,
                               verify_metric)

from references import smacof


def _distance_matrix_loop(catalog, disc):
    """Reference distance_matrix: the scalar d_e over every pair."""
    descs = [descriptor(g, disc) for g in catalog.geometries]
    n = len(descs)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = d_e(descs[i], descs[j])
    return d


@pytest.mark.parametrize("epsilon", [0.01, 1.0, 2.85, 2.86, 5.95])
def test_distance_matrix_equals_the_scalar_loop(catalog, epsilon):
    # bit for bit: verify_axioms ranks these values, and at epsilon=2.86
    # two of them tie exactly (CSA and TTP, both 0.5557 from SA)
    disc = cg.derive_discretizer(cg.collect_pool(catalog), epsilon=epsilon)
    dm = cg.distance_matrix(catalog, disc)
    assert dm.d.tobytes() == _distance_matrix_loop(catalog, disc).tobytes()


def test_distance_matrix_basics(dmatrix):
    assert np.allclose(np.diag(dmatrix.d), 0.0)
    assert np.allclose(dmatrix.d, dmatrix.d.T)
    assert dmatrix.value("FCC", "HCP") == pytest.approx(np.log2(1.5), abs=1e-12)


def test_metric_verification_passes(dmatrix):
    rep = verify_metric(dmatrix, tol=1e-9)
    assert rep.passed
    assert rep.worst_triangle_slack >= -1e-9
    assert rep.min_off_diagonal > 1e-9


def test_metric_detects_triangle_violation():
    codes = ("a", "b", "c")
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    rep = verify_metric(DistanceMatrix(codes=codes, d=d))
    assert not rep.triangle_ok
    assert any(kind == "triangle" for kind, _, _ in rep.failures)


def test_metric_detects_zero_off_diagonal():
    codes = ("a", "b", "c")
    d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    rep = verify_metric(DistanceMatrix(codes=codes, d=d))
    assert not rep.identity_ok


def test_metric_refuses_a_non_finite_entry(dmatrix):
    """Every comparison with NaN is false, so no failing triple is found."""
    d = dmatrix.d.copy()
    d[3, 7] = d[7, 3] = np.nan
    a, b = dmatrix.codes[3], dmatrix.codes[7]
    with pytest.raises(ValueError, match=rf"non-finite distance d\({a},{b}\) = nan"):
        verify_metric(DistanceMatrix(codes=dmatrix.codes, d=d))


def _upgma_dict(dm):
    """Reference UPGMA: a dict of pair distances and a scan of every active
    pair per merge, which the array version must reproduce exactly."""
    n = len(dm.codes)
    members = {i: [i] for i in range(n)}
    smallest = {i: dm.codes[i] for i in range(n)}
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = float(dm.d[i, j])
    active = set(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        best = None
        for i in sorted(active):
            for j in sorted(active):
                if i >= j:
                    continue
                key = dist[(i, j)] if (i, j) in dist else dist[(j, i)]
                tie = tuple(sorted((smallest[i], smallest[j])))
                cand = (key, tie, i, j)
                if best is None or cand < best:
                    best = cand
        h, _, i, j = best
        left, right = (i, j) if smallest[i] <= smallest[j] else (j, i)
        new = next_id
        next_id += 1
        for o in active:
            if o in (i, j):
                continue
            dio = dist[(min(i, o), max(i, o))]
            djo = dist[(min(j, o), max(j, o))]
            ni, nj = len(members[i]), len(members[j])
            dist[(min(new, o), max(new, o))] = (ni * dio + nj * djo) / (ni + nj)
        members[new] = members[i] + members[j]
        smallest[new] = min(smallest[i], smallest[j])
        merges.append((left, right, h, new))
        active -= {i, j}
        active.add(new)
    return tuple(merges)


@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 2.85, 2.86])
def test_upgma_matches_reference_on_the_catalog(catalog, epsilon):
    dm = cg.distance_matrix(
        catalog, cg.derive_discretizer(cg.collect_pool(catalog), epsilon=epsilon))
    assert hierarchical_cluster(dm).merges == _upgma_dict(dm)


@st.composite
def _tied_matrices(draw):
    # few distinct integer distances, so most merges choose among ties
    n = draw(st.integers(2, 9))
    d = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=n,
                                        max_size=n), min_size=n, max_size=n)),
                 dtype=float)
    # codes may repeat, so that the cluster ids must break some ties
    n_codes = draw(st.integers(1, n))
    codes = draw(st.permutations([f"c{i % n_codes}" for i in range(n)]))
    return DistanceMatrix(codes=tuple(codes), d=d)


@given(_tied_matrices())
@settings(max_examples=300, deadline=None)
def test_upgma_matches_reference_on_ties(dm):
    assert hierarchical_cluster(dm).merges == _upgma_dict(dm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_upgma_rejects_non_finite_distance(bad):
    d = np.array([[0.0, bad, 2.0], [bad, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite distance"):
        hierarchical_cluster(DistanceMatrix(codes=("a", "b", "c"), d=d))


def test_upgma_two_leaves():
    dm = DistanceMatrix(codes=("a", "b"), d=np.array([[0.0, 0.7], [0.7, 0.0]]))
    dendro = hierarchical_cluster(dm)
    assert len(dendro.merges) == 1
    assert dendro.merges[0][2] == pytest.approx(0.7)


def test_upgma_catalog_structure(dmatrix):
    dendro = hierarchical_cluster(dmatrix)
    assert len(dendro.merges) == 21
    fcc_first = dendro.merge_history("FCC")[0][0]
    assert fcc_first == frozenset({"FCC", "CPA", "ICO"})
    hcp_first = dendro.merge_history("HCP")[0][0]
    assert hcp_first == frozenset({"HCP", "CPP", "BPP"})


def test_upgma_fcc_before_bcc(dmatrix):
    # the first FCC cluster containing BCC must already contain CPA and ICO
    dendro = hierarchical_cluster(dmatrix)
    first_with_bcc = next(s for s, _ in dendro.merge_history("FCC") if "BCC" in s)
    assert {"CPA", "ICO"} <= first_with_bcc


def test_upgma_heights_monotone(dmatrix):
    dendro = hierarchical_cluster(dmatrix)
    heights = {i: 0.0 for i in range(len(dendro.leaves))}
    for left, right, h, new in dendro.merges:
        assert h >= heights[left] - 1e-12
        assert h >= heights[right] - 1e-12
        heights[new] = h


def test_newick_output(dmatrix):
    dendro = hierarchical_cluster(dmatrix)
    nwk = dendro.newick()
    assert nwk.endswith(";")
    assert nwk.count("(") == 21
    for code in dmatrix.codes:
        assert code in nwk
    dot = dendro.dot()
    assert dot.startswith("graph") and dot.endswith("}")


def test_mds_recovers_euclidean_points():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(10, 3))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    emb = mds(d, dims=3, seed=0, restarts=5)
    assert emb.stress < 1e-6


def test_mds_refuses_an_asymmetric_matrix(dmatrix):
    """B is read from the upper triangle, so d must be exactly symmetric."""
    d = dmatrix.d.copy()
    d[3, 7] = np.nextafter(d[3, 7], np.inf)
    with pytest.raises(ValueError, match="exactly symmetric"):
        mds(d, dims=2, restarts=1)
    d[7, 3] = d[3, 7]
    assert mds(d, dims=2, restarts=1).coords.shape == (22, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mds_refuses_a_non_finite_entry(dmatrix, bad):
    d = dmatrix.d.copy()
    d[3, 7] = d[7, 3] = bad
    with pytest.raises(ValueError, match=rf"non-finite distance d\[3, 7\] = {bad}"):
        mds(d, dims=2, restarts=1)
    a, b = dmatrix.codes[3], dmatrix.codes[7]
    with pytest.raises(ValueError, match=rf"non-finite distance d\({a},{b}\)"):
        mds(DistanceMatrix(codes=dmatrix.codes, d=d), dims=2, restarts=1)


def test_mds_stress_decreases_with_dims(dmatrix):
    s7 = mds(dmatrix, dims=7, seed=0, restarts=5).stress
    s8 = mds(dmatrix, dims=8, seed=0, restarts=5).stress
    assert s8 <= s7 + 1e-12


def test_smacof_trace_nonincreasing(dmatrix):
    rng = np.random.default_rng(0)
    for x0 in (_classical_mds(dmatrix.d, 8),
               rng.normal(size=(22, 8)),
               rng.normal(size=(22, 8))):
        _, trace, _ = smacof(dmatrix.d, x0, max_iter=2000, rtol=1e-10)
        diffs = np.diff(np.array(trace))
        assert np.all(diffs <= 1e-12)


def test_mds_matches_loop_of_single_restarts(dmatrix, embedding):
    # mds runs its restarts as one stack; each must end exactly as it would alone
    d = dmatrix.d
    rng = np.random.default_rng(0)
    starts = [_classical_mds(d, 8)]
    starts += [rng.normal(scale=d.max() / 2.0, size=(22, 8)) for _ in range(19)]
    best = None
    for x0 in starts:
        x, trace, conv = smacof(d, x0, max_iter=10000, rtol=1e-10)
        if best is None or trace[-1] < best[1][-1] - 1e-15:  # mds's selection rule
            best = (x, trace, conv)
    x, trace, conv = best
    assert np.array_equal(embedding.coords, x)
    assert embedding.stress == trace[-1]
    assert embedding.converged == conv
    assert embedding.stress_trace == tuple(trace)


def _smacof_loop(d, x0, max_iter, rtol):
    # one start at a time with full distance matrices: the reference that
    # the stacked kernel must reproduce bit for bit.  Both short-axis sums
    # are products with a vector of ones, as in the kernel; the pair
    # distances come from one (pairs, dims) product too, because the BLAS
    # rounding of a row can depend on how many rows the matrix has
    n, dims = x0.shape
    iu = np.triu_indices(n, 1)

    def embedded(x):
        d_emb = np.zeros((n, n))
        d_emb[iu] = np.sqrt(((x[iu[0]] - x[iu[1]]) ** 2) @ np.ones(dims))
        return d_emb + d_emb.T

    def stress1(x):
        d_emb = embedded(x)
        return float(np.sqrt(((d[iu] - d_emb[iu]) ** 2).sum() / (d[iu] ** 2).sum()))

    x = x0.copy()
    trace = [stress1(x)]
    for _ in range(max_iter):
        d_emb = embedded(x)
        np.fill_diagonal(d_emb, 1.0)
        b = np.where(d_emb > 0, -d / d_emb, 0.0)
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -(b @ np.ones(n)))
        x = (b @ x) / n
        trace.append(stress1(x))
        if trace[-2] - trace[-1] < rtol * max(trace[-2], 1e-300):
            return x, trace, True
    return x, trace, False


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 30), dims=st.integers(1, 9), stack=st.integers(1, 24),
       lo=st.integers(-200, 200), width=st.integers(0, 400),
       seed=st.integers(0, 2 ** 32 - 1))
def test_incidence_product_is_the_pair_difference(n, dims, stack, lo, width, seed):
    """inc @ x has the absolute values of the gathered x_i - x_j bit for bit:
    every other term of an entry is an exact zero, whatever the order in
    which BLAS sums them.  Magnitudes 10^lo to 10^(lo + width), at most
    1e200, drawn per coordinate; some points repeat another exactly."""
    rng = np.random.default_rng(seed)
    hi = min(lo + width, 200)
    x = rng.normal(size=(stack, n, dims)) * 10.0 ** rng.uniform(lo, hi, (stack, n, dims))
    x[:, rng.integers(n, size=n // 3)] = x[:, rng.integers(n, size=n // 3)]
    iu, ju, inc = _pair_incidence(n)
    gathered = np.take(x, iu, axis=1) - np.take(x, ju, axis=1)
    assert np.array_equal(np.abs(inc @ x), np.abs(gathered))


@pytest.mark.parametrize("dims", [2, 3, 8])
def test_smacof_stack_rows_match_reference_loop(dmatrix, dims):
    # starts that stop at different iterations, or not at all, and a
    # Fortran-ordered start (as _classical_mds returns); the rounding of a
    # product with ones depends on its length, so over several dims
    max_iter = {2: 200, 3: 250, 8: 1000}[dims]
    d = dmatrix.d
    rng = np.random.default_rng(1)
    starts = [_classical_mds(d, dims)] + [rng.normal(size=(22, dims)) for _ in range(5)]
    stacked = _smacof_stack(d, np.stack(starts), max_iter=max_iter, rtol=1e-10)
    assert {conv for _, _, conv in stacked} == {True, False}
    for x0, (x, trace, conv) in zip(starts, stacked):
        for x1, trace1, conv1 in (smacof(d, x0, max_iter=max_iter, rtol=1e-10),
                                  _smacof_loop(d, x0, max_iter=max_iter, rtol=1e-10)):
            assert np.array_equal(x, x1)
            assert trace.tolist() == trace1
            assert conv == conv1


def test_mds_rejects_bad_dims(dmatrix):
    with pytest.raises(ValueError):
        mds(dmatrix, dims=0)


def test_mds_rejects_bad_restarts(dmatrix):
    for restarts in (0, -5):
        with pytest.raises(ValueError, match="restarts must be positive"):
            mds(dmatrix, restarts=restarts)


def test_delaunay_triangle():
    edges = delaunay_2d(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert edges == {(0, 1), (0, 2), (1, 2)}


def test_delaunay_square():
    edges = delaunay_2d(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert len(edges) == 5  # four sides plus one diagonal


def test_delaunay_collinear_raises():
    with pytest.raises(ValueError):
        delaunay_2d(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def test_delaunay_near_collinear_raises():
    with pytest.raises(ValueError, match="collinear"):
        delaunay_2d(np.array([[0.0, 0.0], [1.0, 1e-7], [2.0, 0.0]]))


def test_delaunay_thin_quadrilateral():
    # spread ratio 0.4 h: 2e-2 is triangulated, 4e-5 is under the bound
    edges = delaunay_2d(np.array([[0.0, 0.0], [1.0, 0.05], [2.0, 0.0], [3.0, 0.05]]))
    assert edges == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
    with pytest.raises(ValueError, match="collinear"):
        delaunay_2d(np.array([[0.0, 0.0], [1.0, 1e-4], [2.0, 0.0], [3.0, 1e-4]]))


def test_delaunay_coincident_raises():
    with pytest.raises(ValueError, match="points 1 and 3 coincide"):
        delaunay_2d(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_delaunay_ignores_translation_and_scale():
    pts = np.random.default_rng(4).uniform(size=(15, 2))
    assert delaunay_2d(1e-7 * pts) == delaunay_2d(pts) == delaunay_2d(pts + 1e6)


def _circumcircles_exactly_empty(pts, tris):
    # no point strictly inside any triangle's circumcircle, by the incircle
    # determinant over the exact rational values of the float coordinates,
    # brought to integers over their common power-of-two denominator
    q = [[Fraction(v) for v in p] for p in pts.tolist()]
    den = max(v.denominator for p in q for v in p)
    q = [[int(v * den) for v in p] for p in q]
    for t in tris.tolist():
        a, b, c = (q[i] for i in t)
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert orient != 0
        for k, p in enumerate(q):
            if k in t:
                continue
            (ax, ay), (bx, by), (cx, cy) = ((v[0] - p[0], v[1] - p[1]) for v in (a, b, c))
            det = ((ax * ax + ay * ay) * (bx * cy - by * cx)
                   - (bx * bx + by * by) * (ax * cy - ay * cx)
                   + (cx * cx + cy * cy) * (ax * by - ay * bx))
            assert det * orient <= 0


def test_delaunay_empty_circumcircle():
    rng = np.random.default_rng(12)
    for _ in range(5):
        pts = rng.uniform(size=(18, 2))
        tris = _delaunay_triangles(pts)
        assert len(tris) > 0
        _circumcircles_exactly_empty(pts, tris)


def test_delaunay_thin_sets_are_exact_or_refused():
    # rotated, scaled and shifted random sets whose width spans 1e-8 to 1
    # of their length: each is refused as collinear or exactly Delaunay
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(120):
        n = int(rng.integers(3, 23))
        pts = np.column_stack([rng.uniform(size=n),
                               rng.uniform(size=n) * 10 ** rng.uniform(-8, 0)])
        turn = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        pts = pts @ rot.T * 10 ** rng.uniform(-3, 3) + rng.uniform(-5, 5, size=2)
        try:
            tris = _delaunay_triangles(pts)
        except ValueError as err:
            assert "collinear" in str(err)
            outcomes.add("refused")
            continue
        _circumcircles_exactly_empty(pts, tris)
        outcomes.add("triangulated")
    assert outcomes == {"refused", "triangulated"}


def _hull_vertex_count(pts):
    """Vertices of the 2-D convex hull, by Andrew's monotone chain."""
    pts = sorted(map(tuple, pts))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return len(chain(pts)) + len(chain(reversed(pts))) - 2


def test_delaunay_complete_triangulation():
    # a triangulation of n points with h on the hull has 3n - 3 - h edges;
    # a finite super-triangle drops hull edges (sets 28 and 81 here)
    rng = np.random.default_rng(1)
    for _ in range(90):
        pts = rng.uniform(size=(22, 2))
        _circumcircles_exactly_empty(pts, _delaunay_triangles(pts))
        assert len(delaunay_2d(pts)) == 3 * len(pts) - 3 - _hull_vertex_count(pts)


def test_typicality_extremes(dmatrix, embedding):
    rep = typicality(embedding, dmatrix.codes)
    tau = rep.tau
    order = sorted(tau, key=tau.get)
    assert order[0] == "TET"
    assert order[-1] == "HBP"
    assert np.allclose(rep.centroid, embedding.coords.mean(axis=0))


def test_scatter_rows(catalog, discretizer, dmatrix, embedding):
    from coordgeo.spacemap import order_typicality_scatter

    tau = typicality(embedding, dmatrix.codes).tau
    rows = order_typicality_scatter(catalog, discretizer, tau)
    assert len(rows) == 22
    by = {r["code"]: r for r in rows}
    assert by["ICO"]["e"] == pytest.approx(4.459, abs=0.0005)
    assert by["TET"]["e"] == pytest.approx(2.585, abs=0.0005)
    assert min(rows, key=lambda r: r["tau"])["code"] == "TET"
