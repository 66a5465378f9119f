"""Topology analyses on the 22-geometry distance matrix.

Builds the pairwise distance matrix, checks it against the metric axioms
(verify_metric) and the paper's four topology axioms (verify_axioms), clusters
it (average linkage), embeds it with stress-majorization MDS, triangulates the
2-D embedding, and derives typicality and class statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .angles import Discretizer
from .catalog import Catalog
from .coefficients import descriptor, descriptor_arrays, distances, e_one
from .hull import convex_hull
from .shape import moment_per_neighbour, sphericity

# delaunay_2d refuses, as collinear, a point set whose spread across its
# principal axis is at most this fraction of its spread along it
COLLINEAR_RATIO = 1e-2

__all__ = [
    "DistanceMatrix",
    "distance_matrix",
    "MetricReport",
    "verify_metric",
    "AxiomReport",
    "verify_axioms",
    "Dendrogram",
    "hierarchical_cluster",
    "Embedding",
    "mds",
    "delaunay_2d",
    "TypicalityReport",
    "typicality",
    "class_averages",
    "order_typicality_scatter",
]


@dataclass(frozen=True)
class DistanceMatrix:
    codes: tuple
    d: np.ndarray

    def value(self, a: str, b: str) -> float:
        return float(self.d[self.codes.index(a), self.codes.index(b)])


def _require_finite(d: np.ndarray, codes=None) -> None:
    """ValueError naming the first non-finite entry of a distance matrix."""
    bad = np.argwhere(~np.isfinite(d))
    if len(bad):
        i, j = bad[0]
        at = f"d[{i}, {j}]" if codes is None else f"d({codes[i]},{codes[j]})"
        raise ValueError(f"non-finite distance {at} = {d[i, j]}")


def distance_matrix(catalog: Catalog, disc: Discretizer) -> DistanceMatrix:
    """Pairwise distances between all catalog geometries (coefficients.distances)."""
    k, f = descriptor_arrays(catalog.geometries, disc)
    return DistanceMatrix(codes=tuple(catalog.codes), d=distances(k, f, k, f))


@dataclass(frozen=True)
class MetricReport:
    identity_ok: bool
    symmetry_ok: bool
    triangle_ok: bool
    worst_triangle_slack: float
    max_diagonal: float
    min_off_diagonal: float
    failures: tuple

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.symmetry_ok and self.triangle_ok


def verify_metric(dm: DistanceMatrix, tol: float = 1e-9) -> MetricReport:
    """Check identity of indiscernibles, symmetry and the triangle inequality.

    The triangle inequality is checked over every ordered triple of distinct
    indices; the report records the worst slack d(a,b)+d(b,c)-d(a,c).  A
    non-finite entry, which no comparison would report, raises ValueError.
    """
    d = dm.d
    _require_finite(d, dm.codes)
    n = len(d)
    failures = []
    max_diag = float(np.abs(np.diag(d)).max())
    off = d + np.diag(np.full(n, np.inf))
    min_off = float(off.min())
    identity_ok = max_diag <= tol and min_off > tol
    if max_diag > tol:
        failures.append(("identity", "nonzero diagonal", max_diag))
    if min_off <= tol:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        failures.append(("identity", f"zero distance {dm.codes[i]}-{dm.codes[j]}", min_off))

    asym = float(np.abs(d - d.T).max())
    symmetry_ok = asym <= tol
    if not symmetry_ok:
        failures.append(("symmetry", "asymmetric matrix", asym))

    # d[a,c] <= d[a,b] + d[b,c] for all ordered triples of distinct points
    slack = d[:, :, None] + d[None, :, :] - d[:, None, :]  # [a,b,c] indexing
    a, b, c = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    distinct = (a != b) & (b != c) & (a != c)
    worst = float(slack[distinct].min())
    triangle_ok = worst >= -tol
    if not triangle_ok:
        flat = np.where(distinct & (slack < -tol))
        i, j, k = flat[0][0], flat[1][0], flat[2][0]
        failures.append(("triangle",
                         f"d({dm.codes[i]},{dm.codes[k]}) > "
                         f"d({dm.codes[i]},{dm.codes[j]}) + d({dm.codes[j]},{dm.codes[k]})",
                         worst))
    return MetricReport(identity_ok=identity_ok, symmetry_ok=symmetry_ok,
                        triangle_ok=triangle_ok, worst_triangle_slack=worst,
                        max_diagonal=max_diag, min_off_diagonal=min_off,
                        failures=tuple(failures))


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    comparisons: tuple  # (name, text, ok)

    def __str__(self):
        lines = [f"axioms {'satisfied' if self.passed else 'violated'}"]
        for name, text, ok in self.comparisons:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}: {text}")
        return "\n".join(lines)


def verify_axioms(dm: DistanceMatrix) -> AxiomReport:
    """Check the four topology axioms on the distance matrix.

    1a/1b: FCC and HCP are each closer to one another than to BCC.
    2a: CSA and BSA are the two nearest geometries to SA.
    2b: CSP and BSP are the two nearest geometries to HDR.
    A tie in distance is broken by geometry code.
    """
    dist = dm.value
    comparisons = []
    for name, a, b in (("1a", "FCC", "HCP"), ("1b", "HCP", "FCC")):
        near, far = dist(a, b), dist(a, "BCC")
        comparisons.append((name, f"d({a},{b})={near:.4f} < "
                                  f"d({a},BCC)={far:.4f}", near < far))
    for name, target, pair in (("2a", "SA", {"CSA", "BSA"}),
                               ("2b", "HDR", {"CSP", "BSP"})):
        (d1, c1), (d2, c2) = sorted((dist(target, c), c)
                                    for c in dm.codes if c != target)[:2]
        comparisons.append((name, f"two nearest to {target}: "
                                  f"{c1}={d1:.4f}, {c2}={d2:.4f}",
                            {c1, c2} == pair))
    return AxiomReport(passed=all(ok for _, _, ok in comparisons),
                       comparisons=tuple(comparisons))


@dataclass(frozen=True)
class Dendrogram:
    """Average-linkage merge tree; node ids 0..n-1 are leaves in input order."""

    leaves: tuple
    merges: tuple  # (left_id, right_id, height, new_id)

    def newick(self) -> str:
        n = len(self.leaves)
        height = {i: 0.0 for i in range(n)}
        label = {i: self.leaves[i] for i in range(n)}
        for left, right, h, new in self.merges:
            bl = h - height[left]
            br = h - height[right]
            label[new] = f"({label[left]}:{bl:.6f},{label[right]}:{br:.6f})"
            height[new] = h
        root = self.merges[-1][3]
        return label[root] + ";"

    def dot(self) -> str:
        lines = ["graph dendrogram {", "  node [shape=box];"]
        for i, code in enumerate(self.leaves):
            lines.append(f'  n{i} [label="{code}"];')
        for left, right, h, new in self.merges:
            lines.append(f'  n{new} [label="{h:.4f}" shape=point];')
            lines.append(f"  n{new} -- n{left};")
            lines.append(f"  n{new} -- n{right};")
        lines.append("}")
        return "\n".join(lines)

    def leafset(self, node: int) -> frozenset:
        n = len(self.leaves)
        if node < n:
            return frozenset([self.leaves[node]])
        for left, right, _, new in self.merges:
            if new == node:
                return self.leafset(left) | self.leafset(right)
        raise KeyError(node)

    def merge_history(self, code: str):
        """Leaf sets of the clusters a given leaf joins, smallest first."""
        cur = self.leaves.index(code)
        out = []
        for left, right, h, new in self.merges:
            if cur in (left, right):
                out.append((self.leafset(new), h))
                cur = new
        return out


def hierarchical_cluster(dm: DistanceMatrix) -> Dendrogram:
    """Average-linkage (UPGMA) clustering of the distance matrix.

    Cluster distances live in one (2n-1, 2n-1) array: merging i and j writes
    the Lance-Williams average (n_i d_i + n_j d_j) / (n_i + n_j) into the new
    cluster's row and column.  Ties between candidate pairs are broken by the
    lexicographically smallest leaf codes of the two clusters, then by their
    ids.  Reads the upper triangle of dm.d; ValueError if dm.d is not finite.
    """
    n = len(dm.codes)
    iu = np.triu_indices(n, 1)
    d = np.asarray(dm.d, dtype=float)
    _require_finite(d, dm.codes)
    dist = np.full((2 * n - 1, 2 * n - 1), np.inf)
    dist[iu] = dist[iu[::-1]] = d[iu]
    size = np.ones(2 * n - 1, dtype=np.int64)
    rank = {c: r for r, c in enumerate(sorted(set(dm.codes)))}
    smallest = np.array([rank[c] for c in dm.codes] + [0] * (n - 1))
    merges = []
    for new in range(n, 2 * n - 1):
        h = dist.min()
        ii, jj = np.nonzero(np.triu(dist == h, 1))
        lo = np.minimum(smallest[ii], smallest[jj])
        hi = np.maximum(smallest[ii], smallest[jj])
        pick = np.lexsort((jj, ii, hi, lo))[0]
        i, j = int(ii[pick]), int(jj[pick])
        left, right = (i, j) if smallest[i] <= smallest[j] else (j, i)
        dist[new] = dist[:, new] = ((size[i] * dist[i] + size[j] * dist[j])
                                    / (size[i] + size[j]))
        dist[[i, j]] = dist[:, [i, j]] = np.inf
        size[new] = size[i] + size[j]
        smallest[new] = min(smallest[i], smallest[j])
        merges.append((left, right, float(h), new))
    return Dendrogram(leaves=tuple(dm.codes), merges=tuple(merges))


@dataclass(frozen=True)
class Embedding:
    dims: int
    coords: np.ndarray
    stress: float
    converged: bool
    stress_trace: tuple = field(default=(), repr=False)


def _classical_mds(d, dims):
    n = len(d)
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d ** 2) @ j
    w, v = np.linalg.eigh(b)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    x = v[:, order[:dims]] * np.sqrt(w[:dims])
    if x.shape[1] < dims:
        x = np.pad(x, ((0, 0), (0, dims - x.shape[1])))
    return x


def _pair_incidence(n):
    """The upper pairs (iu, ju) of n points and their (pairs, n) incidence
    matrix: row p is +1 at column iu[p], -1 at column ju[p], 0 elsewhere."""
    iu, ju = np.triu_indices(n, 1)
    inc = np.zeros((len(iu), n))
    rows = np.arange(len(iu))
    inc[rows, iu] = 1.0
    inc[rows, ju] = -1.0
    return iu, ju, inc


def _smacof_stack(d, x0, max_iter, rtol):
    """SMACOF (Guttman transform) from a stack of starts x0 of shape (R, n, dims).

    Every start stops on its own test: stress fell by less than rtol relative
    to the previous iteration.  Each iteration's embedding distances serve both
    its stress and the next B matrix.  The coordinate differences of the
    upper pairs are one product per start with the (pairs, n) incidence
    matrix, +1 at i and -1 at j of pair (i, j): the other n - 2 terms of each
    entry are exact zeros, so it is fl(x_i - x_j) up to sign for any BLAS
    summation order.  The two reductions over a short axis, the squared
    coordinate differences of each pair and the rows of B, are BLAS dot
    products with a vector of ones: one matrix-vector product per start, in
    a fixed order for any stack height.  So a start in a stack ends bit for
    bit as it does alone; the rounding differs from numpy's ``sum`` in the
    last bits, which no artifact shows at its 6 decimals.  B is read from
    d's upper triangle, so d must be exactly symmetric (mds checks it).
    Returns one (coords, stress trace array, converged) per start.
    """
    n = len(d)
    iu, ju, inc = _pair_incidence(n)
    diag = np.arange(n)
    d_up = d[iu, ju]
    neg_d_up = -d_up
    # B's entries as slots of a row of the upper quotients and one zero: d is
    # exactly symmetric, so both triangles read the one quotient of each pair
    slot = np.full((n, n), len(iu))
    slot[iu, ju] = slot[ju, iu] = np.arange(len(iu))
    den = (d_up ** 2).sum()
    ones_dims, ones_n = np.ones(x0.shape[2]), np.ones(n)

    def upper_distances(x):
        # inc @ x is C-ordered (R, pairs, dims); @ ones sums each contiguous
        # row by one BLAS product per start, the same for any R
        diff = inc @ x
        diff *= diff
        return np.sqrt(diff @ ones_dims)

    def stress(dist):
        # Kruskal stress-1 over the upper triangle, one value per start
        return np.sqrt(((d_up - dist) ** 2).sum(axis=1) / den)

    # C order, as a copy of any one start would be: the layout of x picks
    # the BLAS kernel of b @ x, and with it the rounding
    x = np.array(x0, dtype=float, order="C")
    active = np.arange(len(x))  # start index of each row of x
    dist = upper_distances(x)
    s = stress(dist)
    history = np.empty((max_iter + 1, len(x)))  # row t: stress after t iterations
    history[0] = s
    results = [None] * len(x)
    it = 0

    def finish(rows, converged):
        for j in rows:
            r = active[j]
            results[r] = (x[j].copy(), history[:it + 1, r].copy(), converged)

    for it in range(1, max_iter + 1):
        # a coincident pair (dist 0) weighs 0, as does the last, zero slot
        w = np.empty((len(x), len(iu) + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(neg_d_up, dist, out=w[:, :-1])
        w[:, :-1][dist == 0] = 0.0
        w[:, -1] = 0.0
        b = np.take(w, slot, axis=1)
        b[:, diag, diag] = -(b @ ones_n)
        x = (b @ x) / n
        dist = upper_distances(x)
        s_new = stress(dist)
        history[it, active] = s_new
        done = s - s_new < rtol * np.maximum(s, 1e-300)
        if done.any():
            finish(np.flatnonzero(done), True)
            keep = ~done
            x, dist, s_new, active = x[keep], dist[keep], s_new[keep], active[keep]
            if not len(active):
                break
        s = s_new
    finish(range(len(active)), False)
    return results


def mds(dm, dims: int = 8, seed: int = 0, restarts: int = 20,
        max_iter: int = 10000, rtol: float = 1e-10) -> Embedding:
    """Metric MDS by stress majorization.

    One start from the classical (eigendecomposition) solution plus seeded
    random restarts, iterated together as one stack; returns the
    lowest-stress result.  The per-iteration stress trace of the winning run
    is kept for the majorization guarantee.  A d that is not finite or not
    exactly symmetric raises ValueError.
    """
    if dims < 1:
        raise ValueError("dims must be positive")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if isinstance(dm, DistanceMatrix):
        d, codes = dm.d, dm.codes
    else:
        d, codes = np.asarray(dm, dtype=float), None
    _require_finite(d, codes)
    if not np.array_equal(d, d.T):
        raise ValueError("distance matrix must be exactly symmetric")
    rng = np.random.default_rng(seed)
    starts = [_classical_mds(d, dims)]
    scale = max(float(d.max()), 1e-12)
    for _ in range(restarts - 1):
        starts.append(rng.normal(scale=scale / 2.0, size=(len(d), dims)))
    best = None
    for x, trace, conv in _smacof_stack(d, np.stack(starts), max_iter, rtol):
        s = trace[-1]
        if best is None or s < best[1] - 1e-15:
            best = (x, s, conv, trace)
    x, s, conv, trace = best
    return Embedding(dims=dims, coords=x, stress=float(s), converged=conv,
                     stress_trace=tuple(trace.tolist()))


def delaunay_2d(points) -> set:
    """Delaunay graph of 2-D points as an undirected edge set: the lower convex
    hull of the points lifted onto z = x^2 + y^2 (K. Q. Brown, 1979).  Raises
    ValueError on coincident points and, as collinear, on points whose spread
    across their principal axis is at most COLLINEAR_RATIO (1e-2) of that
    along it.  Thinner sets defeat the hull's tolerance: in rotated random
    sets of 22 points, ratios up to 2e-3 gave a hull that was not watertight
    or a triangle whose circumcircle holds another point."""
    tris = _delaunay_triangles(points)
    return set(map(tuple, np.sort(tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2)).tolist()))


def _delaunay_triangles(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("need at least three 2-D points")
    pts = pts - pts.mean(axis=0)
    spread = np.linalg.svd(pts, compute_uv=False)
    if spread[1] <= COLLINEAR_RATIO * spread[0]:
        raise ValueError("points are collinear")
    # a unit-size copy makes the hull tolerance relative to the set; the apex
    # above it keeps cocircular sets 3-D and leaves the lower hull as it is
    pts = pts / np.abs(pts).max()
    lifted = np.column_stack([pts, (pts ** 2).sum(axis=1)])
    allp = np.vstack([lifted, [0.0, 0.0, lifted[:, 2].max() + 1.0]])
    faces = np.array([f for f in convex_hull(allp).faces if len(pts) not in f])
    p0, p1, p2 = allp[faces].transpose(1, 0, 2)
    # a lower facet has the apex on the side its normal's z points to
    normal = np.cross(p1 - p0, p2 - p0)
    return faces[normal[:, 2] * ((allp[-1] - p0) * normal).sum(axis=1) > 0]


@dataclass(frozen=True)
class TypicalityReport:
    tau: dict
    centroid: np.ndarray


def typicality(emb: Embedding, codes) -> TypicalityReport:
    """Negative distance of each geometry from the embedding centroid."""
    centroid = emb.coords.mean(axis=0)
    dist = np.sqrt(((emb.coords - centroid) ** 2).sum(axis=1))
    tau = {code: float(-dist[i]) for i, code in enumerate(codes)}
    return TypicalityReport(tau=tau, centroid=centroid)


def class_averages(catalog: Catalog, tau: dict) -> list:
    """Per-taxonomy-class means of sphericity, moment per neighbour and tau."""
    rows = {}
    for g in catalog.geometries:
        rows.setdefault(g.taxonomy_class, []).append(
            (sphericity(g.vertices), moment_per_neighbour(g.vertices), tau[g.code]))
    order = ["spheroidal", "ellipsoidal", "bipyramidal", "cuboidal", "tetrahedral"]
    out = []
    for cls in order:
        vals = np.array(rows[cls])
        out.append({
            "class": cls,
            "n": len(vals),
            "sphericity": float(vals[:, 0].mean()),
            "moment_per_neighbour": float(vals[:, 1].mean()),
            "typicality": float(vals[:, 2].mean()),
        })
    return out


def order_typicality_scatter(catalog: Catalog, disc: Discretizer, tau: dict) -> list:
    """Rows (code, one-particle coefficient, typicality, point-group order).

    The point-group order column is left empty: it is derivable from the
    vertices, but filling it would change the typicality artifact.
    """
    rows = []
    for g in catalog.geometries:
        e = e_one(descriptor(g, disc))
        rows.append({"code": g.code, "e": float(e), "tau": float(tau[g.code]),
                     "point_group_order": ""})
    return rows
