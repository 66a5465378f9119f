"""Bond angles, inherent-angle derivation and fixed discretization.

The discretizer is built from the bond angles of the capping-reduced catalog:
1-D DBSCAN with minPts=1 groups the pooled values into clusters (maximal runs
whose consecutive gaps are at most epsilon); each cluster contributes one
inherent angle, 0 is prepended by convention, and bin edges are placed in the
gaps between consecutive clusters.  Placing edges in the gaps (rather than
midway between cluster representatives) guarantees that every pooled value is
binned with its own cluster even when clusters are lopsided.

A geometry's angle profile is its vector f of per-class distinct-angle
counts; with the bond count k it is the descriptor that d_E reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, GeometrySpec, capping_reduced_set

__all__ = [
    "bond_angles",
    "distinct_values",
    "AnglePool",
    "collect_pool",
    "Discretizer",
    "derive_discretizer",
    "discretize",
    "AngleProfile",
    "profile",
    "axioms_satisfied",
    "AxiomReport",
]

DISTINCT_TOL = 1e-6  # degrees; separates ideal angles from float noise


def bond_angles(vertices) -> np.ndarray:
    """All pairwise bond angles of a neighbour set, in degrees in (0, 180].

    Angles are measured at the origin between every unordered pair of
    vertices; the result has k(k-1)/2 entries.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] != 3:
        raise ValueError("need at least two 3-vectors")
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("zero-length vertex")
    u = v / norms[:, None]
    iu = np.triu_indices(len(v), 1)
    cosangles = np.clip((u @ u.T)[iu], -1.0, 1.0)
    return np.degrees(np.arccos(cosangles))


def distinct_values(values, tol: float = DISTINCT_TOL) -> np.ndarray:
    """Distinct angle values of a multiset, merged at the given resolution."""
    s = np.sort(np.asarray(values, dtype=float))
    if len(s) == 0:
        return s
    keep = [s[0]]
    for x in s[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    return np.array(keep)


@dataclass(frozen=True)
class AnglePool:
    """Pooled ideal bond angles tagged with their source geometry."""

    values: np.ndarray
    sources: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if len(v) != len(self.sources):
            raise ValueError("values and sources length mismatch")
        if len(v) and (v.min() <= 0 or v.max() > 180 + 1e-9):
            raise ValueError("pool angles must lie in (0, 180]")


def collect_pool(catalog: Catalog) -> AnglePool:
    """Pool the distinct ideal bond angles of the capping-reduced catalog geometries.

    Each geometry contributes each of its distinct ideal angles once.
    """
    vals, src = [], []
    for code in capping_reduced_set(catalog):
        a = distinct_values(bond_angles(catalog.get(code).vertices))
        vals.extend(float(x) for x in a)
        src.extend([code] * len(a))
    return AnglePool(values=np.array(vals), sources=tuple(src))


@dataclass(frozen=True)
class Discretizer:
    """Fixed partition of (0, 180] into angle classes.

    inherent_angles[j] is the representative of bin j; bin j covers
    (bin_edges[j-1], bin_edges[j]] with implicit outer boundaries 0 and 180.
    """

    inherent_angles: np.ndarray
    bin_edges: np.ndarray
    epsilon: float
    min_pts: int

    def __post_init__(self):
        inh = np.asarray(self.inherent_angles, dtype=float)
        edg = np.asarray(self.bin_edges, dtype=float)
        object.__setattr__(self, "inherent_angles", inh)
        object.__setattr__(self, "bin_edges", edg)
        if inh[0] != 0.0:
            raise ValueError("first inherent angle must be 0 by convention")
        if len(edg) != len(inh) - 1:
            raise ValueError("need one bin edge between consecutive inherent angles")
        for j in range(len(edg)):
            if not (inh[j] < edg[j] < inh[j + 1]):
                raise ValueError("bin edge not strictly between inherent angles")

    @property
    def n_classes(self) -> int:
        return len(self.inherent_angles)

    def classify(self, angle: float) -> int:
        """Index of the bin containing `angle`."""
        a = np.asarray(angle, dtype=float)
        if np.any(a <= 0) or np.any(a > 180 + 1e-9):
            raise ValueError("angle outside (0, 180]")
        return np.searchsorted(self.bin_edges, a, side="left")

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "epsilon": self.epsilon,
                "min_pts": self.min_pts,
                "inherent_angles": [float(x) for x in self.inherent_angles],
                "bin_edges": [float(x) for x in self.bin_edges],
            },
            indent=indent,
        )


def _cluster_1d(values, weights, eps, min_pts):
    """1-D DBSCAN.  Returns a list of (member values, member weights).

    With minPts=1 every point is core, so clusters are the maximal runs of
    sorted points whose consecutive gaps do not exceed eps.  For minPts>1 a
    point is core when its eps-neighbourhood (itself included) holds at least
    minPts points; non-core points not reachable from a core are noise.
    """
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


def derive_discretizer(pool: AnglePool, min_pts: int = 1, epsilon: float = 2.85,
                       representative: str = "mean") -> Discretizer:
    """Derive inherent angles and bin edges from a pooled angle list.

    representative="mean" uses the multiplicity-weighted cluster mean;
    "mode" uses the highest-multiplicity member (ties resolved toward the
    weighted mean).  A cluster containing 180 is represented by 180 itself.
    """
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

    reps = []
    for cv, cw in clusters:
        mean = float(np.average(cv, weights=cw))
        if representative == "mean":
            reps.append(mean)
        elif representative == "mode":
            best = np.flatnonzero(cw == cw.max())
            pick = best[np.argmin(np.abs(cv[best] - mean))]
            reps.append(float(cv[pick]))
        else:
            raise ValueError(f"unknown representative {representative!r}")
    if np.any(np.abs(vals - 180.0) < 1e-9):
        reps[-1] = 180.0

    inherent = np.concatenate([[0.0], reps])
    edges = [0.5 * clusters[0][0][0]]
    for (av, _), (bv, _) in zip(clusters[:-1], clusters[1:]):
        edges.append(0.5 * (av[-1] + bv[0]))
    return Discretizer(inherent_angles=inherent, bin_edges=np.array(edges),
                       epsilon=float(epsilon), min_pts=int(min_pts))


def discretize(angle: float, d: Discretizer) -> float:
    """Map a measured angle to its angle-class representative."""
    cls = d.classify(angle)
    return float(d.inherent_angles[cls]) if np.ndim(cls) == 0 else \
        d.inherent_angles[cls]


@dataclass(frozen=True)
class AngleProfile:
    """Discretized angle content of one geometry.

    f[c] counts the distinct ideal angles that fall into angle class c, an
    int array over all classes of the discretizer (close yet unequal angles
    merged by one bin keep their own count); m = f.sum() is the number of
    distinct ideal angles.  Measured particles have the same per-class count
    vectors (kernels.profile_particles), so one d_E formula serves both.
    """

    geometry_code: str
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", np.asarray(self.f, dtype=np.int64))

    def __eq__(self, other):
        # the generated __eq__ would take the truth value of an array
        return (isinstance(other, AngleProfile)
                and self.geometry_code == other.geometry_code
                and np.array_equal(self.f, other.f))

    @property
    def m(self) -> int:
        return int(self.f.sum())

    @property
    def class_count(self) -> int:
        return int(np.count_nonzero(self.f))


def profile(g: GeometrySpec, d: Discretizer) -> AngleProfile:
    """Profile of an ideal geometry under a discretizer."""
    cls = d.classify(distinct_values(bond_angles(g.vertices)))
    return AngleProfile(geometry_code=g.code,
                        f=np.bincount(cls, minlength=d.n_classes))


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    comparisons: tuple

    def __str__(self):
        lines = [f"axioms {'satisfied' if self.passed else 'violated'}"]
        for name, text, ok in self.comparisons:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}: {text}")
        return "\n".join(lines)


def axioms_satisfied(d: Discretizer, catalog: Catalog):
    """Check the four topology axioms under a given discretizer.

    1a/1b: FCC and HCP are each closer to one another than to BCC.
    2a: CSA and BSA are the two nearest geometries to SA.
    2b: CSP and BSP are the two nearest geometries to HDR.
    """
    from .coefficients import d_e, descriptor

    desc = {c: descriptor(catalog.get(c), d) for c in catalog.codes}

    def dist(a, b):
        return d_e(desc[a], desc[b])

    comparisons = []
    d_fh = dist("FCC", "HCP")
    d_fb = dist("FCC", "BCC")
    d_hb = dist("HCP", "BCC")
    ok1a = d_fh < d_fb
    ok1b = d_fh < d_hb
    comparisons.append(("1a", f"d(FCC,HCP)={d_fh:.4f} < d(FCC,BCC)={d_fb:.4f}", ok1a))
    comparisons.append(("1b", f"d(HCP,FCC)={d_fh:.4f} < d(HCP,BCC)={d_hb:.4f}", ok1b))
    for name, target, pair in (("2a", "SA", {"CSA", "BSA"}),
                               ("2b", "HDR", {"CSP", "BSP"})):
        ranked = sorted((dist(target, c), c) for c in catalog.codes if c != target)
        nearest = {ranked[0][1], ranked[1][1]}
        ok = nearest == pair
        comparisons.append(
            (name, f"two nearest to {target}: "
                   f"{ranked[0][1]}={ranked[0][0]:.4f}, {ranked[1][1]}={ranked[1][0]:.4f}",
             ok))
    passed = all(ok for _, _, ok in comparisons)
    return passed, AxiomReport(passed=passed, comparisons=tuple(comparisons))
