"""Bond angles, inherent-angle derivation and fixed discretization.

The discretizer is built from the bond angles of the capping-reduced catalog
by 1-D DBSCAN over the distinct pooled values (rounded to 1e-9 degrees, each
weighted by its multiplicity).  A value is core when its epsilon-neighbourhood,
itself included, holds at least minPts distinct values; a value is kept when a
core lies within epsilon of it, and is noise otherwise.  The kept values split
into clusters wherever two consecutive ones lie more than epsilon apart, so
with minPts=1 (the paper's choice) nothing is noise and the clusters are the
maximal runs whose gaps are at most epsilon.  Each cluster contributes one
inherent angle, 0 is prepended by convention, and bin edges are placed in the
gaps between consecutive clusters.  Placing edges in the gaps (rather than
midway between cluster representatives) guarantees that every kept value is
binned with its own cluster even when clusters are lopsided.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, capping_reduced_set

__all__ = [
    "bond_angles",
    "distinct_values",
    "angle_bins",
    "AnglePool",
    "collect_pool",
    "Discretizer",
    "derive_discretizer",
    "discretize",
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


def distinct_values(values) -> np.ndarray:
    """Distinct angle values of a multiset, merged at DISTINCT_TOL."""
    s = np.sort(np.asarray(values, dtype=float))
    if len(s) == 0:
        return s
    keep = [s[0]]
    for x in s[1:]:
        if x - keep[-1] > DISTINCT_TOL:
            keep.append(x)
    return np.array(keep)


def angle_bins(edges):
    """The bin index of angles in [0, 180] under sorted edges, as a function:
    angle_bins(edges)(a) == np.searchsorted(edges, a, side="left") bit for
    bit, for an array or a number a.

    A table over quarter degrees holds the number of edges below each
    quarter; a * 4.0 is exact, so its integer part is the quarter of a.
    The edges inside that quarter, at most the most any quarter holds, are
    then passed one comparison at a time.
    """
    edges = np.asarray(edges, dtype=np.float64)
    below = np.searchsorted(edges, np.arange(722) / 4.0, side="left")
    inside = int(np.diff(below).max())
    padded = np.concatenate([edges, np.full(inside, np.inf)])

    def bins(a):
        j = below[np.multiply(a, 4.0).astype(np.intp)]
        for _ in range(inside):
            j += padded[j] < a
        return j

    return bins


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
        if not np.isfinite(v).all():
            raise ValueError(f"pool angles must be finite, got {v[~np.isfinite(v)][0]}")
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
        return angle_bins(self.bin_edges)(a)

    def to_json(self) -> str:
        return json.dumps(
            {
                "epsilon": self.epsilon,
                "min_pts": self.min_pts,
                "inherent_angles": [float(x) for x in self.inherent_angles],
                "bin_edges": [float(x) for x in self.bin_edges],
            },
            indent=2,
        )


def derive_discretizer(pool: AnglePool, min_pts: int = 1,
                       epsilon: float = 2.85) -> Discretizer:
    """Derive inherent angles and bin edges from a pooled angle list.

    One 1-D DBSCAN pass over the distinct pool values (see the module
    docstring).  Each cluster's inherent angle is its multiplicity-weighted
    mean; when the pool holds 180, the last class is represented by 180
    itself (even if minPts leaves 180 as noise).  Raises ValueError for an
    epsilon that is not positive and finite, a minPts below 1, an empty pool,
    or a pool left all noise.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    if len(pool.values) == 0:
        raise ValueError("empty angle pool")

    # Python's round, not np.round: the two differ at 1e-9 halfway values
    vals, counts = np.unique([round(float(v), 9) for v in pool.values],
                             return_counts=True)
    lo = np.searchsorted(vals, vals - epsilon, side="left")
    hi = np.searchsorted(vals, vals + epsilon, side="right")
    cores = np.concatenate([[0], np.cumsum(hi - lo >= min_pts)])
    kept = cores[hi] > cores[lo]  # a core within epsilon, itself included
    if not kept.any():
        raise ValueError("all pool points classified as noise")
    kv, kw = vals[kept], counts[kept]
    cut = np.flatnonzero(np.diff(kv) > epsilon) + 1

    reps = [float(np.average(cv, weights=cw))
            for cv, cw in zip(np.split(kv, cut), np.split(kw, cut))]
    if np.any(np.abs(vals - 180.0) < 1e-9):
        reps[-1] = 180.0
    inherent = np.concatenate([[0.0], reps])
    edges = 0.5 * np.concatenate([kv[:1], kv[cut - 1] + kv[cut]])
    return Discretizer(inherent_angles=inherent, bin_edges=edges,
                       epsilon=float(epsilon), min_pts=int(min_pts))


def discretize(angle: float, d: Discretizer) -> float:
    """Map a measured angle to its angle-class representative."""
    cls = d.classify(angle)
    return float(d.inherent_angles[cls]) if np.ndim(cls) == 0 else \
        d.inherent_angles[cls]

