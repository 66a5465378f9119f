"""One- and n-particle extracopularity coefficients, bounds and the distance.

The one-particle coefficient of a particle with k bonds and m distinct bond
angles is log2((k^2-k)/(2m)): the information gained about a bond pair by
learning its angle.  The n-particle coefficient replaces k^2-k by the
geometric mean over particles and m by the cardinality of the union of angle
sets.  In corrected mode the union counts, per angle class, the largest
number of close-yet-unequal ideal angles any one particle merges into it;
this keeps the union consistent with the per-particle distinct-angle counts
and makes the induced distance vanish exactly on identical descriptors.

A descriptor is a bond count k plus the per-class distinct-angle counts f;
m = f.sum().  distances evaluates d_E over arrays of (k, f), and serves both
the catalog distance matrix and the labels of measured particles; the scalar
functions keep one ParticleDescriptor at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import Discretizer, bond_angles, distinct_values
from .catalog import GeometrySpec

__all__ = [
    "ParticleDescriptor",
    "descriptor",
    "descriptor_arrays",
    "e_one",
    "e_many",
    "check_upper_bound",
    "check_loose_bounds",
    "d_e",
    "distances",
]

_EQ_TOL = 1e-12


@dataclass(frozen=True)
class ParticleDescriptor:
    """Bond count k and per-class distinct-angle counts f of one particle.

    f[c] counts the distinct angles that fall into angle class c, an int
    array over all classes of the discretizer (close yet unequal angles
    merged by one bin keep their own count); m = f.sum().  Measured
    particles have the same (k, f) (kernels.profile_particles), so one d_E
    formula serves both.
    """

    k: int
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", np.asarray(self.f, dtype=np.int64))
        if self.k < 2:
            raise ValueError("descriptor requires at least two bonds")
        if self.m < 1:
            raise ValueError("descriptor requires at least one angle class")
        if self.m > self.k * (self.k - 1) // 2:
            raise ValueError("more distinct angles than bond pairs")

    def __eq__(self, other):
        # the generated __eq__ would take the truth value of an array
        return (isinstance(other, ParticleDescriptor) and self.k == other.k
                and np.array_equal(self.f, other.f))

    @property
    def m(self) -> int:
        return int(self.f.sum())


def _angle_counts(g: GeometrySpec, d: Discretizer) -> np.ndarray:
    return np.bincount(d.classify(distinct_values(bond_angles(g.vertices))),
                       minlength=d.n_classes)


def descriptor(g: GeometrySpec, d: Discretizer) -> ParticleDescriptor:
    """Descriptor of an ideal catalog geometry under a discretizer."""
    return ParticleDescriptor(k=g.k, f=_angle_counts(g, d))


def descriptor_arrays(geometries, d: Discretizer):
    """(k, f) of ideal geometries: bond counts and per-class count rows."""
    k = np.array([g.k for g in geometries], dtype=np.int64)
    f = np.array([_angle_counts(g, d) for g in geometries], dtype=np.int64)
    return k, f


def _log2_pairs(k: int) -> float:
    return math.log2(k * k - k)


def e_one(p: ParticleDescriptor) -> float:
    """One-particle coefficient log2((k^2-k)/(2m)), in bits."""
    return _log2_pairs(p.k) - math.log2(2.0 * p.m)


def _union_cardinality(parts, union_mode: str) -> int:
    # corrected: per class, the largest count any one part merges into it;
    # raw: the number of classes any part hits
    best = np.maximum.reduce([p.f for p in parts])
    if union_mode == "corrected":
        return int(best.sum())
    if union_mode == "raw":
        return int(np.count_nonzero(best))
    raise ValueError(f"unknown union mode {union_mode!r}")


def e_many(parts, union_mode: str = "corrected") -> float:
    """n-particle coefficient, in bits.

    Equals e_one for a single particle; for several it combines the geometric
    mean of their bond-pair counts with the (corrected) union of their angle
    classes.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one particle")
    mean_log_pairs = sum(_log2_pairs(p.k) for p in parts) / len(parts)
    card = _union_cardinality(parts, union_mode)
    return mean_log_pairs - math.log2(2.0 * card)


def check_upper_bound(parts):
    """Verify e_many <= max(e_one), with equality exactly on identical inputs.

    Returns (holds, equality).
    """
    parts = list(parts)
    joint = e_many(parts)
    upper = max(e_one(p) for p in parts)
    holds = joint <= upper + _EQ_TOL
    equality = abs(joint - upper) <= _EQ_TOL
    return holds, equality


def check_loose_bounds(parts) -> bool:
    """Verify the loose outer bounds on the n-particle coefficient."""
    parts = list(parts)
    joint = e_many(parts)
    upper = max(_log2_pairs(p.k) for p in parts) \
        - math.log2(2.0 * min(p.m for p in parts))
    lower = min(_log2_pairs(p.k) for p in parts) \
        - math.log2(2.0 * sum(p.m for p in parts))
    return lower - _EQ_TOL <= joint <= upper + _EQ_TOL


def d_e(g: ParticleDescriptor, h: ParticleDescriptor,
        union_mode: str = "corrected") -> float:
    """Distance between two coordination geometries, in bits.

    max of the single-particle coefficients minus the two-particle one, with
    all three evaluated under the same union mode so that d_e(g, g) == 0.
    """
    single = max(e_many([g], union_mode), e_many([h], union_mode))
    return single - e_many([g, h], union_mode)


def distances(ka, fa, kb, fb) -> np.ndarray:
    """d_E under the corrected union between every pair of two descriptor sets.

    ka (A,) and kb (B,) are bond counts, fa (A, classes) and fb (B, classes)
    per-class distinct-angle counts, every k >= 2 and every row sum >= 1.
    Returns the (A, B) distances in bits; the arithmetic is that of d_e, so
    identical descriptors are exactly 0 apart.
    """
    ka = np.asarray(ka, dtype=np.float64)
    kb = np.asarray(kb, dtype=np.float64)
    fa, fb = np.asarray(fa), np.asarray(fb)
    lp_a = np.log2(ka * ka - ka)
    lp_b = np.log2(kb * kb - kb)
    ma = np.sum(fa, axis=1)
    e_a = lp_a - np.log2(2.0 * ma)
    e_b = lp_b - np.log2(2.0 * np.sum(fb, axis=1))
    # sum_c max(a_c, b_c) = sum_c a_c + #{(c, t): a_c < t <= b_c}, and the
    # count is one product of 0/1 indicators over every class c and level t
    # of fb: sums of whole numbers, so exact in float64
    levels = np.arange(1, fb.max(initial=0) + 1)[:, None]
    width = levels.size * fa.shape[1]
    below = (fa[:, None, :] < levels).reshape(len(fa), width)
    reach = (fb[:, None, :] >= levels).reshape(len(fb), width)
    union = ma[:, None] + below.astype(np.float64) @ reach.T.astype(np.float64)
    e_pair = 0.5 * (lp_a[:, None] + lp_b) - np.log2(2.0 * union)
    return np.maximum(e_a[:, None], e_b) - e_pair
