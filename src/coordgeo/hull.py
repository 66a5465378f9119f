"""3-D convex hull of small point sets, with volume and surface area.

Inputs here are tiny (at most a few dozen points), so the hull is found by
supporting-plane enumeration, all triples in one array: every triple of points
whose plane has all remaining points on one side defines a facet plane; coplanar
facets are merged into a single polygon, ordered, and fan-triangulated.  This
handles exactly-coplanar faces (cube, prisms, lifted cocircular points)
without tolerance gymnastics and is watertight by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = ["HullResult", "convex_hull"]

# relative: lengths below TOL times the largest coordinate offset from the
# centroid count as zero, so the hull does not depend on the set's scale
TOL = 1e-9


@dataclass(frozen=True)
class HullResult:
    """Triangulated convex hull: faces index into the input vertex array."""

    faces: tuple
    polygons: tuple
    volume: float
    area: float


def convex_hull(vertices) -> HullResult:
    """Convex hull of >= 4 non-coplanar points.

    Raises ValueError on degenerate (too few, coincident or coplanar) input.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise ValueError("need at least four 3-D points")
    centroid = pts.mean(axis=0)
    # tolerances relative to the set's size: eps for lengths, eps * scale
    # for the cross products, which are lengths squared
    scale = float(np.abs(pts - centroid).max())
    eps = TOL * scale

    close = np.argwhere(np.triu(((pts[:, None] - pts) ** 2).sum(axis=2) <= eps * eps, 1))
    if len(close):
        raise ValueError(f"degenerate input: points {close[0, 0]} and {close[0, 1]} coincide")

    tri = np.array(list(combinations(range(len(pts)), 3)))
    normals = np.cross(pts[tri[:, 1]] - pts[tri[:, 0]], pts[tri[:, 2]] - pts[tri[:, 0]])
    # a row-by-row matmul sums as np.dot does, so each unit normal is bitwise
    # the one np.linalg.norm gives for its triple alone
    norm = np.sqrt(normals[:, None, :] @ normals[:, :, None])[:, 0]
    keep = norm[:, 0] >= eps * scale
    tri, normals = tri[keep], normals[keep] / norm[keep]
    side = normals @ pts.T
    side -= side[np.arange(len(tri)), tri[:, 0], None]
    sign = np.where(side.max(axis=1) <= eps, -1.0, 1.0)
    side *= sign[:, None]
    keep = side.min(axis=1) >= -eps
    tri, normals, side = tri[keep], sign[keep, None] * normals[keep], side[keep]
    offsets = (normals[:, None, :] @ pts[tri[:, 0], :, None])[:, 0, 0]
    # a supporting triple on an earlier one's plane is that facet again; judged by
    # distance, since distinct facets of a thin hull can be < 1e-4 rad apart
    repeat = (side <= eps)[:, tri].all(axis=2)
    first = ~np.tril(repeat.T, -1).any(axis=1)
    if not first.any():
        raise ValueError("degenerate input: points are coplanar")

    polygons = []
    faces = []
    for normal, offset in zip(normals[first], offsets[first]):
        members = np.flatnonzero(np.abs(pts @ normal - offset) <= eps)
        face_pts = pts[members]
        fc = face_pts.mean(axis=0)
        ref = face_pts[0] - fc
        ref = ref - (ref @ normal) * normal
        ref = ref / np.linalg.norm(ref)
        perp = np.cross(normal, ref)
        ang = np.arctan2((face_pts - fc) @ perp, (face_pts - fc) @ ref)
        ordered = members[np.argsort(ang)]
        polygons.append(tuple(int(x) for x in ordered))
        faces += [(int(ordered[0]), int(b), int(c))
                  for b, c in zip(ordered[1:-1], ordered[2:])]

    # every fan triangle at once; the row-by-row matmuls sum as np.dot and
    # np.linalg.norm do, and cumsum adds the terms in face order, so volume
    # and area are bitwise those of one triangle at a time
    a, b, c = pts[np.array(faces).T]
    cross = np.cross(b - a, c - a)
    area = np.cumsum(0.5 * np.sqrt(cross[:, None, :] @ cross[:, :, None])[:, 0, 0])[-1]
    cross = np.cross(b - centroid, c - centroid)
    volume = np.cumsum(np.abs((a - centroid)[:, None, :] @ cross[:, :, None])[:, 0, 0]
                       / 6.0)[-1]

    if volume <= eps ** 3:
        raise ValueError("degenerate input: hull has no volume")
    _check_watertight(faces)
    return HullResult(faces=tuple(faces), polygons=tuple(polygons),
                      volume=float(volume), area=float(area))


def _check_watertight(faces):
    edges = np.sort(np.array(faces)[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2))
    edges, count = np.unique(edges, axis=0, return_counts=True)
    # fan triangulation shares polygon-internal diagonals twice as well, so
    # every edge of the triangle soup must appear exactly twice
    if (count != 2).any():
        raise ValueError(f"degenerate input: hull not watertight at edges "
                         f"{edges[count != 2][:4].tolist()}")
