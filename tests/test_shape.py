import math
from itertools import combinations

import numpy as np
import pytest

import coordgeo as cg
from coordgeo.hull import HullResult, _check_watertight, convex_hull
from coordgeo.shape import moment_per_neighbour, sphericity

from published import TABLE
from references import fan_sums


def _convex_hull_loop(vertices, tol=1e-9):
    """Reference convex_hull: the supporting-plane search one triple at a time."""
    pts = np.asarray(vertices, dtype=float)
    scale = max(1.0, float(np.abs(pts).max()))
    eps = tol * scale

    planes = []
    for i, j, k in combinations(range(len(pts)), 3):
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(normal)
        if norm < eps:
            continue
        normal = normal / norm
        side = (pts - pts[i]) @ normal
        if side.max() <= eps:
            normal, side = -normal, -side
        if side.min() < -eps:
            continue
        offset = float(normal @ pts[i])
        for n2, o2 in planes:
            if normal @ n2 > 1 - 1e-9 and abs(offset - o2) < eps:
                break
        else:
            planes.append((normal, offset))

    polygons = []
    for normal, offset in planes:
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

    faces, volume, area = fan_sums(pts, polygons)
    _check_watertight(faces)
    return HullResult(faces=faces, polygons=tuple(polygons),
                      volume=volume, area=area)


def _lifted(pts):
    """2-D points on the paraboloid z = x^2 + y^2, plus an apex above them."""
    lifted = np.column_stack([pts, (pts ** 2).sum(axis=1)])
    return np.vstack([lifted, [*pts.mean(axis=0), lifted[:, 2].max() + 1.0]])


def test_hull_matches_loop_reference(catalog):
    rng = np.random.default_rng(0)
    sets = [g.vertices for g in catalog.geometries]
    sets += [rng.normal(size=(n, 3)) for n in (4, 8, 14, 23) for _ in range(8)]
    sets += [_lifted(rng.uniform(size=(22, 2))) for _ in range(8)]
    for pts in sets:
        assert convex_hull(pts) == _convex_hull_loop(pts)


def test_hull_sums_match_per_triangle_loop(catalog):
    """The hull's triangles, volume and area, taken in one array, equal the
    per-triangle loop bit for bit on the catalog and on random 4-29-point
    sets: clouds over many scales and lifted cocircular points."""
    rng = np.random.default_rng(7)
    sets = [g.vertices for g in catalog.geometries]
    for _ in range(100):
        n = int(rng.integers(4, 30))
        sets.append(rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6, 6))
        sets.append(_lifted(rng.uniform(size=(n - 1, 2))))
    for pts in sets:
        h = convex_hull(pts)
        assert (h.faces, h.volume, h.area) == fan_sums(pts, h.polygons)


def test_cube_volume_area():
    v = cg.build_geometry("HDR").vertices  # cube, circumradius 1
    edge = 2.0 / math.sqrt(3.0)
    h = convex_hull(v)
    assert h.volume == pytest.approx(edge ** 3, rel=1e-12)
    assert h.area == pytest.approx(6.0 * edge ** 2, rel=1e-12)


def test_icosahedron_volume_area_analytic():
    v = cg.build_geometry("ICO").vertices  # circumradius 1
    edge = 4.0 / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))
    vol = 5.0 * (3.0 + math.sqrt(5.0)) / 12.0 * edge ** 3
    area = 5.0 * math.sqrt(3.0) * edge ** 2
    h = convex_hull(v)
    assert h.volume == pytest.approx(vol, rel=1e-9)
    assert h.area == pytest.approx(area, rel=1e-9)


def test_tetrahedron_four_faces():
    h = convex_hull(cg.build_geometry("TET").vertices)
    assert len(h.faces) == 4
    assert len(h.polygons) == 4


def test_coplanar_raises():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
    with pytest.raises(ValueError):
        convex_hull(pts)


def test_repeated_vertex_raises():
    pts = np.vstack([cg.build_geometry("TET").vertices, [1.0, 0.0, 0.0]])
    pts[-1] = pts[2]
    with pytest.raises(ValueError, match="points 2 and 4 coincide"):
        convex_hull(pts)


def test_too_few_points_raises():
    with pytest.raises(ValueError):
        convex_hull(np.eye(3))


def test_hull_contains_inputs_and_is_watertight(catalog):
    for g in catalog.geometries:
        h = convex_hull(g.vertices)  # watertightness asserted internally
        assert h.volume > 0 and h.area > 0
        # every input point lies on or inside all supporting planes
        pts = g.vertices
        for tri in h.faces:
            a, b, c = (pts[i] for i in tri)
            n = np.cross(b - a, c - a)
            centroid = pts.mean(axis=0)
            if np.dot(n, centroid - a) > 0:
                n = -n
            assert np.all((pts - a) @ n <= 1e-9)


def test_hull_random_cloud():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = rng.normal(size=(rng.integers(6, 20), 3))
        h = convex_hull(pts)
        centroid = pts.mean(axis=0)
        for tri in h.faces:
            a, b, c = (pts[i] for i in tri)
            n = np.cross(b - a, c - a)
            if np.dot(n, centroid - a) > 0:
                n = -n
            assert np.all((pts - a) @ n <= 1e-7)


def test_sphericity_published_anchors(catalog):
    assert sphericity(catalog.get("ICO").vertices) == pytest.approx(0.9393, abs=0.005)
    assert sphericity(catalog.get("TET").vertices) == pytest.approx(0.6711, abs=0.005)
    assert sphericity(catalog.get("HDR").vertices) == pytest.approx(0.8060, abs=0.005)


def test_sphericity_open_unit_interval(catalog):
    for g in catalog.geometries:
        psi = sphericity(g.vertices)
        assert 0.0 < psi < 1.0


def test_sphericity_invariances(catalog):
    rng = np.random.default_rng(11)
    v = catalog.get("CSA").vertices
    base = sphericity(v)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        scale = float(rng.uniform(0.1, 10.0))
        assert sphericity(scale * v @ q) == pytest.approx(base, abs=1e-9)
    # the hull's tolerance is relative, so no scale makes a polyhedron flat
    for code in ("CSA", "ICO", "TET"):
        v = catalog.get(code).vertices
        base = sphericity(v)
        for scale in 10.0 ** np.arange(-6, 7):
            assert sphericity(scale * v) == pytest.approx(base, abs=1e-9), \
                (code, scale)


def test_moment_published_anchors(catalog):
    assert moment_per_neighbour(catalog.get("FCC").vertices) == pytest.approx(1.0, abs=1e-12)
    assert moment_per_neighbour(catalog.get("TET").vertices) == pytest.approx(1.0, abs=1e-12)
    assert moment_per_neighbour(catalog.get("BCC").vertices) == pytest.approx(8.0 / 7.0, abs=1e-12)


def test_moment_single_shell_is_one(catalog):
    for code in ("TET", "SC", "HDR", "ICO", "FCC", "HCP", "SA", "TTP", "PBP",
                 "HBP", "TBP", "BPP"):
        v = catalog.get(code).vertices
        assert moment_per_neighbour(v) == pytest.approx(1.0, abs=1e-9), code


def test_moment_scale_invariant(catalog):
    v = catalog.get("CSP").vertices
    assert moment_per_neighbour(3.7 * v) == pytest.approx(moment_per_neighbour(v),
                                                          abs=1e-12)
