"""Reference catalog of the 22 commonly encountered coordination geometries.

Vertices are direction sets around a central particle at the origin.  Every
single-shell geometry is scaled to unit circumradius; multi-shell geometries
(BCC, the capped prisms and antiprisms) keep their natural shell ratios with
the nearest shell at radius 1.  Construction conventions, validated against
the published per-geometry statistics:

* Platonic solids, deltahedra and lattice shells are exact closed forms.
* Bipyramids put the equatorial ring and both apexes on the unit sphere.
* Prisms and antiprisms are uniform (all edges equal) and inscribed in the
  unit sphere.  Trigonal-prism caps sit on the sphere over the square faces;
  pentagonal-prism caps sit on the sphere at the poles.  Square-antiprism
  caps are edge-preserving apexes (the bicapped form is the unit-edge
  gyroelongated square bipyramid rescaled to unit ring radius).
* CSP caps the cube with an edge-preserving square-pyramid apex; BSP places
  its two caps at the octahedral lattice sites at radius 2/sqrt(3), making it
  a 10-vertex subset of the BCC shell.
* SDS is a two-orbit arrangement with D2d symmetry; its two colatitudes and
  radius ratio are calibrated constants (see _SDS_* below).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometrySpec",
    "Catalog",
    "CODES",
    "TAXONOMY",
    "CAPPING_RELATION",
    "build_geometry",
    "build_catalog",
    "capping_reduced_set",
    "catalog_to_json",
]

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

# Calibrated SDS parameters.  The shape is the two-orbit D2d arrangement
#   ridge pairs at colatitude _SDS_THETA_A and radius _SDS_RADIUS_RATIO,
#   band vertices at colatitude _SDS_THETA_C and radius 1,
# constrained so that the ridge-band separations coincide exactly
# (tan(theta_a) * tan(theta_c) = 2, giving 6 distinct bond angles), the
# moment of inertia per neighbour is 1.31 and the sphericity is 0.8543.
_SDS_THETA_A = math.radians(60.055109521918212)
_SDS_THETA_C = math.radians(49.043578045650897)
_SDS_RADIUS_RATIO = math.sqrt(1.62)


@dataclass(frozen=True, eq=False)
class GeometrySpec:
    """One ideal coordination geometry."""

    code: str
    name: str
    vertices: np.ndarray
    k: int
    polyhedral_class: str
    taxonomy_class: str

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.shape != (self.k, 3):
            raise ValueError(f"{self.code}: expected {self.k} vertices, got {v.shape}")
        d = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() <= 1e-9:
            raise ValueError(f"{self.code}: coincident vertices")


@dataclass(frozen=True)
class Catalog:
    """All 22 geometries plus the capping relation between them."""

    geometries: tuple = field(default_factory=tuple)
    capping_relation: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        codes = [g.code for g in self.geometries]
        if len(codes) != 22 or len(set(codes)) != 22:
            raise ValueError("catalog must hold exactly 22 uniquely coded geometries")

    def get(self, code: str) -> GeometrySpec:
        for g in self.geometries:
            if g.code == code:
                return g
        raise KeyError(code)

    @property
    def codes(self):
        return [g.code for g in self.geometries]


def _ring(n, radius, z, az0=0.0):
    az = az0 + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(az), radius * np.sin(az), np.full(n, z)])


def _tetrahedron():
    return np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float) / SQ3


def _octahedron():
    return np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                     [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)


def _cube():
    v = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    return np.array(v, float) / SQ3


def _icosahedron():
    # pole/ring/ring/pole orientation: bicapped uniform pentagonal antiprism
    zr = 1.0 / math.sqrt(5.0)
    rr = 2.0 / math.sqrt(5.0)
    up = _ring(5, rr, zr)
    dn = _ring(5, rr, -zr, az0=np.pi / 5)
    return np.vstack([[0, 0, 1], up, dn, [0, 0, -1]])


def _cuboctahedron():
    v = []
    for a in (-1, 1):
        for b in (-1, 1):
            v += [[a, b, 0], [a, 0, b], [0, a, b]]
    return np.array(v, float) / SQ2


def _anticuboctahedron():
    # ideal hexagonal close packing shell, c/a = sqrt(8/3)
    inplane = _ring(6, 1.0, 0.0)
    up = _ring(3, 1.0 / SQ3, math.sqrt(2.0 / 3.0), az0=np.pi / 6)
    dn = _ring(3, 1.0 / SQ3, -math.sqrt(2.0 / 3.0), az0=np.pi / 6)
    return np.vstack([inplane, up, dn])


def _bcc_shell():
    # 8 nearest at radius 1 plus 6 next-nearest at radius 2/sqrt(3)
    return np.vstack([_cube(), _octahedron() * (2.0 / SQ3)])


def _bipyramid(n):
    return np.vstack([_ring(n, 1.0, 0.0), [[0, 0, 1]], [[0, 0, -1]]])


def _square_antiprism_ring():
    # (height, radius) of the uniform square antiprism's two rings: ring and
    # lateral edges equal, inscribed in the unit sphere
    c2 = SQ2 / (4.0 + SQ2)
    return math.sqrt(c2), math.sqrt(1.0 - c2)


def _square_antiprism():
    h, r = _square_antiprism_ring()
    return np.vstack([_ring(4, r, h), _ring(4, r, -h, az0=np.pi / 4)])


def _trigonal_prism():
    a = math.sqrt(12.0 / 7.0)  # uniform, unit circumradius
    return np.vstack([_ring(3, a / SQ3, a / 2), _ring(3, a / SQ3, -a / 2)])


def _trigonal_prism_caps(n):
    az = np.pi / 3 + 2.0 * np.pi * np.arange(n) / 3  # square-face normals
    return np.column_stack([np.cos(az), np.sin(az), np.zeros(n)])


def _pentagonal_prism():
    s5 = 2.0 * math.sin(np.pi / 5)
    a = 1.0 / math.sqrt(1.0 / s5 ** 2 + 0.25)  # uniform, unit circumradius
    return np.vstack([_ring(5, a / s5, a / 2), _ring(5, a / s5, -a / 2)])


def _snub_disphenoid():
    ta, tc = _SDS_THETA_A, _SDS_THETA_C
    ra, rc = _SDS_RADIUS_RATIO, 1.0
    sa_, ca_ = math.sin(ta), math.cos(ta)
    sc_, cc_ = math.sin(tc), math.cos(tc)
    return np.array([
        [ra * sa_, 0, ra * ca_], [-ra * sa_, 0, ra * ca_],
        [0, ra * sa_, -ra * ca_], [0, -ra * sa_, -ra * ca_],
        [rc * sc_, 0, -rc * cc_], [-rc * sc_, 0, -rc * cc_],
        [0, rc * sc_, rc * cc_], [0, -rc * sc_, rc * cc_],
    ])


# apex at ring-edge distance from the adjacent square: ring height + radius
_CAP_SA = sum(_square_antiprism_ring())
_CAP_CSP = (1.0 + SQ2) / SQ3  # edge-preserving apex over a cube face
_CAP_BSP = 2.0 / SQ3          # octahedral lattice sites (BCC subset)

# (code, name, polyhedral class, taxonomy class, k, builder) in order of
# increasing one-particle E
_ROWS = [
    ("TBP", "Trigonal bipyramidal", "Deltahedral, bipyramidal", "bipyramidal", 5,
     lambda: _bipyramid(3)),
    ("SDS", "Snub disphenoidal", "Deltahedral", "ellipsoidal", 8, _snub_disphenoid),
    ("PBP", "Pentagonal bipyramidal", "Deltahedral, bipyramidal", "bipyramidal", 7,
     lambda: _bipyramid(5)),
    ("CTP", "Capped trigonal prismatic", "Prismatic", "ellipsoidal", 7,
     lambda: np.vstack([_trigonal_prism(), _trigonal_prism_caps(1)])),
    ("BTP", "Bicapped trigonal prismatic", "Prismatic", "ellipsoidal", 8,
     lambda: np.vstack([_trigonal_prism(), _trigonal_prism_caps(2)])),
    ("TET", "Regular tetrahedral", "Platonic, deltahedral", "tetrahedral", 4, _tetrahedron),
    ("HBP", "Hexagonal bipyramidal", "Bipyramidal", "bipyramidal", 8,
     lambda: _bipyramid(6)),
    ("CSA", "Capped square antiprismatic", "Antiprismatic", "spheroidal", 9,
     lambda: np.vstack([_square_antiprism(), [[0, 0, _CAP_SA]]])),
    ("CSP", "Capped square prismatic", "Prismatic", "cuboidal", 9,
     lambda: np.vstack([_cube(), [[0, 0, _CAP_CSP]]])),
    ("TTP", "Tricapped trigonal prismatic", "Prismatic, deltahedral", "spheroidal", 9,
     lambda: np.vstack([_trigonal_prism(), _trigonal_prism_caps(3)])),
    ("SC", "Regular octahedral", "Platonic, deltahedral, bipyramidal", "bipyramidal", 6,
     _octahedron),
    ("BSA", "Bicapped square antiprismatic", "Deltahedral, antiprismatic", "spheroidal", 10,
     lambda: np.vstack([_square_antiprism(), [[0, 0, _CAP_SA]], [[0, 0, -_CAP_SA]]])),
    ("BSP", "Bicapped square prismatic", "Prismatic", "cuboidal", 10,
     lambda: np.vstack([_cube(), [[0, 0, _CAP_BSP]], [[0, 0, -_CAP_BSP]]])),
    ("CPP", "Capped pentagonal prismatic", "Prismatic", "spheroidal", 11,
     lambda: np.vstack([_pentagonal_prism(), [[0, 0, 1.0]]])),
    ("SA", "Square antiprismatic", "Antiprismatic", "spheroidal", 8, _square_antiprism),
    ("HDR", "Regular hexahedral", "Platonic, prismatic", "cuboidal", 8, _cube),
    ("BPP", "Bicapped pentagonal prismatic", "Prismatic", "spheroidal", 12,
     lambda: np.vstack([_pentagonal_prism(), [[0, 0, 1.0]], [[0, 0, -1.0]]])),
    ("HCP", "Anticuboctahedral", "Bicupolar", "spheroidal", 12, _anticuboctahedron),
    ("BCC", "Rhombic dodecahedral", "Catalan", "cuboidal", 14, _bcc_shell),
    ("FCC", "Cuboctahedral", "Bicupolar", "spheroidal", 12, _cuboctahedron),
    ("CPA", "Capped pentagonal antiprismatic", "Antiprismatic", "spheroidal", 11,
     lambda: _icosahedron()[:-1]),
    ("ICO", "Regular icosahedral", "Platonic, deltahedral, antiprismatic", "spheroidal", 12,
     _icosahedron),
]

CODES = [r[0] for r in _ROWS]

TAXONOMY = {r[0]: r[3] for r in _ROWS}

# ordered pairs (capped geometry, its capping)
CAPPING_RELATION = frozenset({
    ("SA", "CSA"), ("CSA", "BSA"),
    ("CTP", "BTP"), ("BTP", "TTP"),
    ("HDR", "CSP"), ("CSP", "BSP"),
    ("CPP", "BPP"),
    ("CPA", "ICO"),
})


def build_geometry(code: str) -> GeometrySpec:
    """Construct one catalog geometry by its abbreviation."""
    for c, name, pclass, tclass, k, build in _ROWS:
        if c == code:
            return GeometrySpec(code=c, name=name, vertices=build(), k=k,
                                polyhedral_class=pclass, taxonomy_class=tclass)
    raise KeyError(f"unknown geometry code: {code!r}")


def build_catalog() -> Catalog:
    """Construct the full 22-geometry catalog."""
    return Catalog(geometries=tuple(build_geometry(c) for c in CODES),
                   capping_relation=CAPPING_RELATION)


def capping_reduced_set(catalog: Catalog) -> list[str]:
    """Codes whose geometry is not capped by any other catalog geometry.

    These are the sources of the pooled bond-angle list; including a geometry
    together with its cappings would bias the pool toward that family.
    """
    capped = {pair[0] for pair in catalog.capping_relation}
    return [c for c in catalog.codes if c not in capped]


def catalog_to_json(catalog: Catalog) -> str:
    """Serialize the catalog for the CLI ``catalog dump`` command."""
    items = [
        {
            "code": g.code,
            "name": g.name,
            "k": g.k,
            "vertices": [[round(float(x), 12) for x in row] for row in g.vertices],
            "class": g.taxonomy_class,
        }
        for g in catalog.geometries
    ]
    return json.dumps(items, indent=2)
