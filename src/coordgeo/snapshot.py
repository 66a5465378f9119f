"""Particle snapshots: file I/O, neighbour search and per-particle structure.

Neighbourhoods come from a cutoff search (kernels.neighbour_csr: a numpy cell
list, minimum image under a periodic box).  Each particle's bond angles are
discretized with the catalog discretizer; the per-particle coefficient uses
the number of distinct angle classes, and classification picks the nearest
catalog geometry under the class-set distance (k and the set of angle classes
only, which is what noisy data can support).  analyze_frame gives both from
one profiling pass; per_particle_e and classify are views of the same pass.
Coincident particles raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .angles import Discretizer
from .catalog import Catalog
from .coefficients import descriptor

__all__ = [
    "Frame",
    "read_frames",
    "write_frames",
    "NeighbourList",
    "neighbours_cutoff",
    "auto_cutoff",
    "per_particle_e",
    "classify",
    "analyze_frame",
    "make_lattice",
]


@dataclass
class Frame:
    """Particle positions with an optional periodic cell and species labels."""

    positions: np.ndarray
    box: np.ndarray | None = None
    species: list | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        if len(self.positions) < 1:
            raise ValueError("frame needs at least one particle")
        if not np.isfinite(self.positions).all():
            raise ValueError("non-finite coordinates")
        if self.box is not None:
            self.box = np.asarray(self.box, dtype=float).reshape(3, 3)
            if abs(np.linalg.det(self.box)) < 1e-12:
                raise ValueError("singular periodic box")
        if self.species is not None and len(self.species) != len(self.positions):
            raise ValueError("species length mismatch")

    @property
    def n(self) -> int:
        return len(self.positions)


def _is_atom_line(line):
    parts = line.split()
    if len(parts) < 4:
        return False
    try:
        [float(x) for x in parts[1:4]]
    except ValueError:
        return False
    return True


def _parse_extxyz_comment(comment):
    box = None
    key = 'Lattice="'
    if key in comment:
        start = comment.index(key) + len(key)
        end = comment.index('"', start)
        nums = [float(x) for x in comment[start:end].split()]
        if len(nums) != 9:
            raise ValueError("Lattice entry must hold 9 numbers")
        box = np.array(nums).reshape(3, 3)
    return box


def read_frames(path, fmt: str = "auto") -> list:
    """Read an XYZ or extended-XYZ trajectory into a list of frames."""
    lines = Path(path).read_text().splitlines()
    frames = []
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            natoms = int(lines[i].strip())
        except ValueError:
            raise ValueError(f"{path}:{i + 1}: expected atom count, got {lines[i]!r}")
        body = i + 2  # count line + comment line precede the atom records
        if body + natoms > len(lines):
            # tolerate a comment-less minimal file if the atoms still fit
            if i + 1 + natoms <= len(lines) and _is_atom_line(lines[i + 1]):
                body = i + 1
            else:
                raise ValueError(f"{path}:{i + 1}: frame truncated "
                                 f"({natoms} atoms declared)")
        comment = lines[i + 1] if body == i + 2 else ""
        box = None
        if fmt in ("auto", "extended-xyz", "extxyz"):
            box = _parse_extxyz_comment(comment)
            if box is None and fmt in ("extended-xyz", "extxyz"):
                raise ValueError(f"{path}:{i + 2}: missing Lattice entry")
        species, pos = [], []
        for j in range(natoms):
            parts = lines[body + j].split()
            if len(parts) < 4:
                raise ValueError(f"{path}:{body + j + 1}: expected 'symbol x y z'")
            species.append(parts[0])
            pos.append([float(parts[1]), float(parts[2]), float(parts[3])])
        frames.append(Frame(positions=np.array(pos), box=box, species=species))
        i = body + natoms
    if not frames:
        raise ValueError(f"{path}: no frames found")
    return frames


def write_frames(path, frames, fmt: str = "auto") -> None:
    """Write frames as (extended-)XYZ; a frame with a box gets a Lattice entry."""
    out = []
    for fr in frames:
        out.append(str(fr.n))
        if fr.box is not None and fmt != "xyz":
            nums = " ".join(f"{x:.10g}" for x in fr.box.reshape(-1))
            out.append(f'Lattice="{nums}" Properties=species:S:1:pos:R:3')
        else:
            out.append("")
        species = fr.species or ["X"] * fr.n
        for s, p in zip(species, fr.positions):
            out.append(f"{s} {p[0]:.10f} {p[1]:.10f} {p[2]:.10f}")
    Path(path).write_text("\n".join(out) + "\n")


@dataclass
class NeighbourList:
    """CSR neighbour lists: neighbours of i are indices[starts[i]:starts[i+1]]."""

    starts: np.ndarray
    indices: np.ndarray
    cutoff: float

    def neighbours(self, i: int) -> np.ndarray:
        return self.indices[self.starts[i]:self.starts[i + 1]]

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.starts)


def neighbours_cutoff(frame: Frame, r_cut: float,
                      method: str = "cell") -> NeighbourList:
    """All neighbours within r_cut (minimum image when the frame is periodic).

    method="cell" uses the cell-list kernel, "brute" the O(N^2) reference
    path; both return identical, sorted adjacency.
    """
    if r_cut <= 0:
        raise ValueError("r_cut must be positive")
    periodic = frame.box is not None
    if periodic:
        widths = kernels._perpendicular_widths(frame.box)
        if r_cut > 0.5 * widths.min():
            raise ValueError(
                f"r_cut={r_cut} exceeds half the smallest box width "
                f"({0.5 * widths.min():.6g}); minimum image is ambiguous")
    if method == "brute":
        starts, idx = kernels._np_neighbour_pairs(
            frame.positions, frame.box if periodic else None, periodic, r_cut)
    elif method == "cell":
        starts, idx = kernels.neighbour_csr(
            frame.positions, frame.box if periodic else None, periodic, r_cut)
    else:
        raise ValueError(f"unknown method {method!r}")
    return NeighbourList(starts=starts, indices=idx, cutoff=float(r_cut))


def auto_cutoff(frame: Frame, nbins: int = 200) -> float:
    """Cutoff at the first minimum of the radial distribution function.

    Structures whose first two shells nearly coincide (the 8+6 split of a
    body-centred cubic crystal, for instance) keep a genuine RDF minimum
    between those shells; pass an explicit cutoff to treat them as one
    coordination shell.
    """
    if frame.box is not None:
        rmax = 0.499 * kernels._perpendicular_widths(frame.box).min()
    else:
        span = frame.positions.max(axis=0) - frame.positions.min(axis=0)
        rmax = max(float(np.linalg.norm(span)) / 2.0, 1e-9)
    nl = neighbours_cutoff(frame, rmax)
    dists = []
    inv = np.linalg.inv(frame.box) if frame.box is not None else None
    for i in range(frame.n):
        js = nl.neighbours(i)
        js = js[js > i]
        if len(js) == 0:
            continue
        d = frame.positions[js] - frame.positions[i]
        if inv is not None:
            f = d @ inv
            f -= np.rint(f)
            d = f @ frame.box
        dists.append(np.linalg.norm(d, axis=1))
    if not dists:
        raise ValueError("no pairs found; cannot estimate a cutoff")
    r = np.concatenate(dists)
    hist, edges = np.histogram(r, bins=nbins, range=(0.0, rmax))
    centers = 0.5 * (edges[:-1] + edges[1:])
    g = hist / np.maximum(centers ** 2, 1e-12)  # shell-volume normalization
    kernel = np.ones(5) / 5.0
    g = np.convolve(g, kernel, mode="same")
    peak = int(np.argmax(g))
    for i in range(peak + 1, len(g) - 1):
        if g[i] <= g[i - 1] and g[i] < g[i + 1]:
            return float(centers[i])
    return float(centers[min(peak + len(g) // 10, len(g) - 1)])


def _edges_and_catalog(catalog, disc):
    edges = np.asarray(disc.bin_edges, dtype=float)
    nclasses = len(edges) + 1
    cat_k, cat_m = [], []
    cat_f = np.zeros((len(catalog.geometries), nclasses), dtype=np.int64)
    for gi, g in enumerate(catalog.geometries):
        desc = descriptor(g, disc)
        cat_k.append(g.k)
        cat_m.append(desc.profile.m)
        for cls, rep in zip(desc.profile.class_indices, desc.profile.theta):
            cat_f[gi, cls] = desc.profile.f[rep]
    return edges, (np.array(cat_k, dtype=np.int64),
                   np.array(cat_m, dtype=np.int64),
                   cat_f)


def _profile(frame, nl, edges, value_resolution):
    return kernels.profile_particles(
        frame.positions, frame.box, frame.box is not None,
        nl.starts, nl.indices, edges, value_resolution)


def _coefficient(kk, mm):
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log2((kk * kk - kk) / (2.0 * mm))
    e[kk < 2] = np.nan
    return e


def analyze_frame(frame: Frame, nl: NeighbourList, catalog: Catalog,
                  disc: Discretizer,
                  value_resolution: float = kernels.VALUE_RESOLUTION):
    """Coefficients and labels of every particle from one profiling pass.

    Returns (e, k, m, labels, distances): per_particle_e gives the first
    three, classify the last two.
    """
    edges, (cat_k, cat_m, cat_f) = _edges_and_catalog(catalog, disc)
    kk, mm, fcounts = _profile(frame, nl, edges, value_resolution)
    lab_idx, dists = kernels.classify_particles(kk, mm, fcounts, cat_k,
                                                cat_m, cat_f)
    codes = catalog.codes
    labels = [codes[i] if i >= 0 else "-" for i in lab_idx]
    return _coefficient(kk, mm), kk, mm, labels, dists


def per_particle_e(frame: Frame, nl: NeighbourList, disc: Discretizer,
                   value_resolution: float = kernels.VALUE_RESOLUTION):
    """Per-particle coefficient (bits).

    m counts the particle's distinct bond angles: measured values are
    discretized, and values inside one bin closer than value_resolution merge
    into one angle.  Particles with fewer than two neighbours get NaN and
    m = 0 rather than being dropped.  Returns (e, k, m).
    """
    edges = np.asarray(disc.bin_edges, dtype=float)
    kk, mm, _ = _profile(frame, nl, edges, value_resolution)
    return _coefficient(kk, mm), kk, mm


def classify(frame: Frame, nl: NeighbourList, catalog: Catalog,
             disc: Discretizer,
             value_resolution: float = kernels.VALUE_RESOLUTION):
    """Nearest catalog geometry per particle under the corrected distance.

    Each particle's descriptor is its bond count plus the per-class counts of
    its distinct measured angles; distinctness within a bin uses
    value_resolution, which separates geometries whose class sets coincide
    (HCP and BPP, for instance) while staying insensitive to thermal noise.
    Returns (labels, distances): labels are geometry codes, or "-" for
    particles with k < 2; distances are in bits (NaN where undefined).
    Ties go to the lower catalog index.
    """
    return analyze_frame(frame, nl, catalog, disc, value_resolution)[3:]


_LATTICE_BASES = {
    # conventional cubic / orthorhombic cells: (cell vectors, fractional basis)
    "sc": (np.eye(3), np.array([[0.0, 0.0, 0.0]])),
    "bcc": (np.eye(3), np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])),
    "fcc": (np.eye(3), np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                                 [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])),
}


def make_lattice(kind: str, cells, a: float = 1.0, noise: float = 0.0,
                 seed: int = 0) -> Frame:
    """Periodic crystal frame of the given lattice type.

    cells is the number of conventional cells per axis (int or 3-tuple);
    noise adds per-coordinate Gaussian displacement of the given standard
    deviation (absolute length units).
    """
    kind = kind.lower()
    if isinstance(cells, int):
        cells = (cells, cells, cells)
    nx, ny, nz = cells
    if kind in _LATTICE_BASES:
        cell, basis = _LATTICE_BASES[kind]
        cell = cell * a
    elif kind == "hcp":
        # orthorhombic 4-atom representation, ideal c/a = sqrt(8/3)
        c = a * np.sqrt(8.0 / 3.0)
        cell = np.diag([a, a * np.sqrt(3.0), c])
        basis = np.array([
            [0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.5, 5.0 / 6.0, 0.5],
            [0.0, 1.0 / 3.0, 0.5],
        ])
    else:
        raise ValueError(f"unknown lattice {kind!r}")
    pos = []
    for ix in range(nx):
        for iy in range(ny):
            for iz in range(nz):
                shift = np.array([ix, iy, iz], dtype=float)
                for b in basis:
                    pos.append((b + shift) @ cell)
    pos = np.array(pos)
    box = cell * np.array([[nx], [ny], [nz]])
    if noise > 0:
        rng = np.random.default_rng(seed)
        pos = pos + rng.normal(scale=noise, size=pos.shape)
    return Frame(positions=pos, box=box, species=["X"] * len(pos))
