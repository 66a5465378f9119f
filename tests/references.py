"""Reference implementations that only the tests call: the O(N^2) neighbour
search that the cell list must equal, the cell list's own CSR, one SMACOF
run from one start, a hull's fan triangles summed one at a time, lattice
sites placed one at a time, and the numpy calls that the table binning of
angles, the RDF binning, the d_E union and the bond lengths replace."""

import itertools

import numpy as np

from coordgeo.kernels import _pair_r2, pairs_csr, pairs_within
from coordgeo.spacemap import _smacof_stack


def brute_neighbour_csr(pos, box, rcut):
    """O(N^2) reference search: CSR neighbour lists within rcut, rows sorted."""
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    cols = pos.T.copy()
    n = len(pos)
    inv = None if box is None else np.linalg.inv(box)
    chunk = max(1, int(4e6 // n))
    counts = np.zeros(n, dtype=np.int64)
    idx = []
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(n, lo + chunk))
        r2 = _pair_r2(cols, rows[:, None], np.arange(n)[None, :], box, inv)
        r2[np.arange(len(rows)), rows] = np.inf
        ii, jj = np.nonzero(r2 <= rcut * rcut)
        counts[rows] = np.bincount(ii, minlength=len(rows))
        idx.append(jj)
    starts = np.concatenate([[0], np.cumsum(counts)])
    return starts, np.concatenate(idx).astype(np.int64)


def cell_neighbour_csr(pos, box, rcut):
    """CSR neighbour lists within rcut from the cell list, rows sorted: the
    pair search's chunks mirrored by pairs_csr, as neighbours_cutoff does."""
    return pairs_csr(len(pos), pairs_within(pos, box, rcut))


def smacof(d, x0, max_iter, rtol):
    """One SMACOF run from x0; returns (coords, stress trace, converged)."""
    x, trace, converged = _smacof_stack(d, x0[None], max_iter, rtol)[0]
    return x, trace.tolist(), converged


def fan_sums(pts, polygons):
    """Fan triangles of a hull's ordered polygons, with the hull's volume and
    area summed one triangle at a time (np.linalg.norm, np.dot)."""
    pts = np.asarray(pts, dtype=float)
    centroid = pts.mean(axis=0)
    faces = []
    volume = 0.0
    area = 0.0
    for ordered in polygons:
        for t in range(1, len(ordered) - 1):
            a, b, c = ordered[0], ordered[t], ordered[t + 1]
            faces.append((a, b, c))
            ab = pts[b] - pts[a]
            ac = pts[c] - pts[a]
            area += 0.5 * np.linalg.norm(np.cross(ab, ac))
            volume += abs(np.dot(pts[a] - centroid,
                                 np.cross(pts[b] - centroid, pts[c] - centroid))) / 6.0
    return tuple(faces), float(volume), float(area)


def lattice_loop(kind, cells, a=1.0, noise=0.0, seed=0):
    """make_lattice's positions and box, one site at a time: each basis site
    of each cell, in itertools.product order, times the scaled cell."""
    if isinstance(cells, int):
        cells = (cells, cells, cells)
    nx, ny, nz = cells
    if kind == "hcp":
        cell = np.diag([a, a * np.sqrt(3.0), a * np.sqrt(8.0 / 3.0)])
        basis = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                          [0.5, 5.0 / 6.0, 0.5], [0.0, 1.0 / 3.0, 0.5]])
    else:
        cell = np.eye(3) * a
        basis = {"sc": [[0.0, 0.0, 0.0]],
                 "bcc": [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]],
                 "fcc": [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5],
                         [0.0, 0.5, 0.5]]}[kind]
    pos = np.array([(np.array(b) + np.array(shift, dtype=float)) @ cell
                    for shift in itertools.product(range(nx), range(ny),
                                                   range(nz))
                    for b in basis])
    if noise > 0:
        pos = pos + np.random.default_rng(seed).normal(scale=noise,
                                                       size=pos.shape)
    return pos, cell * np.array([[nx], [ny], [nz]])


def searchsorted_bins(edges, a):
    """The bin of each angle by binary search over the edges."""
    return np.searchsorted(edges, a, side="left")


def histogram_counts(r, edges):
    """The RDF counts of distances r by np.histogram over the equal bins
    between edges, from 0 to the last edge."""
    return np.histogram(r, len(edges) - 1, range=(0.0, edges[-1]))[0]


def distances_loop(ka, fa, kb, fb):
    """d_E of every pair of two descriptor sets, the corrected union summed
    by np.maximum against one row of fb at a time."""
    ka = np.asarray(ka, dtype=np.float64)
    kb = np.asarray(kb, dtype=np.float64)
    lp_a = np.log2(ka * ka - ka)
    lp_b = np.log2(kb * kb - kb)
    e_a = lp_a - np.log2(2.0 * np.sum(fa, axis=1))
    e_b = lp_b - np.log2(2.0 * np.sum(fb, axis=1))
    union = np.stack([np.maximum(fa, row).sum(axis=1) for row in fb], axis=1)
    e_pair = 0.5 * (lp_a[:, None] + lp_b) - np.log2(2.0 * union)
    return np.maximum(e_a[:, None], e_b) - e_pair


def tails_template(result):
    """analyze's "k,m,e,label,d_e" lines of each descriptor row of a
    FrameResult, one % template filled once for every field of every row."""
    fields = [None] * (5 * len(result.k))
    fields[0::5] = result.k.tolist()
    fields[1::5] = result.m.tolist()
    fields[2::5] = result.e.tolist()
    fields[3::5] = [result.names[i] for i in result.label.tolist()]
    fields[4::5] = result.d_e.tolist()
    text = "%d,%d,%.6f,%s,%.6f\n" * len(result.k) % tuple(fields)
    return text.splitlines(keepends=True)
