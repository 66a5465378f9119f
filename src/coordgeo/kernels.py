"""Hot numeric kernels: neighbour search, per-particle angle profiling, classification.

Each kernel has one numpy implementation.  Neighbour search is a vectorised
cell list (Allen & Tildesley, Computer Simulation of Liquids, sec. 5.3); the
O(N^2) brute force stays as its reference and serves frames with fewer than
three cells on some axis.
"""

import numpy as np

HAVE_NUMBA = False  # constant: perfbench/worker.py reads it to record the backend

# resolution (degrees) under which two measured angles in the same bin count
# as one distinct angle; must lie above the thermal-noise scale and below the
# closest ideal same-bin splitting in the catalog (1.348 degrees), with twice
# its value below the smallest two-member splitting separation (4.66 degrees)
VALUE_RESOLUTION = 1.2

_MAX_CELLS = 64          # per axis; larger cells stay correct, only slower
_PAIR_BUDGET = 1_000_000  # candidate pairs held in memory at once
# the 27 cell offsets around a cell, each a (dx, dy, dz) row
_STENCIL = np.stack(np.meshgrid([-1, 0, 1], [-1, 0, 1], [-1, 0, 1],
                                indexing="ij"), axis=-1).reshape(-1, 3)


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _pair_r2(pos, i, j, box, inv):
    """|pos[i] - pos[j]|^2 over broadcast index arrays i, j (minimum image if box).

    Plain elementwise arithmetic makes each value independent of the shape of
    i and j, so the cell list and the brute force decide pairs at rcut alike.
    """
    d = [pos[i, c] - pos[j, c] for c in range(3)]
    if box is not None:
        f = [_dot3(d, inv[:, c]) for c in range(3)]
        del d
        for x in f:
            x -= np.rint(x)
        d = [_dot3(f, box[:, c]) for c in range(3)]
    return _dot3(d, d)


def _np_neighbour_pairs(pos, box, periodic, rcut):
    """O(N^2) reference search: CSR neighbour lists within rcut, rows sorted."""
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    n = len(pos)
    box = box if periodic else None
    inv = np.linalg.inv(box) if periodic else None
    chunk = max(1, int(4e6 // n))
    counts = np.zeros(n, dtype=np.int64)
    idx = []
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(n, lo + chunk))
        r2 = _pair_r2(pos, rows[:, None], np.arange(n)[None, :], box, inv)
        r2[np.arange(len(rows)), rows] = np.inf
        ii, jj = np.nonzero(r2 <= rcut * rcut)
        counts[rows] = np.bincount(ii, minlength=len(rows))
        idx.append(jj)
    starts = np.concatenate([[0], np.cumsum(counts)])
    return starts, np.concatenate(idx).astype(np.int64)


def neighbour_csr(pos, box, periodic, rcut):
    """CSR neighbour lists within rcut (minimum image when periodic).

    Particles are sorted by cell; the candidates of a particle are the members
    of the 27 cells around its own, kept if within rcut.  Output equals
    _np_neighbour_pairs, which runs instead when some axis has fewer than 3
    cells (there the wrapped stencil would visit one cell twice).
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    n = len(pos)
    # a hair of slack keeps every cell wider than rcut despite rounding
    cell_len = rcut * (1.0 + 1e-9)
    if periodic:
        inv = np.linalg.inv(box)
        frac = pos @ inv
        frac -= np.floor(frac)
        ncell = _perpendicular_widths(box) // cell_len
    else:
        box = inv = None
        lo = pos.min(axis=0)
        span = pos.max(axis=0) - lo
        ncell = span // cell_len
        frac = (pos - lo) / np.maximum(span, np.finfo(float).tiny)
    if ncell.min() < 3:
        return _np_neighbour_pairs(pos, box, periodic, rcut)
    ncell = np.minimum(ncell, _MAX_CELLS).astype(np.int64)
    cell = np.minimum((frac * ncell).astype(np.int64), ncell - 1)
    cid = _flat(cell, ncell)
    order = np.argsort(cid, kind="stable")
    members = np.bincount(cid, minlength=int(ncell.prod()))
    first = np.cumsum(members) - members
    chunk = max(1, _PAIR_BUDGET // (len(_STENCIL) * int(members.max())))
    counts = np.zeros(n, dtype=np.int64)
    idx = []
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        # the stencil cells of each particle and the candidates each holds
        near = cell[lo:hi, None, :] + _STENCIL
        if periodic:
            near %= ncell
            inside = True
        else:
            inside = ((near >= 0) & (near < ncell)).all(axis=2)
            near = np.clip(near, 0, ncell - 1)
        near = _flat(near, ncell).ravel()
        size = np.where(inside, members[near].reshape(hi - lo, -1), 0).ravel()
        i = np.repeat(np.arange(lo, hi), len(_STENCIL))
        i = np.repeat(i, size)
        ends = np.cumsum(size)
        j = order[np.arange(ends[-1]) + np.repeat(first[near] - ends + size, size)]
        keep = i != j
        i, j = i[keep], j[keep]
        keep = _pair_r2(pos, i, j, box, inv) <= rcut * rcut
        # CSR order: by particle, then by neighbour index
        key = np.sort((i[keep] - lo) * n + j[keep])
        counts[lo:hi] = np.bincount(key // n, minlength=hi - lo)
        idx.append(key % n)
    starts = np.concatenate([[0], np.cumsum(counts)])
    return starts, np.concatenate(idx).astype(np.int64)


def _flat(cell, ncell):
    return cell[..., 0] + ncell[0] * (cell[..., 1] + ncell[1] * cell[..., 2])


def _perpendicular_widths(box):
    v = np.abs(np.linalg.det(box))
    w = np.empty(3)
    for i in range(3):
        a = box[(i + 1) % 3]
        b = box[(i + 2) % 3]
        w[i] = v / np.linalg.norm(np.cross(a, b))
    return w


def _count_clusters(vals, value_res):
    """Distinct-angle clusters among the sorted values of one bin.

    Values chain-merge when consecutive gaps stay within value_res.  A
    cluster needs at least three members, or a separation of more than twice
    value_res from its neighbours, to count as its own distinct angle;
    smaller nearby clusters are measurement tails and fold into the nearest
    neighbour.  (Every same-bin splitting among the reference geometries has
    multiplicity >= 4 or separation >= 4 degrees, so ideal neighbourhoods are
    never over-merged.)
    """
    bounds = [t for t in range(1, len(vals)) if vals[t] - vals[t - 1] > value_res]
    far = 2.0 * value_res
    while bounds:
        best = None
        prev = 0
        for c in range(len(bounds) + 1):
            end = bounds[c] if c < len(bounds) else len(vals)
            if end - prev <= 2:
                gap_l = vals[prev] - vals[prev - 1] if c > 0 else np.inf
                gap_r = vals[end] - vals[end - 1] if c < len(bounds) else np.inf
                gap, b = (gap_l, c - 1) if gap_l < gap_r else (gap_r, c)
                qualifies = (end - prev == 1) or gap <= far
                if qualifies and (best is None or gap < best[0]):
                    best = (gap, b)
            prev = end
        if best is None:
            break
        del bounds[best[1]]
    return len(bounds) + 1


def profile_particles(pos, box, periodic, starts, idx, edges,
                      value_res=VALUE_RESOLUTION):
    """Bond-angle profile of every particle: (k, m, per-class angle counts).

    Measured angles are sorted and binned; within each bin the number of
    distinct angles comes from _count_clusters.  A zero-length bond (two
    coincident particles) raises ValueError.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    edges = np.ascontiguousarray(edges, dtype=np.float64)
    n = len(pos)
    kk = np.diff(starts).astype(np.int64)
    mm = np.zeros(n, dtype=np.int64)
    fcounts = np.zeros((n, len(edges) + 1), dtype=np.int64)
    inv = np.linalg.inv(box) if periodic else None
    for i in range(n):
        k = kk[i]
        if k == 0:
            continue
        nbrs = idx[starts[i]:starts[i + 1]]
        vec = pos[nbrs] - pos[i]
        if periodic:
            f = vec @ inv
            f -= np.rint(f)
            vec = f @ box
        length = np.linalg.norm(vec, axis=1)
        if not length.all():
            raise ValueError(f"particle {i} coincides with particle "
                             f"{nbrs[np.argmin(length)]} (zero-length bond)")
        if k < 2:
            continue
        vec = vec / length[:, None]
        gram = np.clip(vec @ vec.T, -1.0, 1.0)
        iu = np.triu_indices(k, 1)
        ang = np.sort(np.degrees(np.arccos(gram[iu])))
        cls = np.searchsorted(edges, ang, side="left")
        m = 0
        for c in np.unique(cls):
            nclus = _count_clusters(ang[cls == c], value_res)
            fcounts[i, c] += nclus
            m += nclus
        mm[i] = m
    return kk, mm, fcounts


def classify_particles(kk, mm, fcounts, cat_k, cat_m, cat_f):
    """Label particles with the nearest catalog geometry (corrected union distance).

    Returns catalog indices (-1 where k < 2) and distances (NaN there); ties
    go to the lowest catalog index.
    """
    cat_k = np.asarray(cat_k, dtype=np.float64)
    cat_m = np.asarray(cat_m, dtype=np.float64)
    cat_f = np.asarray(cat_f, dtype=np.int64)
    n = len(kk)
    labels = np.full(n, -1, dtype=np.int64)
    dists = np.full(n, np.nan)
    lp_g = np.log2(cat_k * cat_k - cat_k)
    e_g = lp_g - np.log2(2.0 * cat_m)
    for i in range(n):
        k = int(kk[i])
        if k < 2:
            continue
        lp_i = np.log2(k * k - k)
        e_i = lp_i - np.log2(2.0 * mm[i])
        union = np.maximum(fcounts[i][None, :], cat_f).sum(axis=1)
        e_pair = 0.5 * (lp_i + lp_g) - np.log2(2.0 * union)
        d = np.maximum(e_i, e_g) - e_pair
        besti = int(np.argmin(d))
        labels[i] = besti
        dists[i] = d[besti]
    return labels, dists
