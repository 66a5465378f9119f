"""Hot numeric kernels: neighbour search, per-particle angle profiling, classification.

Each kernel has one numpy implementation and no per-particle or per-bin
Python loop.  One vectorised cell list, pairs_within (Allen & Tildesley,
Computer Simulation of Liquids, sec. 5.3), finds the pairs within a radius for
every box, thin slabs and open frames (box None) included, each pair once.
It sorts the particles into cell order once; each then takes as candidates
the rest of its own cell and the neighbouring cells of higher id, half the
27-cell stencil (Mattson & Rice, Comput. Phys. Commun. 119, 135, 1999), which
a per-cell table merges into runs of consecutive positions, so no pair is
generated from both ends and none is masked away.  Its distances gather
coordinates by np.take from contiguous columns, and its minimum image skips
the products with the zero entries of the box and its inverse, which change
no distance's bits (_pair_r2).
snapshot.auto_cutoff bins the distances of the pairs within two mean spacings,
or a doubled reach, and returns those within its cutoff as the search's own
(i, j) chunks; pairs_csr mirrors the chunks of pairs into CSR rows, from a
search and from auto_cutoff alike.  The O(N^2) brute force is only the test reference.  The angle
profile runs over row_blocks, blocks of consecutive CSR rows, and within a
block it is batched by coordination number k: one np.take gather and one
minimum-image step for the block's bond vectors, then stacked Gram matrices
per k, their rows gathered and their upper triangles taken by np.take, and
the angles binned by angles.angle_bins, the quarter-degree table that
Discretizer.classify bins by too.  Each chunk's distinct angles come
from one closed form over its clusters, for every gap count at once
(_distinct_counts); only bins holding equal gaps one or two apart go through
the greedy rounds of _merge_clusters, on the same per-cluster arrays, one gap
of every such bin a round.  A particle's profile is the catalog's
descriptor format, (k, per-class distinct-angle counts), so classification
takes d_E from coefficients.distances, the function that builds the distance
matrix.  One constant, _BUDGET, bounds the temporaries of every step: the
candidates of a pair-search chunk, the angles of a profile chunk and the rows
plus bonds of a row block.  So a frame's working set is its CSR, its
per-particle results and one block, whatever N.
"""

import numpy as np

from .angles import angle_bins
from .coefficients import distances

HAVE_NUMBA = False  # constant: perfbench/worker.py reads it to record the backend

# resolution (degrees) under which two measured angles in the same bin count
# as one distinct angle; must lie above the thermal-noise scale and below the
# closest ideal same-bin splitting in the catalog (1.348 degrees), with twice
# its value below the smallest two-member splitting separation (4.66 degrees)
VALUE_RESOLUTION = 1.2

# the one bound on a frame's temporaries: candidate pairs of a pair-search
# chunk, bond angles of a profile chunk, or rows plus bonds of a row block
_BUDGET = 1 << 16


def _combine(u, w):
    """w[0] * u[0] + w[1] * u[1] + w[2] * u[2], summed left to right, for
    arrays u and numbers w, without the terms whose w is exactly 0.

    A skipped term is +-0 for finite u and changes no sum but the sign of a
    zero sum, so a diagonal box costs one product per axis, not three.
    """
    terms = [x * c for x, c in zip(u, w) if c != 0.0]
    for t in terms[1:]:
        terms[0] += t
    return terms[0]


def _pair_r2(cols, i, j, box, inv):
    """|pos[i] - pos[j]|^2 over broadcast index arrays i, j (minimum image if
    box), from cols, the three coordinate columns of pos, each contiguous.

    Plain elementwise arithmetic makes each value independent of the shape of
    i and j, so the cell list and the brute force decide pairs at rcut alike.
    Under a box, the zero entries of box and inv are skipped (_combine): a
    fractional coordinate that sums to a zero of either sign is +0 once its
    nearest integer is subtracted, and a Cartesian one is squared, so r2 is
    bitwise that of the full 3 x 3 products.  Every step is odd in the
    difference, and IEEE rounding and np.rint are symmetric in sign, so the
    pair (j, i) has the r2 of (i, j) bit for bit.  The Cartesian components
    are made and squared one at a time, in place, and summed left to right.
    A square that overflows gives inf, which lies beyond every finite cutoff,
    so it raises no warning.
    """
    d = [np.take(x, i) - np.take(x, j) for x in cols]
    if box is not None:
        d = list(_columns(d, inv))
        for x in d:
            x -= np.rint(x)
        d = _columns(d, box)
    r2 = None
    with np.errstate(over="ignore"):
        for x in d:
            x *= x
            if r2 is None:
                r2 = x
            else:
                r2 += x
    return r2


def _columns(u, m):
    """Yield _combine(u, m[:, c]) for c = 0, 1, 2, emptying u[k] once no
    later column takes it: under a diagonal m, four of the six arrays are
    alive at most."""
    for c in range(3):
        yield _combine(u, m[:, c])
        for k in range(3):
            if not m[k, c + 1:].any():
                u[k] = None


def pairs_within(pos, box, rcut):
    """Yield (i, j, r2) chunks of the pairs i < j within rcut, each pair once.

    Minimum image unless box is None (an open frame).  Cells are at least
    rcut wide and number at most n (the largest axis halves while more), so
    the per-cell tables stay O(n) and a compact frame gets cells of the
    cutoff at any n.  The particles are sorted into cell order once.  In
    that order a particle's candidates are the rest of its own cell and the
    neighbouring cells of higher id, so each pair of cells is visited from
    one end only; a per-cell table (_forward_runs) merges those cells into
    runs of consecutive positions, and a particle's candidates are a few
    contiguous ranges.  A periodic axis with fewer than 3 cells counts each
    of its cells once (offsets -1, 0, 1 would wrap onto one cell twice).
    Each r2 is _pair_r2 of the pair in input order, bit for bit.  A chunk
    holds the owners of at most _BUDGET candidates: 14 cells, half the
    27-cell stencil, of at most the fullest cell's members each.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    n = len(pos)
    # a hair of slack keeps every cell wider than rcut despite rounding
    cell_len = rcut * (1.0 + 1e-9)
    periodic = box is not None
    if periodic:
        inv = np.linalg.inv(box)
        frac = pos @ inv
        frac -= np.floor(frac)
        ncell = _perpendicular_widths(box) // cell_len
    else:
        inv = None
        lo = pos.min(axis=0)
        span = pos.max(axis=0) - lo
        ncell = span // cell_len
        frac = (pos - lo) / np.maximum(span, np.finfo(float).tiny)
    # at most n cells: the float counts are bounded before the cast, and
    # halving an axis keeps every cell at least cell_len wide
    ncell = np.clip(ncell, 1, n)
    while ncell.prod() > n:
        ncell[ncell.argmax()] //= 2
    ncell = ncell.astype(np.int64)
    cell = np.minimum((frac * ncell).astype(np.int64), ncell - 1)
    del frac
    cid = _flat(cell, ncell)
    order = np.argsort(cid, kind="stable")
    cell, cid = cell[order], cid[order]
    # the coordinate columns in cell order: a run of positions is a slice
    cols = pos[order].T.copy()
    members = np.bincount(cid, minlength=int(ncell.prod()))
    # cell c holds positions bounds[c]:bounds[c + 1]; bounds[-1] == bounds[-2]
    # is the empty cell that stands for a neighbour left out
    bounds = np.concatenate([[0], np.cumsum(members), [n]])
    chunk = max(1, _BUDGET // (14 * int(members.max())))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        p, q = _forward_runs(cell[lo:hi], cid[lo:hi], ncell, periodic,
                             bounds, lo)
        r2 = _pair_r2(cols, p, q, box, inv)
        keep = np.flatnonzero(r2 <= rcut * rcut)
        i, j, r2 = order[p[keep]], order[q[keep]], r2[keep]
        # the candidates go before the next chunk's are made
        del p, q, keep
        yield np.minimum(i, j), np.maximum(i, j), r2


def _forward_runs(cell, cid, ncell, periodic, bounds, lo):
    """Candidate pairs (p, q), p < q, of the cell-ordered particles lo,
    lo + 1, ... whose cells and cell ids are cell and cid: for each, the
    particles after it in its own cell and those of its neighbouring cells
    of higher id.

    A table over the distinct cells of these particles lists each one's
    forward neighbours in id order, each once, and merges cells whose
    positions abut (consecutive ids, or ids with only empty cells between)
    into runs; each particle takes its cell's runs, its own cell cut to the
    particles after it.
    """
    empty = len(bounds) - 2
    # cids are sorted: the distinct cells and each particle's row among them
    change = np.diff(cid, prepend=-1) != 0
    head = np.flatnonzero(change)
    owner_row = np.cumsum(change) - 1
    # per axis, the coordinates of offsets -1, 0, 1: wrapped if periodic,
    # else -empty outside, which makes any id holding it negative
    near = []
    for a in range(3):
        reach = np.arange(-1, ncell[a] + 1)
        if periodic:
            reach %= ncell[a]
        else:
            reach[[0, -1]] = -empty
        near.append(reach[cell[head, a, None] + np.arange(3)])
    x, y, z = near
    ids = (x[:, :, None, None] + ncell[0] * (
        y[:, None, :, None] + ncell[1] * z[:, None, None, :])).reshape(-1, 27)
    # the cells below the own one, and those outside an open frame, drop out
    ids[ids < cid[head, None]] = empty
    ids.sort(axis=1)
    # a periodic axis under 3 cells reaches one cell more than once
    ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = empty
    start, end = bounds[ids], bounds[ids + 1]
    row, col = np.nonzero(end > start)
    start, end = start[row, col], end[row, col]
    # a run begins at a new row, or where a cell does not begin at the end of
    # the one before; a row's first run holds its own cell
    new = np.ones(len(row), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (start[1:] != end[:-1])
    run = np.flatnonzero(new)
    run_start = start[run]
    run_end = end[np.append(run[1:], len(row)) - 1]
    nruns = np.bincount(row[run], minlength=len(head))
    # each particle's runs, the first cut to the particles after it
    nr = nruns[owner_row]
    seg_first = np.cumsum(nr) - nr
    seg = np.arange(int(nr.sum())) + np.repeat(
        (np.cumsum(nruns) - nruns)[owner_row] - seg_first, nr)
    seg_start = run_start[seg]
    seg_start[seg_first] = np.arange(lo + 1, lo + len(cid) + 1)
    size = run_end[seg] - seg_start
    p = np.repeat(np.arange(lo, lo + len(cid)),
                  np.add.reduceat(size, seg_first))
    q = np.repeat(seg_start - (np.cumsum(size) - size), size)
    q += np.arange(len(q))
    return p, q


def pairs_csr(n, pairs):
    """CSR rows of n particles from (i, j, ...) chunks of pairs, each pair
    once (pairs_within's or auto_cutoff's), however chunked or ordered:
    every pair goes into the rows of both its particles, rows sorted."""
    key = np.concatenate([np.concatenate([i * n + j, j * n + i])
                          for i, j, *_ in pairs])
    key.sort()
    starts = np.concatenate([[0], np.cumsum(np.bincount(key // n, minlength=n))])
    return starts, key % n


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


def row_blocks(starts):
    """(lo, hi) ranges of consecutive CSR rows covering every row in order,
    each holding at most _BUDGET rows plus bonds (a longer row alone)."""
    n = len(starts) - 1
    cost = np.asarray(starts) + np.arange(n + 1)  # rows plus bonds before row i
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(cost, cost[lo] + _BUDGET, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def profile_particles(pos, box, starts, idx, edges, first=0):
    """Bond-angle profile of CSR rows: (k, per-class angle counts) per row.

    starts and idx are the rows of particles first, first + 1, ... with
    starts[0] == 0: a frame's whole CSR, or one of its row_blocks rebased.
    Batched by coordination number: the rows' bond vectors are taken in one
    minimum-image step, and for each k >= 2 the rows of that k are stacked
    into (R, k, 3) for one batched Gram matrix, in row chunks of about
    _BUDGET angles.  Its upper triangles, one np.take of the flattened rows,
    go through clip, arccos, degrees and the row sort in place and are
    binned by angles.angle_bins; _distinct_counts counts each chunk's
    distinct angles per bin.  m is the row sum of the counts.  A row's
    result depends on that row alone.  A zero-length bond (two coincident
    particles) raises ValueError naming the lowest such particle.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    edges = np.ascontiguousarray(edges, dtype=np.float64)
    kk = np.diff(starts).astype(np.int64)
    n = len(kk)
    nbins = len(edges) + 1
    fcounts = np.zeros((n, nbins), dtype=np.int64)
    # bond vectors: each neighbour's row minus its owner's, owners repeated by k
    vec = np.take(pos, idx, axis=0)
    vec -= np.repeat(pos[first:first + n], kk, axis=0)
    if box is not None:
        f = vec @ np.linalg.inv(box)
        f -= np.rint(f)
        vec = f @ box
    length = _norms(vec)
    zero = np.flatnonzero(length == 0.0)
    if len(zero):
        # bonds run in CSR order: the first zero one belongs to the lowest
        # offending particle and is its first coincident neighbour
        b = zero[0]
        owner = first + int(np.searchsorted(starts, b, side="right")) - 1
        raise ValueError(f"particle {owner} coincides with particle "
                         f"{idx[b]} (zero-length bond)")
    vec /= length[:, None]
    bins = angle_bins(edges)
    for k in np.unique(kk[kk >= 2]).tolist():
        iu, ju = np.triu_indices(k, 1)
        upper = iu * k + ju
        rows = np.flatnonzero(kk == k)
        chunk = max(1, _BUDGET // len(iu))
        for lo in range(0, len(rows), chunk):
            r = rows[lo:lo + chunk]
            v = np.take(vec, starts[r][:, None] + np.arange(k), axis=0)
            gram = v @ v.transpose(0, 2, 1)
            ang = np.take(gram.reshape(len(r), k * k), upper, axis=1)
            np.clip(ang, -1.0, 1.0, out=ang)
            np.arccos(ang, out=ang)
            np.degrees(ang, out=ang)
            ang.sort(axis=1)
            fcounts[r] = _distinct_counts(ang, bins(ang), nbins)
    return kk, fcounts


def _norms(vec):
    """np.linalg.norm(vec, axis=1) of an (n, 3) array, bit for bit: the
    squares summed left to right, then the square root."""
    sq = vec * vec
    norms = sq[:, 0] + sq[:, 1]
    norms += sq[:, 2]
    return np.sqrt(norms, out=norms)


def _distinct_counts(ang, cls, nbins):
    """Distinct-angle count per row and bin, (R, nbins), of sorted rows ang
    whose values lie in bins cls.

    A bin's values split into clusters where a step exceeds VALUE_RESOLUTION;
    such a step is a finite gap, and bin and row edges are infinite ones.
    _merge_clusters removes gaps one at a time, the smallest qualifying one
    first.  Without ties its result has a closed form, taken here for every
    gap count at once.  A cluster's nearer gap is its left one if strictly
    smaller, else its right one.
    (i) A singleton, and a cluster of two whose nearer gap is at most
        2 * VALUE_RESOLUTION, removes its nearer gap.
    (ii) Two adjacent singletons whose nearer gaps are the gap between them
        form a pair, which then removes its nearer outer gap if that is at
        most 2 * VALUE_RESOLUTION.
    A cluster of three or more never proposes a gap, and a cluster's other
    gap can go before its nearer one only if the two are equal, or, for a
    pair, if its outer gaps are; so every removal above happens, and no
    other.  A bin holding equal finite gaps one or two apart takes its count
    from _merge_clusters instead, given its clusters' left gaps and sizes.
    """
    far = 2.0 * VALUE_RESOLUTION
    n, width = ang.shape
    flat, cls = ang.ravel(), cls.ravel()
    # the step before each value, inf at a bin or row edge
    before = np.empty(len(flat))
    np.subtract(flat[1:], flat[:-1], out=before[1:])
    before[np.flatnonzero(cls[1:] != cls[:-1]) + 1] = np.inf
    before[::width] = np.inf
    start = np.flatnonzero(before > VALUE_RESOLUTION)
    left = before[start]
    right = np.empty_like(left)
    right[:-1] = left[1:]
    right[-1] = np.inf
    size = np.empty_like(start)
    np.subtract(start[1:], start[:-1], out=size[:-1])
    size[-1] = len(flat) - start[-1]
    take_left = left < right
    near = np.minimum(left, right)
    one = size == 1
    rule_i = (one & (near < np.inf)) | ((size == 2) & (near <= far))
    # alive[c]: the gap left of cluster c stays, so c adds a distinct angle;
    # under (i), c removes it by taking its left gap, c - 1 its right one
    alive = ~(rule_i & take_left)
    alive[1:] &= ~(rule_i[:-1] & ~take_left[:-1])
    # (ii): singletons c and c + 1, each nearest the other
    pair = np.flatnonzero(one[:-1] & one[1:] & ~take_left[:-1] & take_left[1:])
    outer_l, outer_r = left[pair], right[pair + 1]
    go = np.minimum(outer_l, outer_r) <= far
    alive[(pair + 2 * (outer_l >= outer_r))[go]] = False
    keep = start[alive]
    counts = np.bincount(keep // width * nbins + cls[keep],
                         minlength=n * nbins)
    # equal finite gaps one or two apart in one bin
    finite = left < np.inf
    tie = np.zeros(len(start), dtype=bool)
    tie[1:] = finite[1:] & (left[1:] == left[:-1])
    tie[2:] |= finite[2:] & finite[1:-1] & (left[2:] == left[:-2])
    if tie.any():
        run = np.cumsum(~finite)
        sel = np.isin(run, run[tie])
        first = start[sel][~finite[sel]]
        counts[first // width * nbins + cls[first]] = _merge_clusters(
            left[sel], size[sel])
    return counts.reshape(n, nbins)


def _merge_clusters(gaps, sizes):
    """Distinct-angle count of each bin of clusters: gaps holds each
    cluster's gap before it, inf for a bin's first cluster, and sizes its
    member count, the bins' clusters concatenated in order.

    A cluster needs at least three members, or a separation of more than twice
    VALUE_RESOLUTION from its neighbours, to count as its own distinct angle;
    smaller nearby clusters are measurement tails and fold into the nearest
    neighbour.  (Every same-bin splitting among the reference geometries has
    multiplicity >= 4 or separation >= 4 degrees, so ideal neighbourhoods are
    never over-merged.)  Each round removes one gap from every bin still
    merging: a cluster of size <= 2 is a candidate with its smaller gap (the
    right one on a tie); it qualifies with size 1 or a gap <= 2 *
    VALUE_RESOLUTION; the first smallest qualifying gap merges.  A bin with
    no qualifying candidate is done, and counts its clusters left.
    """
    far = 2.0 * VALUE_RESOLUTION
    count = np.diff(np.append(np.flatnonzero(gaps == np.inf), len(gaps)))
    live = np.arange(len(count))
    while len(live):
        n = count[live]
        head = np.cumsum(n) - n
        # the next bin's first gap is inf, so right stays within the bin
        right = np.append(gaps[1:], np.inf)
        take_left = gaps < right
        near = np.minimum(gaps, right)
        near[(sizes > 2) | ((sizes == 2) & (near > far))] = np.inf
        best = np.minimum.reduceat(near, head)
        go = best < np.inf
        # the first cluster of each bin that proposes its smallest gap
        at = np.arange(len(near))
        at[near != np.repeat(best, n)] = len(near)
        c = np.minimum.reduceat(at, head)[go]
        # clusters b and b + 1 become one, and the gap between them goes;
        # finished bins leave
        b = c - take_left[c]
        sizes[b] += sizes[b + 1]
        keep = np.repeat(go, n)
        keep[b + 1] = False
        gaps, sizes = gaps[keep], sizes[keep]
        live = live[go]
        count[live] -= 1
    return count


def classify_particles(kk, fcounts, cat_k, cat_f):
    """Label particles with the nearest catalog geometry under d_E.

    Returns catalog indices (-1 where k < 2) and distances (NaN there); ties
    go to the lowest catalog index.
    """
    n = len(kk)
    labels = np.full(n, -1, dtype=np.int64)
    dists = np.full(n, np.nan)
    sel = np.flatnonzero(kk >= 2)
    d = distances(kk[sel], fcounts[sel], cat_k, cat_f)
    labels[sel] = np.argmin(d, axis=1)
    dists[sel] = d[np.arange(len(sel)), labels[sel]]
    return labels, dists
