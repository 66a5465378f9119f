"""Reference implementations that only the tests call: the O(N^2) neighbour
search that the cell list must equal, and one SMACOF run from one start."""

import numpy as np

from coordgeo.kernels import _pair_r2
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


def smacof(d, x0, max_iter, rtol):
    """One SMACOF run from x0; returns (coords, stress trace, converged)."""
    x, trace, converged = _smacof_stack(d, x0[None], max_iter, rtol)[0]
    return x, trace.tolist(), converged
