"""Kernels: the cell list against the brute-force reference, the batched angle
profile and classification against per-particle reference loops, the
vectorised distinct-angle merge against the one-bin reference loop, and the
invariance of profiles and labels under rigid motions and relabelling."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coordgeo import kernels
from coordgeo.coefficients import descriptor_arrays
from coordgeo.snapshot import make_lattice

from references import brute_neighbour_csr, cell_neighbour_csr


@pytest.fixture(scope="module")
def setup(catalog, discretizer):
    # 3 x 5 x 5 cells at rcut 1.2
    fr = make_lattice("hcp", 4, noise=0.004, seed=4)
    cat = descriptor_arrays(catalog.geometries, discretizer)
    return fr, discretizer.bin_edges, cat


def _cell_list_vs_brute(pos, box, rcut):
    """The cell list's CSR equals the brute force."""
    s1, i1 = cell_neighbour_csr(pos, box, rcut)
    s2, i2 = brute_neighbour_csr(pos, box, rcut)
    assert np.array_equal(s1, s2)
    assert np.array_equal(i1, i2)


def test_neighbour_backends_agree(setup):
    fr, _, _ = setup
    # the open frame spans 3.5 along x: 3 cells there at rcut 1.1
    for box, rcut in ((fr.box, 1.2), (None, 1.1)):
        _cell_list_vs_brute(fr.positions, box, rcut)
    # a periodic slab two cells thick
    slab = make_lattice("fcc", (6, 6, 2), noise=0.004, seed=5)
    _cell_list_vs_brute(slab.positions, slab.box, 0.85)
    # a cutoff far below the spacing, where cells of the cutoff would
    # outnumber the particles, so the grid's bound on its total binds
    box = np.diag([8.0, 7.0, 9.0])
    pos = np.random.default_rng(6).uniform(0.0, 1.0, size=(150, 3)) @ box
    assert (kernels._perpendicular_widths(box) // 0.5).prod() > len(pos)
    for b in (box, None):
        assert cell_neighbour_csr(pos, b, 0.5)[0][-1] > 0
        _cell_list_vs_brute(pos, b, 0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 150),
       periodic=st.booleans(), cells=st.integers(1, 5),
       slack=st.floats(0.01, 0.99), tilt=st.floats(-0.5, 0.5))
def test_cell_list_equals_brute_force(seed, n, periodic, cells, slack, tilt):
    """Triclinic boxes and open frames with 1 to 5 cells on the narrowest axis."""
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(3.0, 8.0, size=3)
    box = np.diag(lengths)
    box[np.tril_indices(3, -1)] = tilt * lengths[0] * rng.uniform(-1, 1, 3)
    # fractional positions partly outside [0, 1), so wrapping is exercised
    pos = rng.uniform(-0.3, 1.3, size=(n, 3)) @ box
    if periodic:
        width = kernels._perpendicular_widths(box).min()
    else:
        width = float(np.ptp(pos, axis=0).min())
    assume(width > 0.0)
    # the narrowest axis gets `cells` cells of at least rcut
    rcut = width / (cells + slack)
    _cell_list_vs_brute(pos, box if periodic else None, rcut)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 150),
       periodic=st.booleans(), cells=st.integers(1, 5),
       slack=st.floats(0.01, 0.99), tilt=st.floats(-0.5, 0.5))
def test_pairs_within_yields_each_pair_once(seed, n, periodic, cells, slack,
                                            tilt):
    """Triclinic boxes and open frames with 1 to 5 cells on the narrowest
    axis: every pair within rcut is yielded once, as i < j, with r2 bitwise
    _pair_r2 of (i, j) in input order; and each candidate reaches _pair_r2
    once, in order, so no pair is evaluated from both ends."""
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(3.0, 8.0, size=3)
    box = np.diag(lengths)
    box[np.tril_indices(3, -1)] = tilt * lengths[0] * rng.uniform(-1, 1, 3)
    pos = rng.uniform(-0.3, 1.3, size=(n, 3)) @ box
    if periodic:
        width = kernels._perpendicular_widths(box).min()
    else:
        width = float(np.ptp(pos, axis=0).min())
        box = None
    assume(width > 0.0)
    rcut = width / (cells + slack)
    pair_r2 = kernels._pair_r2
    seen = []

    def recorded(cols, i, j, box, inv):
        seen.append((i, j))
        return pair_r2(cols, i, j, box, inv)

    with mock.patch.object(kernels, "_pair_r2", side_effect=recorded):
        i, j, r2 = (np.concatenate(c) for c in
                    zip(*kernels.pairs_within(pos, box, rcut)))
    assert (i < j).all()
    starts, idx = brute_neighbour_csr(pos, box, rcut)
    owner = np.repeat(np.arange(n), np.diff(starts))
    want = np.sort((owner * n + idx)[owner < idx])
    assert np.array_equal(np.sort(i * n + j), want)
    inv = None if box is None else np.linalg.inv(box)
    assert r2.tobytes() == pair_r2(pos.T.copy(), i, j, box, inv).tobytes()
    p, q = (np.concatenate(c) for c in zip(*seen))
    assert (p < q).all()
    assert len(np.unique(p * n + q)) == len(p)


def _grid(pos, box, rcut):
    """The cells per axis of cell_neighbour_csr's one pair search, and the
    frame's widths: the box's perpendicular widths, or an open extent."""
    grids = []
    flat = kernels._flat

    def recorded(cell, ncell):
        grids.append(ncell.copy())
        return flat(cell, ncell)

    with mock.patch.object(kernels, "_flat", side_effect=recorded):
        cell_neighbour_csr(pos, box, rcut)
    (ncell,) = grids
    if box is None:
        return ncell, np.ptp(pos, axis=0)
    return ncell, kernels._perpendicular_widths(box)


@pytest.mark.parametrize("case", ["dilute", "far", "slab", "compact"])
def test_cell_grid_is_bounded_by_particle_count(case):
    """Every grid holds at most one cell per particle, each cell at least
    rcut wide (or alone on its axis), and a compact frame gets cells of the
    cutoff on each axis, however many there are: one cell more would be
    narrower than rcut."""
    rcut = 1.0 if case == "dilute" else 0.85
    if case == "dilute":
        box = 1000.0 * np.eye(3)
        pos = np.random.default_rng(0).uniform(0.0, 1000.0, size=(20, 3))
    elif case == "far":
        box = None
        pos = np.array([[0.0, 0, 0], [1e200, 0, 0], [1e300, 0, 0]])
    else:
        fr = make_lattice("fcc", (70, 70, 2) if case == "slab" else 20,
                          noise=0.005, seed=1)
        pos, box = fr.positions, fr.box
    ncell, width = _grid(pos, box, rcut)
    assert ncell.prod() <= len(pos)
    assert ((width / ncell >= rcut) | (ncell == 1)).all()
    if case in ("slab", "compact"):
        assert (width / (ncell + 1) < rcut).all()


def test_wide_slab_scans_as_few_candidates_as_a_narrow_one():
    """A periodic FCC slab two cells thick scans as many candidates per
    particle at 70 x 70 cells as at 30 x 30: its cells stay those of the
    cutoff, not widened by a cap on cells per axis."""
    def per_particle(cells):
        fr = make_lattice("fcc", cells, noise=0.005, seed=1)
        counts = []
        pair_r2 = kernels._pair_r2

        def counted(cols, i, j, box, inv):
            counts.append(len(i))
            return pair_r2(cols, i, j, box, inv)

        with mock.patch.object(kernels, "_pair_r2", side_effect=counted):
            cell_neighbour_csr(fr.positions, fr.box, 0.85)
        return sum(counts) / fr.n

    wide, narrow = per_particle((70, 70, 2)), per_particle((30, 30, 2))
    assert abs(wide - narrow) < 0.1 * narrow


def test_dilute_frame_search_memory_is_bounded_by_particles():
    """20 particles in a periodic 1000^3 box at rcut 1 allocate tables for
    at most one cell per particle, not for a fixed grid of cells."""
    import tracemalloc

    pos = np.random.default_rng(0).uniform(0.0, 1000.0, size=(20, 3))
    tracemalloc.start()
    try:
        starts, _ = cell_neighbour_csr(pos, 1000.0 * np.eye(3), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(starts) == 21
    assert peak < 0.5e6


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _pair_r2_full(pos, i, j, box, inv):
    """Reference: minimum-image r2 with every term of both 3 x 3 products."""
    d = [pos[i, c] - pos[j, c] for c in range(3)]
    f = [_dot3(d, inv[:, c]) for c in range(3)]
    for x in f:
        x -= np.rint(x)
    d = [_dot3(f, box[:, c]) for c in range(3)]
    return _dot3(d, d)


def test_pair_r2_skips_zero_box_entries_bitwise():
    """Skipping the zero entries of box and inv leaves every r2 bit as the
    full products give it, zero sums of either sign included."""
    rot = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))[0]
    lower = np.diag([4.0, 5.0, 6.0])
    lower[np.tril_indices(3, -1)] = [0.7, -1.1, 0.4]
    one_zero = lower.copy()
    one_zero[2, 1] = 0.0
    signed_zero = np.diag([4.0, 5.0, 6.0])
    signed_zero[0, 1] = signed_zero[2, 0] = -0.0
    boxes = {"diagonal": np.diag([4.0, 5.0, 6.0]), "triclinic": lower @ rot,
             "one zero off-diagonal": one_zero, "-0.0 entry": signed_zero}
    rng = np.random.default_rng(8)
    for name, box in boxes.items():
        # a lattice (exact zero differences), random points, and points
        # within 0.05 of the faces, whose pairs straddle the boundary
        frac = np.vstack([np.stack(np.meshgrid(*[np.arange(4) / 4] * 3),
                                   axis=-1).reshape(-1, 3),
                          rng.uniform(0.0, 1.0, size=(60, 3)),
                          rng.uniform(-0.05, 0.05, size=(60, 3)) % 1.0])
        pos = frac @ box
        n = len(pos)
        inv = np.linalg.inv(box)
        assert (inv == 0.0).any() or name == "triclinic"
        i, j = np.arange(n)[:, None], np.arange(n)[None, :]
        want = _pair_r2_full(pos, i, j, box, inv)
        got = kernels._pair_r2(pos.T.copy(), i, j, box, inv)
        assert got.tobytes() == want.tobytes(), name
        # one-dimensional index arrays, as the cell list passes them
        i, j = np.nonzero(np.ones((n, n), dtype=bool))
        got = kernels._pair_r2(pos.T.copy(), i, j, box, inv)
        assert got.tobytes() == want.ravel().tobytes(), name
        # some pairs are nearer through the boundary than directly
        assert (want < ((pos[:, None] - pos[None, :]) ** 2).sum(axis=2)).any()


def test_profile_counts_sum_to_m(setup):
    fr, edges, _ = setup
    # m is the row sum of the counts by construction; the open frame adds an
    # isolated particle (k = 0) and an isolated pair (k = 1)
    lone = np.vstack([fr.positions, [[50.0, 0, 0], [0, 50.0, 0], [0, 50.5, 0]]])
    for pos, box in ((fr.positions, fr.box), (lone, None)):
        starts, idx = cell_neighbour_csr(pos, box, 1.2)
        kk, fcounts = kernels.profile_particles(pos, box, starts, idx, edges)
        assert np.all(fcounts[kk >= 2].sum(axis=1) >= 1)
        assert not fcounts[kk < 2].any()
    assert list(kk[-3:]) == [0, 1, 1]


def _count_clusters(vals):
    """Reference distinct-angle merge: the clusters among the sorted values of
    one bin, merged one gap at a time.

    Values chain-merge when consecutive gaps stay within VALUE_RESOLUTION.  A
    cluster needs at least three members, or a separation of more than twice
    VALUE_RESOLUTION from its neighbours, to count as its own distinct angle;
    smaller nearby clusters fold into the nearest neighbour.
    """
    res = kernels.VALUE_RESOLUTION
    bounds = [t for t in range(1, len(vals)) if vals[t] - vals[t - 1] > res]
    far = 2.0 * res
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


def _profile_loop(pos, box, starts, idx, edges):
    """Reference profile_particles: one particle at a time."""
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    edges = np.ascontiguousarray(edges, dtype=np.float64)
    n = len(pos)
    kk = np.diff(starts).astype(np.int64)
    fcounts = np.zeros((n, len(edges) + 1), dtype=np.int64)
    inv = None if box is None else np.linalg.inv(box)
    for i in range(n):
        k = kk[i]
        if k == 0:
            continue
        nbrs = idx[starts[i]:starts[i + 1]]
        vec = pos[nbrs] - pos[i]
        if box is not None:
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
        for c in np.unique(cls):
            fcounts[i, c] = _count_clusters(ang[cls == c])
    return kk, fcounts


def _assert_profile_as_loop(pos, box, rcut, edges):
    starts, idx = cell_neighbour_csr(pos, box, rcut)
    args = (pos, box, starts, idx, edges)
    try:
        ref = _profile_loop(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            kernels.profile_particles(*args)
        assert str(got.value) == str(exc)
        return None
    kk, fcounts = kernels.profile_particles(*args)
    assert kk.tobytes() == ref[0].tobytes()
    assert fcounts.tobytes() == ref[1].tobytes()
    return kk


_LATTICE_RCUT = {"fcc": 0.85, "bcc": 1.2, "hcp": 1.2}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 150),
       periodic=st.booleans(), tilt=st.floats(-0.5, 0.5),
       reach=st.floats(0.3, 2.5), twins=st.sampled_from((0, 0, 0, 1, 2)))
def test_profile_equals_particle_loop_random(setup, seed, n, periodic, tilt,
                                             reach, twins):
    """Random triclinic and open frames, k from 0 up, coincident particles."""
    _, edges, _ = setup
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(3.0, 8.0, size=3)
    box = np.diag(lengths)
    box[np.tril_indices(3, -1)] = tilt * lengths[0] * rng.uniform(-1, 1, 3)
    pos = rng.uniform(-0.3, 1.3, size=(n, 3)) @ box
    # `twins` particles placed exactly on others, raising in both functions
    pos = np.vstack([pos, pos[rng.integers(0, n, size=twins)]])
    rcut = reach * (abs(np.linalg.det(box)) / len(pos)) ** (1 / 3)
    if periodic:
        rcut = min(rcut, 0.49 * kernels._perpendicular_widths(box).min())
    kk = _assert_profile_as_loop(pos, box if periodic else None, rcut, edges)
    assert (kk is None) == (twins > 0)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_LATTICE_RCUT)), noise=st.floats(0.0, 0.08),
       seed=st.integers(0, 2 ** 16), periodic=st.booleans())
def test_profile_equals_particle_loop_lattices(setup, kind, noise, seed,
                                               periodic):
    """Noisy FCC, BCC and HCP; the open copy adds particles with k = 0 and 1."""
    _, edges, _ = setup
    fr = make_lattice(kind, 3, noise=noise, seed=seed)
    pos = fr.positions
    if not periodic:
        pos = np.vstack([pos, [[50.0, 0, 0], [0, 50.0, 0], [0, 50.5, 0]]])
    kk = _assert_profile_as_loop(pos, fr.box if periodic else None,
                                 _LATTICE_RCUT[kind], edges)
    assert (kk >= 2).any()
    if not periodic:
        assert list(kk[-3:]) == [0, 1, 1] and len(set(kk.tolist())) > 2


def test_profile_coincident_message(setup):
    """The lowest offending particle and its first zero-length neighbour."""
    fr, edges, _ = setup
    pos = fr.positions
    # particle 5 gets two twins at the end, then comes a coincident lone pair
    pos = np.vstack([pos, pos[[5, 5]], [[50.0, 0, 0], [50.0, 0, 0]]])
    starts, idx = cell_neighbour_csr(pos, None, 1.2)
    args = (pos, None, starts, idx, edges)
    n = len(fr.positions)
    msg = re.escape(f"particle 5 coincides with particle {n} (zero-length bond)")
    with pytest.raises(ValueError, match=msg):
        _profile_loop(*args)
    with pytest.raises(ValueError, match=msg):
        kernels.profile_particles(*args)
    # the k = 1 pair alone still raises
    starts, idx = cell_neighbour_csr(pos[-2:], None, 1.2)
    with pytest.raises(ValueError, match="particle 0 coincides with particle 1"):
        kernels.profile_particles(pos[-2:], None, starts, idx, edges)


_RES = kernels.VALUE_RESOLUTION


def _next_value(prev, step):
    """A float v with v - prev == step exactly where one lies within a few
    ulps of prev + step, else prev + step: steps of exactly VALUE_RESOLUTION
    or twice it, and equal left and right gaps, reach the merge as such where
    the magnitude of the values allows."""
    v = prev + step
    for _ in range(4):
        if v - prev == step:
            return v
        v = np.nextafter(v, np.inf if v - prev < step else -np.inf)
    return prev + step


def _sorted_values(base, clusters):
    """Sorted values from (gap before, member steps) per cluster; the first
    cluster's gap is ignored."""
    vals = [base]
    for c, (gap, steps) in enumerate(clusters):
        if c:
            vals.append(_next_value(vals[-1], gap))
        for step in steps:
            vals.append(_next_value(vals[-1], step))
    return vals


def _merged_counts(lists):
    """Distinct-angle count of each sorted list through one _distinct_counts
    call: the lists side by side in one row, each in a bin of its own."""
    ang = np.concatenate([np.asarray(v, dtype=np.float64) for v in lists])
    cls = np.repeat(np.arange(len(lists)), [len(v) for v in lists])
    return kernels._distinct_counts(ang[None, :], cls[None, :], len(lists))[0]


# gaps between clusters: both thresholds exactly, values just past them, and
# repeats, so that equal left and right gaps are common
_GAP = st.one_of(st.sampled_from((_RES, 2 * _RES, 1.5, 2.0, 2.4000000001, 3.0)),
                 st.floats(_RES, 4 * _RES, exclude_min=True))
# steps inside a cluster: equal values, exactly VALUE_RESOLUTION (not a gap)
_STEP = st.one_of(st.sampled_from((0.0, 0.3, _RES)), st.floats(0.0, _RES))
_CLUSTER = st.tuples(_GAP, st.lists(_STEP, max_size=3))
# near 0 the threshold steps come out exact
_BASE = st.one_of(st.just(0.0), st.floats(-3.0, 120.0))
_VALUES = st.builds(_sorted_values, _BASE,
                    st.lists(_CLUSTER, min_size=1, max_size=13))


@settings(max_examples=300, deadline=None)
@given(lists=st.lists(_VALUES, min_size=1, max_size=8))
def test_merge_equals_reference_random(lists):
    """Clusters of 1 to 4 members, up to 12 gaps, single clusters, threshold
    gaps and ties, merged in one call with mixed gap counts."""
    ref = [_count_clusters(vals) for vals in lists]
    assert _merged_counts(lists).tolist() == ref


# one list per gap count G = 1..10, as (gap before, member steps) per cluster
_FIXED = [
    # a singleton beside a triple merges into it
    [(0, [0.5, 0.5]), (2.0, [])],
    # a singleton between equal gaps takes the right one
    [(0, [0.2, 0.2]), (1.5, []), (1.5, [0.1, 0.1])],
    # a pair more than 2 * RES from both neighbours stays distinct
    [(0, [0.1, 0.1]), (3.0, [0.4]), (3.5, [0.3, 0.3]), (5.0, [0.1, 0.1])],
    # so do pairs separated by more than 2 * RES from each other
    [(0, [0.2]), (2.5, [0.2]), (3.0, [0.2]), (2.5, [0.2]), (4.0, [0.2])],
    # a chain of singletons collapses into one cluster
    [(0, []), (1.3, []), (1.4, []), (1.25, []), (1.6, []), (1.5, [])],
    # triples never merge, whatever their gaps
    [(0, [0.1, 0.1])] + [(1.3, [0.1, 0.1])] * 6,
    # singletons among triples fold in, even 6 degrees away
    [(0, [0.1, 0.1]), (1.3, []), (1.5, [0.1, 0.1]), (2.0, []), (1.7, [0.1, 0.1]),
     (3.0, []), (2.9, [0.1, 0.1]), (6.0, [])],
    # a first and a last singleton, each with one finite gap, among pairs
    [(0, []), (2.6, [0.2, 0.2]), (1.3, [0.3]), (1.3, [0.3]), (2.7, [0.2, 0.2]),
     (1.9, [1.0]), (1.9, [1.0]), (4.0, [0.2, 0.2]), (3.3, [])],
    # pairs 1.8 apart merge until the clusters are large enough
    [(0, [1.0])] + [(1.8, [1.0])] * 9,
    # alternating singletons and pairs with rising gaps all fold into one
    [(0, [])] + [(1.3 + 0.1 * c, [0.2] * (c % 2)) for c in range(10)],
]
_FIXED_COUNTS = [1, 2, 4, 5, 1, 7, 4, 5, 5, 1]


def test_merge_fixed_cases_by_gap_count():
    """One list for each gap count from 1 to 10, against the reference and
    against its count."""
    lists = [_sorted_values(10.0, clusters) for clusters in _FIXED]
    ngaps = [sum(b - a > _RES for a, b in zip(v, v[1:])) for v in lists]
    assert ngaps == list(range(1, 11))
    ref = [_count_clusters(vals) for vals in lists]
    assert ref == _FIXED_COUNTS
    assert _merged_counts(lists).tolist() == ref
    # and one list at a time
    assert [_merged_counts([v])[0] for v in lists] == ref


def test_merge_thresholds_exact():
    """Values around 0, where the steps are exact: a step of exactly
    VALUE_RESOLUTION is no gap, a pair exactly 2 * VALUE_RESOLUTION away
    merges, and a singleton between equal gaps joins its right neighbour."""
    up, down = np.nextafter(_RES, np.inf), np.nextafter(-2 * _RES, -np.inf)
    cases = [
        ([-0.2, -0.1, 0.0, _RES, 1.3, 1.4], 1),
        ([-0.2, -0.1, 0.0, up, 1.3, 1.4], 2),
        ([-2 * _RES - 0.1, -2 * _RES, 0.0, 0.1, 0.2], 1),
        ([down - 0.1, down, 0.0, 0.1, 0.2], 2),
        # the singleton at 0 makes the right pair a triple, which stays
        ([-1.7, -1.6, -1.5, 0.0, 1.5, 1.6, 3.6, 3.7, 3.8], 3),
        # the singleton at -3 takes the left of two equal gaps first, so the
        # pair it makes stays more than 2 * VALUE_RESOLUTION from the triple
        ([-6.7, -6.6, -6.5, -3.0, 0.0, 3.0, 3.1, 3.2], 3),
    ]
    assert cases[0][0][3] - cases[0][0][2] == _RES
    assert cases[2][0][2] - cases[2][0][1] == 2 * _RES
    assert 0.0 - (-1.5) == 1.5 - 0.0
    assert 0.0 - (-3.0) == 3.0 - 0.0
    lists = [vals for vals, _ in cases]
    expected = [count for _, count in cases]
    assert [_count_clusters(vals) for vals in lists] == expected
    assert _merged_counts(lists).tolist() == expected


# up to 30 gaps, all distinct, from the float range of _GAP
_DISTINCT_GAPS = st.lists(st.floats(_RES, 4 * _RES, exclude_min=True),
                          min_size=1, max_size=30, unique=True)


@settings(max_examples=200, deadline=None)
@given(gaps=_DISTINCT_GAPS, base=_BASE,
       members=st.lists(st.lists(_STEP, max_size=3), min_size=31, max_size=31))
def test_merge_without_ties_is_closed_form(gaps, base, members):
    """Lists whose gaps all differ take no round of _merge_clusters and still
    equal the reference."""
    clusters = list(zip([0.0] + gaps, members))
    vals = _sorted_values(base, clusters)
    found = [b - a for a, b in zip(vals, vals[1:]) if b - a > _RES]
    assume(len(set(found)) == len(found))
    with mock.patch.object(kernels, "_merge_clusters") as rounds:
        got = _merged_counts([vals])[0]
    assert not rounds.called
    assert got == _count_clusters(vals)


def test_tied_bins_take_the_rounds():
    """A bin holding equal gaps one or two apart goes through _merge_clusters;
    a tie three apart, or across a bin edge, does not.  The rounds give 5 for
    the pairs 1.8 apart, where the closed form would merge them all into one,
    and 3 for the second list, where it would give 2."""
    ends = [(0, [0.1, 0.1])]
    lists = [_sorted_values(10.0, clusters) for clusters in [
        _FIXED[8],
        # a pair between equal outer gaps, the left one taken first by the
        # singleton beyond it: a tie two apart
        ends + [(2.3, []), (2.0, []), (1.5, []), (2.0, [0.1, 0.1])],
        # the same gaps with one more singleton between: three apart
        ends + [(2.3, []), (2.0, []), (1.5, []), (1.6, []), (2.0, [0.1, 0.1])],
        # a gap of 2.0 last here and first in the next bin
        ends + [(1.5, []), (2.0, [0.1, 0.1])],
        ends + [(2.0, []), (1.4, [0.1, 0.1])],
    ]]
    ref = [_count_clusters(vals) for vals in lists]
    assert ref[:2] == [5, 3]
    with mock.patch.object(kernels, "_merge_clusters",
                           wraps=kernels._merge_clusters) as rounds:
        assert _merged_counts(lists).tolist() == ref
    (gaps, sizes), _ = rounds.call_args
    # each bin's first cluster has no gap before it
    head = np.flatnonzero(gaps == np.inf)
    ngaps = np.diff(np.append(head, len(gaps))) - 1
    assert rounds.call_count == 1 and ngaps.tolist() == [9, 4]
    assert len(sizes) == len(gaps)
    # the two tied bins take their counts from the rounds alone
    def sentinel(gaps, _):
        return np.full(np.count_nonzero(gaps == np.inf), -1)

    with mock.patch.object(kernels, "_merge_clusters", side_effect=sentinel):
        assert _merged_counts(lists).tolist() == [-1, -1] + ref[2:]


def _classify_loop(kk, fcounts, cat_k, cat_f):
    """Reference classify_particles: one particle at a time."""
    cat_k = np.asarray(cat_k, dtype=np.float64)
    cat_f = np.asarray(cat_f, dtype=np.int64)
    cat_m = cat_f.sum(axis=1).astype(np.float64)
    mm = fcounts.sum(axis=1)
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


def _assert_classify_as_loop(kk, fcounts, cat):
    labels, dists = kernels.classify_particles(kk, fcounts, *cat)
    ref_labels, ref_dists = _classify_loop(kk, fcounts, *cat)
    assert np.array_equal(labels, ref_labels)
    assert dists.tobytes() == ref_dists.tobytes()


def test_classify_equals_particle_loop(setup):
    """Noisy and ideal lattices, thin-shell particles with k < 2, exact ties."""
    _, edges, cat = setup
    for kind, rcut, noise in (("fcc", 0.85, 0.0), ("bcc", 1.2, 0.0),
                              ("sc", 1.2, 0.0), ("hcp", 1.2, 0.0),
                              ("fcc", 0.85, 0.03), ("bcc", 0.9, 0.05)):
        fr = make_lattice(kind, 3, noise=noise, seed=7)
        starts, idx = cell_neighbour_csr(fr.positions, fr.box, rcut)
        kk, fcounts = kernels.profile_particles(fr.positions, fr.box, starts,
                                                idx, edges)
        _assert_classify_as_loop(kk, fcounts, cat)
    # small random descriptors, k of 0 and 1 among them
    rng = np.random.default_rng(3)
    kk = rng.integers(0, 15, size=400)
    fcounts = rng.integers(0, 3, size=(400, len(edges) + 1))
    fcounts[kk < 2] = 0
    # exact ties: two catalog rows with equal k and m are equally far from
    # the union of their class counts (for PBP and CTP no row is nearer)
    cat_k, cat_f = cat
    cat_m = cat_f.sum(axis=1)
    pairs = [(g, h) for g in range(len(cat_k)) for h in range(g)
             if cat_k[g] == cat_k[h] and cat_m[g] == cat_m[h]]
    assert pairs
    kk = np.concatenate([kk, [cat_k[g] for g, _ in pairs]])
    fcounts = np.vstack([fcounts] + [np.maximum(cat_f[g], cat_f[h])
                                     for g, h in pairs])
    labels, dists = kernels.classify_particles(kk, fcounts, *cat)
    assert np.array_equal(labels < 0, kk < 2)
    assert (labels[-len(pairs):] == [h for _, h in pairs]).any()
    _assert_classify_as_loop(kk, fcounts, cat)


def _margin(pos, box, rcut, edges):
    """How far the frame sits from every decision the profile makes: pair
    distances from rcut, angles from the bin edges, and same-bin gaps from
    VALUE_RESOLUTION and twice it (the merge thresholds)."""
    inv = None if box is None else np.linalg.inv(box)
    n = len(pos)
    r = np.sqrt(kernels._pair_r2(pos.T.copy(), np.arange(n)[:, None],
                                 np.arange(n)[None, :], box, inv))
    out = [np.abs(r[~np.eye(n, dtype=bool)] - rcut).min()]
    for i in range(n):
        vec = pos[np.flatnonzero((r[i] <= rcut) & (np.arange(n) != i))] - pos[i]
        if box is not None:
            f = vec @ inv
            vec = (f - np.rint(f)) @ box
        if len(vec) < 2:
            continue
        vec /= np.linalg.norm(vec, axis=1)[:, None]
        ang = np.sort(np.degrees(np.arccos(np.clip(
            (vec @ vec.T)[np.triu_indices(len(vec), 1)], -1.0, 1.0))))
        cls = np.searchsorted(edges, ang)
        gap = np.diff(ang)[np.diff(cls) == 0]
        out += [np.abs(ang[:, None] - edges).min(),
                np.abs(gap - kernels.VALUE_RESOLUTION).min(initial=np.inf),
                np.abs(gap - 2 * kernels.VALUE_RESOLUTION).min(initial=np.inf)]
    return min(out)


def _profile_and_labels(pos, box, rcut, edges, cat):
    starts, idx = cell_neighbour_csr(pos, box, rcut)
    kk, fcounts = kernels.profile_particles(pos, box, starts, idx, edges)
    return kk, fcounts, kernels.classify_particles(kk, fcounts, *cat)[0]


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(_LATTICE_RCUT)), noise=st.floats(0.005, 0.05),
       seed=st.integers(0, 2 ** 16), periodic=st.booleans(),
       shift=st.tuples(*[st.floats(-20.0, 20.0)] * 3))
def test_profile_invariant_under_motion_and_relabelling(setup, kind, noise, seed,
                                                        periodic, shift):
    """Rotation, translation and permutation of a noisy lattice leave k, the
    counts and the labels unchanged (permuted along), away from bin edges."""
    _, edges, cat = setup
    fr = make_lattice(kind, 3, noise=noise, seed=seed)
    rcut = _LATTICE_RCUT[kind]
    box = fr.box if periodic else None
    assume(_margin(fr.positions, box, rcut, edges) > 1e-6)
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.sign(np.linalg.det(rot))
    perm = rng.permutation(fr.n)
    ref = _profile_and_labels(fr.positions, box, rcut, edges, cat)
    moved = _profile_and_labels((fr.positions @ rot.T + shift)[perm],
                                None if box is None else box @ rot.T, rcut,
                                edges, cat)
    for a, b in zip(ref, moved):
        assert np.array_equal(a[perm], b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                min_size=1, max_size=50))
def test_bond_lengths_equal_linalg_norm(vectors):
    """The profile's bond lengths are np.linalg.norm(axis=1) bit for bit,
    also where a component's square overflows to inf or underflows."""
    vec = np.array(vectors, dtype=np.float64)
    edge = np.array([[1e200, 1e200, 1.0], [1e155, 1e155, 1e155],
                     [1e-200, 3e-170, 0.0], [-0.0, 0.0, -0.0],
                     [np.finfo(float).max, 0.0, 0.0]])
    for v in (vec, edge, np.ascontiguousarray(vec[::-1])):
        with np.errstate(over="ignore", under="ignore"):
            assert (kernels._norms(v.copy()).tobytes()
                    == np.linalg.norm(v, axis=1).tobytes())
