"""Kernels: the cell list against the brute-force reference, profile invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coordgeo import kernels
from coordgeo.snapshot import _edges_and_catalog, make_lattice


@pytest.fixture(scope="module")
def setup(catalog, discretizer):
    # 3 x 5 x 5 cells at rcut 1.2, so the cell list runs (not the brute force
    # kept for boxes under 3 cells per axis)
    fr = make_lattice("hcp", 4, noise=0.004, seed=4)
    edges, cat = _edges_and_catalog(catalog, discretizer)
    return fr, edges, cat


def _cell_list_vs_brute(pos, box, periodic, rcut):
    """neighbour_csr and the brute force on one frame; True if the cell list ran."""
    with mock.patch.object(kernels, "_np_neighbour_pairs",
                           wraps=kernels._np_neighbour_pairs) as brute:
        s1, i1 = kernels.neighbour_csr(pos, box, periodic, rcut)
    s2, i2 = kernels._np_neighbour_pairs(pos, box, periodic, rcut)
    assert np.array_equal(s1, s2)
    assert np.array_equal(i1, i2)
    return not brute.called


def test_neighbour_backends_agree(setup):
    fr, _, _ = setup
    # the open frame spans 3.5 along x, so 3 cells need rcut < 3.5 / 3
    for periodic, rcut in ((True, 1.2), (False, 1.1)):
        assert _cell_list_vs_brute(fr.positions, fr.box, periodic, rcut), periodic


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 150),
       periodic=st.booleans(), cells=st.integers(2, 5),
       slack=st.floats(0.01, 0.99), tilt=st.floats(-0.5, 0.5))
def test_cell_list_equals_brute_force(seed, n, periodic, cells, slack, tilt):
    """Triclinic boxes and open frames, on both sides of the 3-cell rule."""
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
    assert _cell_list_vs_brute(pos, box, periodic, rcut) == (cells >= 3)


def test_profile_counts_sum_to_m(setup):
    fr, edges, _ = setup
    starts, idx = kernels.neighbour_csr(fr.positions, fr.box, True, 1.2)
    kk, mm, fcounts = kernels.profile_particles(fr.positions, fr.box, True,
                                                starts, idx, edges)
    assert np.array_equal(fcounts.sum(axis=1), mm)
    assert np.all(mm[kk >= 2] >= 1)
