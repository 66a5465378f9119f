import math

import numpy as np
import pytest

import coordgeo as cg
from coordgeo.snapshot import (Frame, auto_cutoff, classify, make_lattice,
                               neighbours_cutoff, per_particle_e, read_frames,
                               write_frames)


def test_read_minimal_two_line_xyz(tmp_path):
    p = tmp_path / "one.xyz"
    p.write_text("1\nX 0.0 0.0 0.0\n")
    frames = read_frames(p)
    assert len(frames) == 1
    assert frames[0].n == 1
    assert frames[0].box is None


def test_read_multi_frame_order(tmp_path):
    p = tmp_path / "two.xyz"
    p.write_text("1\nframe one\nA 0 0 0\n1\nframe two\nB 1 2 3\n")
    frames = read_frames(p)
    assert len(frames) == 2
    assert frames[0].species == ["A"]
    assert frames[1].species == ["B"]
    assert np.allclose(frames[1].positions, [[1, 2, 3]])


def test_extxyz_roundtrip(tmp_path):
    box = np.diag([4.0, 5.0, 6.0])
    rng = np.random.default_rng(0)
    fr = Frame(positions=rng.uniform(0, 4, size=(17, 3)), box=box,
               species=["Cu"] * 17)
    p = tmp_path / "t.extxyz"
    write_frames(p, [fr])
    back = read_frames(p)
    assert len(back) == 1
    assert np.allclose(back[0].box, box)
    assert np.allclose(back[0].positions, fr.positions, atol=1e-9)
    assert back[0].species == fr.species


def test_read_malformed_header(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("nonsense\nmore\n")
    with pytest.raises(ValueError, match="bad.xyz:1"):
        read_frames(p)


def test_read_truncated_frame(tmp_path):
    p = tmp_path / "trunc.xyz"
    p.write_text("5\ncomment\nX 0 0 0\n")
    with pytest.raises(ValueError, match="truncated"):
        read_frames(p)


def test_neighbours_fcc_first_shell():
    fr = make_lattice("fcc", 4)  # a = 1, first shell at 1/sqrt(2)
    nl = neighbours_cutoff(fr, 0.85)
    assert set(nl.counts.tolist()) == {12}


def test_neighbours_bcc_two_shells():
    fr = make_lattice("bcc", 4)
    nl = neighbours_cutoff(fr, 1.2)  # past the 2nd shell (1.0), below sqrt(2)
    assert set(nl.counts.tolist()) == {14}


def test_neighbours_single_particle():
    fr = Frame(positions=np.zeros((1, 3)))
    nl = neighbours_cutoff(fr, 1.0)
    assert nl.counts.tolist() == [0]


def test_neighbours_rcut_validation():
    fr = make_lattice("sc", 3)
    with pytest.raises(ValueError):
        neighbours_cutoff(fr, -1.0)
    with pytest.raises(ValueError, match="half"):
        neighbours_cutoff(fr, 2.0)  # box is 3x3x3


def test_cell_equals_brute_random():
    rng = np.random.default_rng(42)
    for trial in range(6):
        n = int(rng.integers(20, 200))
        box = np.diag(rng.uniform(4.0, 7.0, size=3))
        fr = Frame(positions=rng.uniform(0.0, 4.0, size=(n, 3)),
                   box=box if trial % 2 == 0 else None)
        rcut = float(rng.uniform(0.7, 1.5))
        a = neighbours_cutoff(fr, rcut, method="cell")
        b = neighbours_cutoff(fr, rcut, method="brute")
        assert np.array_equal(a.starts, b.starts)
        assert np.array_equal(a.indices, b.indices)


def test_per_particle_e_ideal_lattices(catalog, discretizer):
    for kind, rcut, expect in (("fcc", 0.85, 4.044), ("hcp", 1.2, 3.459),
                               ("bcc", 1.2, 3.923), ("sc", 1.2, 2.907)):
        fr = make_lattice(kind, 3)
        nl = neighbours_cutoff(fr, rcut)
        e, kk, mm = per_particle_e(fr, nl, discretizer)
        assert np.all(np.isfinite(e)), kind
        assert np.allclose(e, expect, atol=0.0005), kind
        assert np.ptp(e) < 1e-12  # constant across interior particles


def test_per_particle_low_k_flagged(discretizer):
    fr = Frame(positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    nl = neighbours_cutoff(fr, 1.5)
    e, kk, mm = per_particle_e(fr, nl, discretizer)
    assert np.all(np.isnan(e))
    assert kk.tolist() == [1, 1]


def test_classify_ideal_lattices(catalog, discretizer):
    for kind, rcut in (("fcc", 0.85), ("bcc", 1.2), ("sc", 1.2), ("hcp", 1.2)):
        fr = make_lattice(kind, 4)
        nl = neighbours_cutoff(fr, rcut)
        labels, dists = classify(fr, nl, catalog, discretizer)
        assert set(labels) == {kind.upper()}, kind
        assert np.nanmax(dists) == 0.0, kind


@pytest.mark.parametrize("code", cg.CODES)
def test_classify_isolated_ideal_neighbourhood(catalog, discretizer, code):
    g = catalog.get(code)
    pos = np.vstack([[0.0, 0.0, 0.0], g.vertices])
    rmax = float(np.linalg.norm(g.vertices, axis=1).max())
    fr = Frame(positions=pos)
    nl = neighbours_cutoff(fr, rmax + 1e-6)
    labels, dists = classify(fr, nl, catalog, discretizer)
    assert labels[0] == code
    assert dists[0] == 0.0


def test_noisy_fcc_majority(catalog, discretizer):
    nn = 1.0 / math.sqrt(2.0)
    fr = make_lattice("fcc", 4, noise=0.01 * nn / math.sqrt(3.0), seed=9)
    nl = neighbours_cutoff(fr, 0.85)
    labels, _ = classify(fr, nl, catalog, discretizer)
    frac = sum(1 for s in labels if s == "FCC") / fr.n
    assert frac >= 0.95


def test_coincident_particles_rejected(catalog, discretizer):
    fr = make_lattice("fcc", 3)
    pos = np.vstack([fr.positions, fr.positions[5]])
    dup = Frame(positions=pos, box=fr.box)
    nl = neighbours_cutoff(dup, 0.85)
    with pytest.raises(ValueError, match="particle 5 coincides with particle 108"):
        per_particle_e(dup, nl, discretizer)
    with pytest.raises(ValueError, match="particle 5 coincides"):
        classify(dup, nl, catalog, discretizer)


def test_auto_cutoff_fcc():
    fr = make_lattice("fcc", 5, noise=0.004, seed=1)
    rc = auto_cutoff(fr)
    assert 1.0 / math.sqrt(2.0) < rc < 1.0  # between first and second shells


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(positions=np.array([[np.nan, 0, 0]]))
    with pytest.raises(ValueError):
        Frame(positions=np.zeros((2, 3)), box=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Frame(positions=np.zeros((2, 3)), species=["A"])


def test_hcp_lattice_geometry():
    fr = make_lattice("hcp", 3)
    nl = neighbours_cutoff(fr, 1.2)
    assert set(nl.counts.tolist()) == {12}
