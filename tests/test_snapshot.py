import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coordgeo as cg
from coordgeo import kernels, snapshot
from coordgeo.snapshot import (Frame, auto_cutoff, iter_frames, make_lattice,
                               neighbours_cutoff, write_frames)

from references import (brute_neighbour_csr, cell_neighbour_csr,
                        histogram_counts, lattice_loop)


def test_read_minimal_two_line_xyz(tmp_path):
    p = tmp_path / "one.xyz"
    p.write_text("1\nX 0.0 0.0 0.0\n")
    frames = list(iter_frames(p))
    assert len(frames) == 1
    assert frames[0].n == 1
    assert frames[0].box is None


def test_read_multi_frame_order(tmp_path):
    p = tmp_path / "two.xyz"
    p.write_text("1\nframe one\nA 0 0 0\n1\nframe two\nB 1 2 3\n")
    frames = list(iter_frames(p))
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
    back = list(iter_frames(p))
    assert len(back) == 1
    assert np.allclose(back[0].box, box)
    assert np.allclose(back[0].positions, fr.positions, atol=1e-9)
    assert back[0].species == fr.species


def test_write_format_is_checked(tmp_path):
    p = tmp_path / "out.xyz"
    with pytest.raises(ValueError, match="unknown format 'bogus'"):
        write_frames(p, [make_lattice("fcc", 1)], fmt="bogus")
    assert not p.exists()


def test_write_extxyz_refuses_a_boxless_frame(tmp_path):
    p = tmp_path / "out.extxyz"
    frames = [make_lattice("fcc", 1), Frame(positions=np.zeros((1, 3)))]
    with pytest.raises(ValueError, match="frame 1 has no box"):
        write_frames(p, frames, fmt="extxyz")
    assert not p.exists()
    write_frames(p, frames[:1], fmt="extxyz")
    assert list(iter_frames(p, fmt="extxyz"))[0].box is not None


@pytest.mark.parametrize("species, where", [
    (["Cu a", "Cu"], "particle 0: species 'Cu a'"),
    (["Cu", ""], "particle 1: species ''"),
], ids=["blank-inside", "empty"])
def test_write_refuses_a_species_the_reader_cannot_split(tmp_path, species, where):
    p = tmp_path / "sp.xyz"
    frame = Frame(positions=[[0.0, 0, 0], [1.0, 0, 0]], species=species)
    with pytest.raises(ValueError, match=f"frame 1: {where} is empty or holds whitespace"):
        write_frames(p, [make_lattice("fcc", 1), frame])
    assert not p.exists()


def test_read_malformed_header(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("nonsense\nmore\n")
    with pytest.raises(ValueError, match="bad.xyz:1"):
        list(iter_frames(p))


def test_read_truncated_frame(tmp_path):
    p = tmp_path / "trunc.xyz"
    p.write_text("5\ncomment\nX 0 0 0\n")
    with pytest.raises(ValueError, match="truncated"):
        list(iter_frames(p))


@pytest.mark.parametrize("text, where, what", [
    ("2\nc\nX 0 0 0\nX abc 0 0\n", 4, "could not convert string to float: 'abc'"),
    ('1\nLattice="1 0 0 0 1 0 0 0 1\nX 0 0 0\n', 2, "unterminated Lattice entry"),
    ('1\nLattice="1 0 0 0 1 0 0 0\" x\nX 0 0 0\n', 2, "9 numbers"),
    ('1\nLattice="1 0 0 0 1 0 0 0 q"\nX 0 0 0\n', 2, "could not convert"),
    ('1\nLattice="1 0 0 0 1 0 0 0 0"\nX 0 0 0\n', 2, "singular periodic box"),
    ('1\nLattice="3 nan 0 0 3 0 0 0 3"\nX 0 0 0\n', 2, "non-finite periodic box"),
    ('1\nLattice="3 0 0 0 inf 0 0 0 3"\nX 0 0 0\n', 2, "non-finite periodic box"),
    ('1\nLattice="1e300 0 0 0 1e300 0 0 0 1e300"\nX 0 0 0\n', 2,
     "periodic box overflows"),
    ("1\nc\nX 0 0 0\n2\nc\nX 0 0 0\nX 0 nan 0\n", 7, "non-finite coordinates"),
    ("1\nc\nX 0 0 0\n2\nc\nX 0 0 0\nX 0 inf\n", 7, "expected 'symbol x y z'"),
    ("1\nc\nX 0 0 0\n\n0\nc\n", 5, "positive atom count"),
    ("2\nX 0 0 0\nX 1 0 nan\n", 3, "non-finite coordinates"),
    ('1\nLattice="3 0 0 0 3 0 0 0 3" pbc="T T F"\nX 0 0 0\n', 2,
     "mixed pbc flags 'T T F'"),
    ('1\nLattice="3 0 0 0 3 0 0 0 3" pbc="T T"\nX 0 0 0\n', 2, "3 flags T or F"),
    ('1\npbc="T T T"\nX 0 0 0\n', 2, "without a Lattice entry"),
    ('1\nLattice="3 0 0 0 3 0 0 0 3" pbc="F F F\nX 0 0 0\n', 2,
     "unterminated pbc entry"),
    ("3\n\nX -1e308 0 0\nX 1e308 0 0\nX 0 1 0\n", 2,
     "the open frame's extent overflows"),
    # x y z are read from columns 2-4, whatever the Properties entry says
    ("1\nProperties=species:S:1:mass:R:1:pos:R:3\nX 12.0 0.2 0 0\n", 2,
     "'species:S:1:mass:R:1:pos:R:3' has pos at column 3"),
    ("1\nProperties=pos:R:3:species:S:1\n0 0 0 X\n", 2, "has pos at column 1"),
    ("1\nProperties=id:I:1:species:S:1:pos:R:3\n1 X 0 0 0\n", 2,
     "has pos at column 3"),
    (b"1\nc\nX 0 0 \xff0\n", 3, "could not convert string to float"),
], ids=["float", "unterminated-lattice", "short-lattice", "lattice-float",
        "singular-box", "nan-box", "inf-box", "overflow-box", "nan",
        "short-record",
        "zero-count", "nan-no-comment", "mixed-pbc", "short-pbc",
        "pbc-without-lattice", "unterminated-pbc", "overflow-open",
        "mass-before-pos", "pos-first", "id-before-species", "not-utf8"])
def test_read_errors_name_the_line(tmp_path, text, where, what):
    p = tmp_path / "bad.xyz"
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    # a numpy warning on the way would be raised instead of the ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"bad.xyz:{where}: .*{what}"):
            list(iter_frames(p))


def test_read_properties_with_later_columns(tmp_path):
    """ASE's layout reads with or without columns after pos, quoted or not."""
    p = tmp_path / "forces.extxyz"
    for props in ("species:S:1:pos:R:3:forces:R:3", '"species:S:1:pos:R:3"'):
        p.write_text(f'2\nLattice="4 0 0 0 4 0 0 0 4" Properties={props} '
                     f'energy=-1.5\nCu 0.5 1 1.5 0.1 0.2 0.3\nAu 2 2.5 3 0 0 0\n')
        fr = list(iter_frames(p))[0]
        assert fr.species == ["Cu", "Au"]
        assert np.array_equal(fr.positions, [[0.5, 1, 1.5], [2, 2.5, 3]])
        assert np.array_equal(fr.box, 4.0 * np.eye(3))


def test_read_format_is_checked(tmp_path):
    p = tmp_path / "one.xyz"
    p.write_text('1\nLattice="3 0 0 0 3 0 0 0 3"\nX 0 0 0\n')
    assert list(iter_frames(p, fmt="xyz"))[0].box is None
    assert list(iter_frames(p, fmt="auto"))[0].box is not None
    assert list(iter_frames(p, fmt="extxyz"))[0].box is not None
    for fmt in ("bogus", "extended-xyz"):
        with pytest.raises(ValueError, match="unknown format"):
            list(iter_frames(p, fmt=fmt))
    p.write_text("1\nno box\nX 0 0 0\n")
    with pytest.raises(ValueError, match="one.xyz:2: missing Lattice"):
        list(iter_frames(p, fmt="extxyz"))


def test_read_pbc_flags(tmp_path):
    """pbc="T T T" keeps the Lattice box and "F F F" gives an open frame, so
    two particles 0.4 apart across a face of the cell are no neighbours.
    Keys that merely end in Lattice or pbc are other entries."""
    p = tmp_path / "pbc.extxyz"
    for flags, box in (("T T T", 10.0 * np.eye(3)), ("F F F", None),
                       ("True True True", 10.0 * np.eye(3))):
        p.write_text(f'2\nOrigLattice="1 0 0 0 1 0 0 0 1" mypbc="T T F" '
                     f'Lattice="10 0 0 0 10 0 0 0 10" pbc="{flags}"\n'
                     f"X 0.2 0 0\nX 9.8 0 0\n")
        for fmt in ("auto", "extxyz"):
            fr = list(iter_frames(p, fmt=fmt))[0]
            assert (fr.box is None) == (box is None)
            assert box is None or np.array_equal(fr.box, box)
            k = neighbours_cutoff(fr, 1.0).counts.tolist()
            assert k == ([0, 0] if box is None else [1, 1])


def test_iter_frames_is_lazy(tmp_path):
    p = tmp_path / "two.xyz"
    p.write_text("1\nfirst\nA 0 0 0\n3\nsecond\nB 1 2 3\n")
    frames = iter_frames(p)
    first = next(frames)
    assert first.species == ["A"]
    with pytest.raises(ValueError, match="two.xyz:4: frame truncated"):
        next(frames)


def test_suspended_reader_holds_no_lines(tmp_path):
    """While its frame is in use, the suspended iter_frames holds none of the
    frame's lines: closing it releases only the file's buffers.

    32 000 particles, 1.36 MB of text a frame: closing the generator released
    13 kB (1 % of the text) with numpy 2.4, against 3.5 MB (2.6 times the
    text) when its locals kept the line list; the bound is 5 %.
    """
    import tracemalloc

    fr = make_lattice("fcc", 20, noise=0.01, seed=1)
    p = tmp_path / "two.extxyz"
    write_frames(p, [fr, fr])
    text = p.stat().st_size / 2
    tracemalloc.start()
    try:
        frames = iter_frames(p)
        first = next(frames)
        held = tracemalloc.get_traced_memory()[0]
        frames.close()
        released = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert first.n == 32000
    assert released < 0.05 * text


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
    # an open frame has no half-width check: only the value itself stops inf
    for frame in (fr, Frame(positions=fr.positions, box=None)):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                neighbours_cutoff(frame, bad)
    with pytest.raises(ValueError, match="half"):
        neighbours_cutoff(fr, 2.0)  # box is 3x3x3


def test_neighbours_open_frame_diagonal():
    # at the bounding-box diagonal every particle neighbours all N - 1 others
    pos = make_lattice("sc", 3).positions
    diagonal = math.sqrt(12.0)  # corners (0, 0, 0) and (2, 2, 2)
    for big in (diagonal, 1e9):
        with pytest.raises(ValueError, match="diagonal"):
            neighbours_cutoff(Frame(positions=pos), big)
    nl = neighbours_cutoff(Frame(positions=pos), 0.999 * diagonal)
    # below it, only the 8 corners miss one particle, the opposite corner
    assert np.bincount(nl.counts).tolist()[25:] == [8, 19]
    # two particles span the diagonal yet keep k = 1: no label for them
    pair = Frame(positions=[[0.0, 0, 0], [1.0, 0, 0]])
    assert neighbours_cutoff(pair, 1e9).counts.tolist() == [1, 1]


def test_cell_equals_brute_random():
    rng = np.random.default_rng(42)
    for trial in range(6):
        n = int(rng.integers(20, 200))
        box = np.diag(rng.uniform(4.0, 7.0, size=3))
        fr = Frame(positions=rng.uniform(0.0, 4.0, size=(n, 3)),
                   box=box if trial % 2 == 0 else None)
        rcut = float(rng.uniform(0.7, 1.5))
        a = neighbours_cutoff(fr, rcut)
        starts, indices = brute_neighbour_csr(fr.positions, fr.box, rcut)
        assert np.array_equal(a.starts, starts)
        assert np.array_equal(a.indices, indices)


def test_per_particle_e_ideal_lattices(analyze):
    for kind, rcut, expect in (("fcc", 0.85, 4.044), ("hcp", 1.2, 3.459),
                               ("bcc", 1.2, 3.923), ("sc", 1.2, 2.907)):
        fr = make_lattice(kind, 3)
        nl = neighbours_cutoff(fr, rcut)
        e, kk, mm = analyze(fr, nl)[:3]
        assert np.all(np.isfinite(e)), kind
        assert np.allclose(e, expect, atol=0.0005), kind
        assert np.ptp(e) < 1e-12  # constant across interior particles


def test_per_particle_low_k_flagged(analyze):
    fr = Frame(positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    nl = neighbours_cutoff(fr, 1.5)
    e, kk, mm, labels, dists = analyze(fr, nl)
    assert np.all(np.isnan(e))
    assert kk.tolist() == [1, 1]
    assert mm.tolist() == [0, 0]
    assert labels == ["-", "-"]
    assert np.all(np.isnan(dists))


def test_classify_ideal_lattices(analyze):
    for kind, rcut in (("fcc", 0.85), ("bcc", 1.2), ("sc", 1.2), ("hcp", 1.2)):
        fr = make_lattice(kind, 4)
        nl = neighbours_cutoff(fr, rcut)
        labels, dists = analyze(fr, nl)[3:]
        assert set(labels) == {kind.upper()}, kind
        assert np.nanmax(dists) == 0.0, kind


@pytest.mark.parametrize("code", cg.CODES)
def test_classify_isolated_ideal_neighbourhood(catalog, analyze, code):
    g = catalog.get(code)
    pos = np.vstack([[0.0, 0.0, 0.0], g.vertices])
    rmax = float(np.linalg.norm(g.vertices, axis=1).max())
    fr = Frame(positions=pos)
    nl = neighbours_cutoff(fr, rmax + 1e-6)
    labels, dists = analyze(fr, nl)[3:]
    assert labels[0] == code
    assert dists[0] == 0.0


def test_noisy_fcc_majority(analyze):
    nn = 1.0 / math.sqrt(2.0)
    fr = make_lattice("fcc", 4, noise=0.01 * nn / math.sqrt(3.0), seed=9)
    nl = neighbours_cutoff(fr, 0.85)
    labels, _ = analyze(fr, nl)[3:]
    frac = sum(1 for s in labels if s == "FCC") / fr.n
    assert frac >= 0.95


def test_coincident_particles_rejected(analyze):
    fr = make_lattice("fcc", 3)
    pos = np.vstack([fr.positions, fr.positions[5]])
    dup = Frame(positions=pos, box=fr.box)
    nl = neighbours_cutoff(dup, 0.85)
    with pytest.raises(ValueError, match="particle 5 coincides with particle 108"):
        analyze(dup, nl)


def test_auto_cutoff_fcc():
    fr = make_lattice("fcc", 5, noise=0.004, seed=1)
    rc, _ = auto_cutoff(fr)
    assert 1.0 / math.sqrt(2.0) < rc < 1.0  # between first and second shells


def _rdf_rmax(frame):
    if frame.box is not None:
        return 0.499 * kernels._perpendicular_widths(frame.box).min()
    span = frame.positions.max(axis=0) - frame.positions.min(axis=0)
    return float(np.linalg.norm(span)) / 2.0 or 1e-9


def _rdf_bins(frame):
    """200 bins out to rmax, or bins of a twentieth of the mean spacing when
    rmax spans more than 10 spacings; at most one bin per particle."""
    if frame.box is not None:
        volume = abs(np.linalg.det(frame.box))
    else:
        volume = float(np.prod(np.ptp(frame.positions, axis=0)))
    spacing = (volume / frame.n) ** (1.0 / 3.0)
    rmax = _rdf_rmax(frame)
    if spacing == 0.0 or rmax <= 10 * spacing:
        return 200
    return min(math.ceil(20 * rmax / spacing), max(200, frame.n))


def _auto_cutoff_loop(frame):
    """Reference auto_cutoff: a neighbour list at the full radius, then every
    pair distance recomputed in a loop over particles."""
    rmax = _rdf_rmax(frame)
    starts, indices = brute_neighbour_csr(frame.positions, frame.box, rmax)
    dists = []
    inv = np.linalg.inv(frame.box) if frame.box is not None else None
    for i in range(frame.n):
        js = indices[starts[i]:starts[i + 1]]
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
    hist, edges = np.histogram(r, bins=_rdf_bins(frame), range=(0.0, rmax))
    centers = 0.5 * (edges[:-1] + edges[1:])
    g = hist / centers ** 2
    g = np.convolve(g, np.ones(5) / 5.0, mode="same")
    peak = int(np.argmax(g))
    for i in range(peak + 1, len(g) - 1):
        if g[i] <= g[i - 1] and g[i] < g[i + 1]:
            return float(centers[i])
    return float(centers[min(peak + len(g) // 10, len(g) - 1)])


@pytest.fixture
def searches(monkeypatch):
    """The radii of every kernels.pairs_within search, in call order."""
    radii = []
    search = kernels.pairs_within

    def recorded(pos, box, rcut):
        radii.append(rcut)
        return search(pos, box, rcut)

    monkeypatch.setattr(kernels, "pairs_within", recorded)
    return radii


def _spacing(frame):
    """The mean spacing (V/N)^(1/3), V the box or bounding-box volume."""
    if frame.box is not None:
        volume = abs(np.linalg.det(frame.box))
    else:
        volume = float(np.prod(np.ptp(frame.positions, axis=0)))
    return (volume / frame.n) ** (1.0 / 3.0)


def _check_searches(frame, radii, r_cut=None):
    """The pair searches of one auto_cutoff call: reaches RDF_CAP * s * 2^k,
    k increasing, clipped to rmax, which comes only last; unless the first
    reach, below rmax, held the cutoff r_cut (None when auto_cutoff raised),
    one more search at r_cut."""
    rmax = _rdf_rmax(frame)
    if r_cut is not None and len(radii) > 1:
        assert radii[-1] == r_cut
        radii = radii[:-1]
    else:
        assert r_cut is None or radii[0] < rmax
    reach = snapshot.RDF_CAP * _spacing(frame)
    reaches = {reach * 2.0 ** k for k in range(64)} | {rmax}
    assert radii and radii == sorted(set(radii))
    assert all(r in reaches and r <= rmax for r in radii)


def _check_pairs(frame, r_cut, pairs):
    """auto_cutoff's pairs are exactly the neighbour lists at its cutoff, and
    neighbours_cutoff builds from them the lists of its own search.  The
    chunks are read twice, so a one-shot iterator of them fails here."""
    starts, idx = kernels.pairs_csr(frame.n, pairs)
    ref_starts, ref_idx = cell_neighbour_csr(frame.positions, frame.box,
                                             r_cut)
    assert np.array_equal(starts, ref_starts)
    assert np.array_equal(idx, ref_idx)
    given = neighbours_cutoff(frame, r_cut, pairs)
    searched = neighbours_cutoff(frame, r_cut)
    assert given.starts.tobytes() == searched.starts.tobytes()
    assert given.indices.tobytes() == searched.indices.tobytes()


def test_auto_cutoff_equals_particle_loop(searches):
    """Noisy lattices with and without their box, and random frames."""
    frames = []
    for kind, cells in (("fcc", 4), ("bcc", 5), ("hcp", 3), ("sc", 5)):
        for noise in (0.01, 0.05):
            fr = make_lattice(kind, cells, noise=noise, seed=2)
            frames += [fr, Frame(positions=fr.positions)]
    # 8 cells along x at rmax: the cell list prunes candidates; without its
    # box, rmax spans 10.9 mean spacings, so the bins are a fixed width in
    # spacings
    long = make_lattice("fcc", (12, 3, 3), noise=0.02, seed=3)
    frames += [long, Frame(positions=long.positions)]
    assert _rdf_bins(frames[-1]) > 200
    rng = np.random.default_rng(11)
    for n in (2, 40, 300):
        box = np.diag(rng.uniform(3.0, 6.0, size=3))
        box[1, 0] = 0.4 * box[0, 0]
        pos = rng.uniform(0.0, 1.0, size=(n, 3)) @ box
        frames += [Frame(positions=pos, box=box), Frame(positions=pos)]
    # nearly flat: rmax spans millions of spacings, so the bins stop at one
    # per particle
    sheet = Frame(positions=np.c_[np.indices((8, 8)).reshape(2, -1).T,
                                  1e-12 * rng.uniform(size=64)])
    assert _rdf_bins(sheet) == 200
    frames.append(sheet)
    frames.append(Frame(positions=np.zeros((1, 3))))
    # melts: 4-10 % of the nearest-neighbour distance, the capped search
    # alone must answer, with the full search's cutoff
    melts = []
    for kind, cells, nn, level in (("fcc", 5, 2 ** -0.5, 0.04),
                                   ("hcp", (5, 3, 3), 1.0, 0.07),
                                   ("bcc", 6, 3 ** 0.5 / 2, 0.10)):
        fr = make_lattice(kind, cells, noise=level * nn, seed=4)
        melts += [fr, Frame(positions=fr.positions)]

    def outcome(fn, fr):
        try:
            return fn(fr)
        except ValueError as exc:  # no pair within the radius
            return str(exc)

    for fr, melt in [(fr, False) for fr in frames] + [(fr, True) for fr in melts]:
        searches.clear()
        got = outcome(auto_cutoff, fr)
        assert (got if isinstance(got, str) else got[0]) == \
            outcome(_auto_cutoff_loop, fr)
        _check_searches(fr, searches, None if isinstance(got, str) else got[0])
        if melt:
            assert len(searches) == 1 and searches[0] < _rdf_rmax(fr)
        if not isinstance(got, str):
            _check_pairs(fr, *got)
    assert outcome(auto_cutoff, frames[-1]).startswith("no pairs found")


def test_auto_cutoff_bins_a_fixed_width_in_spacings(searches):
    """Noisy FCC gets one cutoff, to one bin, at N = 4000 and N = 48 668,
    where rmax spans 7.9 and 18.2 mean spacings.  With RDF_BINS bins out to
    rmax whatever its span, the larger frame took a second-shell cutoff of
    0.947."""
    cuts, widths = [], []
    for cells in (10, 23):
        fr = make_lattice("fcc", cells, noise=0.03, seed=1)
        searches.clear()
        rc, pairs = auto_cutoff(fr)
        assert len(searches) == 1  # the first reach holds the minimum
        cuts.append(rc)
        widths.append(_rdf_rmax(fr) / _rdf_bins(fr))
    assert _rdf_bins(fr) > snapshot.RDF_BINS
    assert abs(cuts[1] - cuts[0]) <= max(widths)
    assert all(0.85 < rc < 0.88 for rc in cuts)


@pytest.mark.parametrize("scale", [1e-10, 1e-8, 1e-5, 1e4])
def test_cutoff_and_labels_do_not_depend_on_the_unit(analyze, scale):
    """A noisy FCC frame, with its box and without, scaled by `scale`: the
    same cutoff in the frame's units, within rounding, and the same labels."""
    fr = make_lattice("fcc", 6, noise=0.05, seed=2)
    for frame in (fr, Frame(positions=fr.positions)):
        rc, pairs = auto_cutoff(frame)
        labels = analyze(frame, neighbours_cutoff(frame, rc, pairs))[3]
        box = None if frame.box is None else frame.box * scale
        scaled = Frame(positions=frame.positions * scale, box=box)
        rc_s, pairs_s = auto_cutoff(scaled)
        assert rc_s / scale == pytest.approx(rc, rel=1e-12)
        nl = neighbours_cutoff(scaled, rc_s, pairs_s)
        assert analyze(scaled, nl)[3] == labels


def _analyze_with_budget(budget, analyze, frame, nl):
    """analyze_frame's results under kernels._BUDGET = budget, and the row
    blocks, checked to cover every row in order within the budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BUDGET", budget)
        blocks = list(kernels.row_blocks(nl.starts))
        result = analyze(frame, nl)
    bounds = [lo for lo, _ in blocks] + [blocks[-1][1]]
    assert bounds == sorted(set(bounds)) and bounds[0] == 0
    assert bounds[-1] == frame.n
    for lo, hi in blocks:
        cost = hi - lo + nl.starts[hi] - nl.starts[lo]
        assert cost <= budget or hi == lo + 1
    return len(blocks), result


def _random_frames():
    """Random triclinic frames with and without their box, k from 0 up."""
    rng = np.random.default_rng(21)
    for n, reach in ((1, 1.0), (2, 3.0), (40, 0.6), (90, 1.3), (150, 2.2)):
        lengths = rng.uniform(3.0, 6.0, size=3)
        box = np.diag(lengths)
        box[np.tril_indices(3, -1)] = 0.3 * lengths[0] * rng.uniform(-1, 1, 3)
        pos = rng.uniform(0.0, 1.0, size=(n, 3)) @ box
        rcut = min(reach * (abs(np.linalg.det(box)) / n) ** (1 / 3),
                   0.49 * kernels._perpendicular_widths(box).min())
        yield Frame(positions=pos, box=box), rcut
        if n >= 3:
            yield Frame(positions=pos), rcut
    # a noisy crystal with isolated particles and a lone pair: k 0, 1, 12
    fr = make_lattice("fcc", 3, noise=0.02, seed=3)
    yield Frame(positions=np.vstack([fr.positions, [[50.0, 0, 0], [0, 50.0, 0],
                                                   [0, 50.5, 0]]])), 0.85


def test_analyze_frame_does_not_depend_on_the_row_blocks(analyze):
    """Blocks of at most 7 rows plus bonds give every output bit of one block."""
    mixed = 0
    for frame, rcut in _random_frames():
        nl = neighbours_cutoff(frame, rcut)
        one, whole = _analyze_with_budget(1 << 30, analyze, frame, nl)
        many, small = _analyze_with_budget(7, analyze, frame, nl)
        assert one == 1
        assert many > 1 or frame.n + len(nl.indices) <= 7
        e, kk, mm, labels, dists = small
        assert e.tobytes() == whole[0].tobytes()
        assert kk.tobytes() == whole[1].tobytes()
        assert mm.tobytes() == whole[2].tobytes()
        assert labels == whole[3]
        assert dists.tobytes() == whole[4].tobytes()
        mixed += (kk < 2).any() and (kk >= 2).any()
    assert mixed >= 3


def test_coincident_pair_across_row_blocks(analyze):
    """The lowest offending particle is named whichever block holds it."""
    fr = make_lattice("fcc", 2, noise=0.02, seed=5)
    for box in (fr.box, None):
        # 9 twinned at the end, 20 twinned with 30; then a coincident lone pair
        pos = np.vstack([fr.positions, fr.positions[[9]],
                         [[50.0, 0, 0], [50.0, 0, 0]]])
        pos[30] = pos[20]
        dup = Frame(positions=pos, box=box)
        nl = neighbours_cutoff(dup, 0.85 if box is not None else 0.9)
        msgs = []
        for budget in (1 << 30, 7, 40):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_BUDGET", budget)
                blocks = list(kernels.row_blocks(nl.starts))
                with pytest.raises(ValueError) as err:
                    analyze(dup, nl)
            msgs.append(str(err.value))
            if budget == 7:  # rows 9 and 32 lie in different blocks
                assert not any(lo <= 9 < 32 < hi for lo, hi in blocks)
        assert msgs == ["particle 9 coincides with particle 32 "
                        "(zero-length bond)"] * 3
    lone = Frame(positions=[[0.0, 0, 0], [2.0, 0, 0], [0.0, 0, 0]])
    nl = neighbours_cutoff(lone, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BUDGET", 1)
        with pytest.raises(ValueError, match="particle 0 coincides with particle 2"):
            analyze(lone, nl)


def test_analyze_frame_working_set_is_bounded(analyze):
    """The tracemalloc peak of one frame's analysis (numpy's allocations are
    traced) stays within a fixed number of bytes per particle.

    Noisy FCC of N = 32 000 at r_cut 0.85: measured 473 B per particle
    (15.1 MB, of which about 13 MB is one row block's working set) with
    numpy 2.4; the bound is that value with a margin of one half.  Profiling
    the frame in one piece took 2993 B per particle.
    """
    import tracemalloc

    fr = make_lattice("fcc", 20, noise=0.03, seed=1)
    nl = neighbours_cutoff(fr, 0.85)
    tracemalloc.start()
    try:
        result = analyze(fr, nl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result[3]) == fr.n == 32000
    assert peak < 710 * fr.n


def test_auto_cutoff_working_set_is_bounded():
    """The tracemalloc peak of auto_cutoff stays within a fixed number of
    bytes per particle: each kept chunk of pairs is cut at r_cut before the
    chunks are joined.

    Noisy FCC of N = 32 000 (about 17 pairs per particle within reach, 6
    within r_cut): measured 575 B per particle with numpy 2.4, against 1004 B
    when every chunk was joined first; the bound is 800 B.
    """
    import tracemalloc

    fr = make_lattice("fcc", 20, noise=0.03, seed=1)
    tracemalloc.start()
    try:
        r_cut, pairs = auto_cutoff(fr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.85 < r_cut < 0.88 and sum(len(i) for i, _ in pairs) == 192032
    assert peak < 800 * fr.n


def _parse_loop(atoms):
    """Reference reader: species and float() of the columns, line by line."""
    species, pos = [], []
    for line in atoms:
        parts = line.split()
        species.append(parts[0])
        pos.append([float(parts[1]), float(parts[2]), float(parts[3])])
    return species, np.array(pos)


def test_reader_parses_as_the_line_loop():
    """Random well-formed atom lines: the parsed positions and species equal
    the line loop's bit for bit."""
    rng = np.random.default_rng(17)
    formats = ("{:.10f}", "{!r}", "{:.3e}", "{:.17g}", "{:g}", "{:.0f}")
    names = ("X", "Cu", "O", "Si1", "H_2", "Zr-a")
    for n in (1, 2, 7, 300):
        x = rng.normal(scale=10.0 ** rng.integers(-8, 9, size=(n, 3)))
        x[rng.random(size=x.shape) < 0.05] = 0.0
        atoms = []
        for row in x:
            cols = [formats[rng.integers(len(formats))].format(float(v))
                    for v in row]
            sep = (" ", "  ", "\t", " \t ")[rng.integers(4)]
            extra = rng.integers(3) * " 0.5"
            atoms.append(sep.join([names[rng.integers(len(names))]] + cols)
                         + extra + "\n")
        species, pos = snapshot._parse_atoms("f.xyz", 3, atoms)
        ref_species, ref_pos = _parse_loop(atoms)
        assert species == ref_species
        assert pos.shape == (n, 3) and pos.tobytes() == ref_pos.tobytes()
        fast = np.loadtxt(atoms, usecols=(1, 2, 3), comments=None, ndmin=2)
        assert fast.tobytes() == ref_pos.tobytes()


def test_reader_falls_back_to_the_line_loop(tmp_path):
    """What float() accepts and numpy's parser refuses still reads."""
    p = tmp_path / "odd.xyz"
    p.write_text("2\n\nX 1_0 0 0\nY 0 2 3\n")
    fr = list(iter_frames(p))[0]
    assert fr.species == ["X", "Y"]
    assert fr.positions.tolist() == [[10.0, 0.0, 0.0], [0.0, 2.0, 3.0]]
    p.write_text("2\n\nX 1 0 0\n\n")
    with pytest.raises(ValueError, match="odd.xyz:4: expected 'symbol x y z'"):
        list(iter_frames(p))


def _clusters(m=3):
    """16 particles within 0.05 of each site of a periodic m x m x m grid of
    spacing 1: from the first peak to the first reach, at 0.79, the RDF is
    empty."""
    rng = np.random.default_rng(5)
    sites = np.stack(np.meshgrid(*[np.arange(float(m))] * 3, indexing="ij"),
                     axis=-1).reshape(-1, 1, 3)
    blob = rng.normal(size=(16, 3))
    blob *= 0.05 * rng.uniform(0.2, 1.0, size=(16, 1)) / np.linalg.norm(
        blob, axis=1, keepdims=True)
    return Frame(positions=(sites + blob).reshape(-1, 3), box=m * np.eye(3))


def _random_gas(n):
    rng = np.random.default_rng(11)
    box = np.diag(rng.uniform(3.0, 6.0, size=3))
    box[1, 0] = 0.4 * box[0, 0]
    return Frame(positions=rng.uniform(0.0, 1.0, size=(n, 3)) @ box, box=box)


_FALLBACKS = {
    "cap reaches rmax": lambda: _random_gas(40),
    "no complete bins": lambda: Frame(positions=np.c_[  # flat: V = 0
        np.indices((8, 8)).reshape(2, -1).T, np.zeros(64)]),
    "no minimum inside the cap": _clusters,
}


@pytest.mark.parametrize("branch", list(_FALLBACKS))
def test_auto_cutoff_fallbacks(searches, branch):
    """Each way the search reaches rmax: it bins every pair out to rmax, then
    keeps the pairs of one more search at the cutoff."""
    fr = _FALLBACKS[branch]()
    reach = snapshot.RDF_CAP * _spacing(fr)
    rmax = _rdf_rmax(fr)
    rc, pairs = auto_cutoff(fr)
    assert rc == _auto_cutoff_loop(fr)
    if branch == "cap reaches rmax":
        assert reach >= rmax and searches == [rmax, rc]
    elif branch == "no complete bins":
        assert reach == 0.0 and searches == [rmax, rc]
    else:  # the doubled reach passes rmax
        assert searches == [reach, rmax, rc] and reach < rmax < 2 * reach
    _check_searches(fr, searches, rc)
    _check_pairs(fr, rc, pairs)
    neighbours_cutoff(fr, rc, pairs)  # the fallback cutoff is a valid one


def test_auto_cutoff_doubles_the_reach(searches):
    """A periodic 6x6x6-site clustered frame holds no RDF minimum within its
    first reach: the reach doubles once, short of rmax, and gives the cutoff
    of binning every pair out to rmax; the pairs come from one more search
    at that cutoff."""
    fr = _clusters(6)
    assert fr.n == 3456
    reach = snapshot.RDF_CAP * _spacing(fr)
    rc, pairs = auto_cutoff(fr)
    assert searches == [reach, 2 * reach, rc] and 2 * reach < _rdf_rmax(fr)
    assert rc == _auto_cutoff_loop(fr)
    _check_pairs(fr, rc, pairs)


def test_auto_cutoff_widened_working_set_is_bounded():
    """A doubled reach only bins its pairs: the tracemalloc peak of
    auto_cutoff on the 10x10x10-site clustered frame (N = 16 000, 151 pairs
    per particle within the doubled reach, 7.5 within r_cut) stays within
    the bound of test_auto_cutoff_working_set_is_bounded.

    Measured 428 B per particle with numpy 2.4, against 3812 B when the
    doubled reach's chunks were held until its RDF was read.
    """
    import tracemalloc

    fr = _clusters(10)
    tracemalloc.start()
    try:
        r_cut, pairs = auto_cutoff(fr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(i) for i, _ in pairs) == 7.5 * fr.n == 120000
    assert peak < 800 * fr.n


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(positions=np.array([[np.nan, 0, 0]]))
    with pytest.raises(ValueError):
        Frame(positions=np.zeros((2, 3)), box=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Frame(positions=np.zeros((2, 3)), species=["A"])


def test_frame_positions_must_be_n_by_3():
    for bad in (np.arange(12.0).reshape(6, 2), np.zeros(3), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match=r"shape \(N, 3\)"):
            Frame(positions=bad)


@pytest.mark.parametrize("kind", ["sc", "bcc", "fcc", "hcp"])
def test_make_lattice_equals_site_loop(kind):
    """One broadcast product places every site with the bits of placing
    them one at a time, for int and tuple cells, with and without noise."""
    for cells, a, noise in ((3, 1.0, 0.0), (3, 1.3, 0.0), ((2, 3, 4), 1.3, 0.0),
                            ((4, 1, 2), 0.7, 0.02)):
        fr = make_lattice(kind, cells, a=a, noise=noise, seed=6)
        pos, box = lattice_loop(kind, cells, a=a, noise=noise, seed=6)
        assert fr.positions.tobytes() == pos.tobytes()
        assert fr.box.tobytes() == box.tobytes()


def test_hcp_lattice_geometry():
    fr = make_lattice("hcp", 3)
    nl = neighbours_cutoff(fr, 1.2)
    assert set(nl.counts.tolist()) == {12}


@given(rmax=st.floats(1e-9, 1e6), nbins=st.integers(1, 400),
       fractions=st.lists(st.floats(0.0, 1.5), max_size=300),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_rdf_bins_equal_histogram(rmax, nbins, fractions, seed):
    """auto_cutoff's bins count as np.histogram over (0, rmax) does: random
    distances, every edge and both its neighbouring floats, 0 and rmax
    itself, and distances beyond rmax, which neither counts."""
    edges = np.histogram_bin_edges([], nbins, range=(0.0, rmax))
    rng = np.random.default_rng(seed)
    r = np.concatenate([np.array(fractions) * rmax,
                        rng.uniform(0.0, rmax, 500), edges,
                        np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                        [0.0, rmax]])
    counts = np.bincount(snapshot._rdf_bins(r, edges), minlength=nbins)
    assert np.array_equal(counts, histogram_counts(r, edges))
