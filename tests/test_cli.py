import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coordgeo as cg
from coordgeo import cli, kernels, snapshot
from coordgeo.cli import main
from coordgeo.snapshot import Frame, make_lattice, write_frames

from references import tails_template

# sha256 of each artifact of the benchmark workloads at seed 0
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _run(args):
    return main(args)


def test_catalog_dump(tmp_path):
    out = tmp_path / "cat.json"
    assert _run(["catalog", "dump", "--out", str(out)]) == 0
    items = json.loads(out.read_text())
    assert len(items) == 22
    assert [it["code"] for it in items] == cg.CODES
    assert all(it["class"] == cg.TAXONOMY[it["code"]] for it in items)
    byc = {it["code"]: it for it in items}
    assert byc["BCC"]["k"] == 14


def test_table_first_and_last_rows(tmp_path):
    out = tmp_path / "table.csv"
    assert _run(["table", "--out", str(out), "--restarts", "5"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 23  # header + 22 rows
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert first[0] == "TBP" and abs(float(first[3]) - 1.737) < 0.0005
    assert last[0] == "ICO" and abs(float(last[3]) - 4.459) < 0.0005


def test_distances_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert _run(["distances", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")[1:]
    assert len(header) == 22
    mat = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    assert mat.shape == (22, 22)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)


def test_distances_to_stdout(tmp_path, monkeypatch, capsys):
    out = tmp_path / "d.csv"
    assert _run(["distances", "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert _run(["distances", "--out", "-"]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert not (tmp_path / "-").exists()


def test_tree_newick_and_dot(tmp_path, monkeypatch, capsys):
    out = tmp_path / "t.nwk"
    dot = tmp_path / "t.dot"
    assert _run(["tree", "--out", str(out), "--dot", str(dot)]) == 0
    nwk = out.read_text().strip()
    assert nwk.count("(") == 21
    assert dot.read_text().startswith("graph")
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert _run(["tree", "--out", str(out), "--dot", "-"]) == 0
    assert capsys.readouterr().out == dot.read_text()
    assert not (tmp_path / "-").exists()


def test_embed_csv(tmp_path):
    out = tmp_path / "e.csv"
    assert _run(["embed", "--out", str(out), "--dims", "4", "--restarts", "3"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "code,x1,x2,x3,x4,stress"
    assert len(lines) == 23


def test_graph_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert _run(["graph", "--out", str(out), "--restarts", "3"]) == 0
    text = out.read_text()
    assert text.startswith("graph") and "--" in text


def test_typicality_csv(tmp_path):
    out = tmp_path / "tau.csv"
    assert _run(["typicality", "--out", str(out), "--restarts", "5"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 23


def test_catalog_artifacts_match_the_recorded_digests(tmp_path, monkeypatch):
    # the six catalog commands at seed 0 with the default 20 restarts write
    # the bytes recorded for the spacemap benchmark workload
    recorded = json.loads(DIGESTS.read_text())["spacemap"]
    monkeypatch.chdir(tmp_path)
    for argv in (["table", "--out", "table.csv"],
                 ["distances", "--out", "distances.csv"],
                 ["tree", "--out", "tree.nwk", "--dot", "tree.dot"],
                 ["embed", "--out", "embed.csv"],
                 ["graph", "--out", "graph.dot"],
                 ["typicality", "--out", "typicality.csv"]):
        assert _run(argv + ["--seed", "0"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == recorded


@pytest.mark.parametrize("name", ["crystal-fixed-rcut", "melt-auto-rcut"])
def test_snapshot_artifacts_match_the_recorded_digests(tmp_path, monkeypatch,
                                                       name):
    # analyze on the benchmark's full-size snapshot inputs at seed 0 writes
    # the CSV and summary bytes recorded for that workload
    monkeypatch.syspath_prepend(str(DIGESTS.parent))
    from workloads import WORKLOADS, make_inputs

    recorded = json.loads(DIGESTS.read_text())[name]
    workload = WORKLOADS[name]
    make_inputs(workload, 0, tmp_path, smoke=False)
    argv = ["analyze", str(tmp_path / "traj.extxyz"),
            "--out", str(tmp_path / "analyze.csv"),
            "--summary", str(tmp_path / "summary.json")]
    if workload.rcut is not None:
        argv += ["--rcut", repr(workload.rcut)]
    assert _run(argv) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in recorded}
    assert got == recorded


def test_inherent_angles_json(tmp_path, monkeypatch, capsys):
    out = tmp_path / "disc.json"
    assert _run(["inherent-angles", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "inherent angles" in printed
    data = json.loads(out.read_text())
    assert data["epsilon"] == 2.85
    assert out.read_text() == json.dumps(data, indent=2) + "\n"
    # with --out - stdout holds the JSON alone, without the table
    monkeypatch.chdir(tmp_path)
    assert _run(["inherent-angles", "--out", "-"]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    assert json.loads(printed) == data
    assert not (tmp_path / "-").exists()


def test_analyze_ideal_fcc(tmp_path):
    frame = make_lattice("fcc", 3)
    xyz = tmp_path / "fcc.extxyz"
    write_frames(xyz, [frame])
    out = tmp_path / "per_particle.csv"
    summ = tmp_path / "summary.json"
    rc = _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(out),
               "--summary", str(summ)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + frame.n
    labels = {ln.split(",")[5] for ln in lines[1:]}
    assert labels == {"FCC"}
    summary = json.loads(summ.read_text())
    assert summary[0]["labels"] == {"FCC": frame.n}
    assert abs(summary[0]["mean_e"] - 4.044394) < 1e-4


def test_analyze_auto_cutoff(tmp_path):
    frame = make_lattice("fcc", 3, noise=0.005, seed=0)
    xyz = tmp_path / "fcc_noisy.extxyz"
    write_frames(xyz, [frame])
    out = tmp_path / "pp.csv"
    summ = tmp_path / "s.json"
    assert _run(["analyze", str(xyz), "--out", str(out), "--summary", str(summ)]) == 0
    summary = json.loads(summ.read_text())
    # RDF-minimum cutoff must sit between the 1st and 2nd FCC shells
    assert 2 ** -0.5 < summary[0]["r_cut"] < 1.0
    assert summary[0]["labels"].get("FCC", 0) >= 0.95 * frame.n


def test_analyze_summary_to_stdout(tmp_path, monkeypatch, capsys):
    xyz = tmp_path / "fcc.extxyz"
    write_frames(xyz, [make_lattice("fcc", 3)])
    summ = tmp_path / "s.json"
    base = ["analyze", str(xyz), "--rcut", "0.85", "--out",
            str(tmp_path / "pp.csv")]
    assert _run(base + ["--summary", str(summ)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert _run(base + ["--summary", "-"]) == 0
    assert capsys.readouterr().out == summ.read_text()
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("out", [["--out", "-"], []])
def test_analyze_csv_and_summary_cannot_share_stdout(tmp_path, monkeypatch,
                                                     capsys, out):
    xyz = tmp_path / "fcc.extxyz"
    write_frames(xyz, [make_lattice("fcc", 3)])
    monkeypatch.chdir(tmp_path)
    rc = _run(["analyze", str(xyz), "--rcut", "0.85", "--summary", "-"] + out)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --summary - and the CSV")
    assert not (tmp_path / "-").exists()


def test_analyze_outputs_must_be_two_files(tmp_path, monkeypatch, capsys):
    """--out and --summary naming one file would lose one of them: exit 1,
    name both flags and write nothing."""
    xyz = tmp_path / "fcc.extxyz"
    write_frames(xyz, [make_lattice("fcc", 3)])
    monkeypatch.chdir(tmp_path)
    rc = _run(["analyze", str(xyz), "--rcut", "0.85", "--out", "x",
               "--summary", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: --out and --summary both name")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fcc.extxyz"]


def test_tree_outputs_must_be_two_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run(["tree", "--out", "t", "--dot", "./t"]) == 1
    assert capsys.readouterr().err.startswith("error: --out and --dot both name")
    assert list(tmp_path.iterdir()) == []


def test_analyze_auto_cutoff_failure_names_rcut(tmp_path, capsys):
    # the pair spans the diagonal of its open frame, beyond the RDF's reach
    xyz = tmp_path / "pair.xyz"
    write_frames(xyz, [Frame(positions=[[0.0, 0, 0], [1.0, 0, 0]])])
    out = tmp_path / "pp.csv"
    assert _run(["analyze", str(xyz), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: frame 0: no pairs found")
    assert "--rcut" in err
    assert not out.exists()
    assert _run(["analyze", str(xyz), "--rcut", "1.5", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["0,0,1,0,nan,-,nan",
                                                "0,1,1,0,nan,-,nan"]


def _overflowing_frame(tmp_path):
    """An open frame whose extent is finite but whose diagonal overflows."""
    xyz = tmp_path / "huge.xyz"
    xyz.write_text("3\n\nX 0 0 0\nX 1e300 0 0\nX 0 1 0\n")
    return xyz


def test_analyze_overflowing_extent_is_refused_by_name(tmp_path, capsys):
    """Without --rcut, a frame whose bounding box overflows is refused as
    such, with no numpy warning and no CSV."""
    xyz, out = _overflowing_frame(tmp_path), tmp_path / "pp.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["analyze", str(xyz), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: frame 0: the open frame's extent overflows")
    assert "--rcut" in err
    assert not out.exists()


def test_analyze_overflowing_extent_with_rcut(tmp_path):
    """With --rcut the same frame is analyzed, with no numpy warning: no
    particle lies within the cutoff of the one 1e300 away."""
    xyz, out = _overflowing_frame(tmp_path), tmp_path / "pp.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["analyze", str(xyz), "--rcut", "1.5",
                     "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["0,0,1,0,nan,-,nan",
                                                "0,1,0,0,nan,-,nan",
                                                "0,2,1,0,nan,-,nan"]


@pytest.mark.parametrize("rcut", [[], ["--rcut", "1.5"]])
def test_analyze_frame_wider_than_float_range_is_refused(tmp_path, capsys, rcut):
    """Coordinates -1e308 and 1e308 span more than the largest float: with
    or without --rcut the frame is refused by name when it is read, at its
    line, with no numpy warning, no --rcut hint and no CSV."""
    xyz, out = tmp_path / "wide.xyz", tmp_path / "wide.csv"
    xyz.write_text("3\n\nX -1e308 0 0\nX 1e308 0 0\nX 0 1 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["analyze", str(xyz), *rcut, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {xyz}:2: the open frame's extent overflows: its bounding "
        f"box edges exceed the float range\n")
    assert not out.exists()


def _two_frames(tmp_path, second):
    """A trajectory of a clean FCC frame and `second`."""
    xyz = tmp_path / "two.extxyz"
    write_frames(xyz, [make_lattice("fcc", 3), second])
    return xyz


@pytest.mark.parametrize("rcut", [["--rcut", "0.85"], []])
def test_analyze_refusal_names_its_frame(tmp_path, capsys, rcut):
    """A refusal after a frame is read names that frame, with --rcut and
    without, and only auto_cutoff's own refusals add the --rcut hint."""
    fcc = make_lattice("fcc", 3)
    dup = Frame(positions=np.vstack([fcc.positions, fcc.positions[:1]]),
                box=fcc.box)
    out = tmp_path / "pp.csv"
    xyz = _two_frames(tmp_path, dup)
    assert _run(["analyze", str(xyz), *rcut, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: frame 1: particle 0 coincides "
                                       "with particle 108 (zero-length bond)\n")
    assert not out.exists()
    # half the smallest width of a thin box is below the cutoff
    thin = make_lattice("fcc", (3, 3, 1))
    xyz = _two_frames(tmp_path, thin)
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: frame 1: r_cut=0.85 exceeds half the smallest box width")
    # two particles: no pair within half the diagonal
    pair = Frame(positions=[[0.0, 0, 0], [1.0, 0, 0]])
    xyz = _two_frames(tmp_path, pair)
    assert _run(["analyze", str(xyz), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: frame 1: no pairs found; cannot estimate a cutoff; set the "
        "cutoff explicitly with --rcut\n")
    assert not out.exists()


@pytest.mark.parametrize("rcut", ["inf", "0", "nan", "-1"])
def test_analyze_bad_rcut_is_refused_before_reading(tmp_path, capsys, rcut):
    """A bad --rcut is refused before the first frame is read: on a file
    whose first frame is malformed, and on a missing file."""
    bad = tmp_path / "bad.xyz"
    bad.write_text("2\nc\nX 0 0 0\nX abc 0 0\n")
    for path in (bad, tmp_path / "missing.xyz"):
        assert _run(["analyze", str(path), "--rcut", rcut]) == 1
        assert capsys.readouterr() == (
            "", "error: r_cut must be positive and finite\n")


def test_analyze_far_open_frame_warns_nothing(tmp_path):
    """Particles 1e200 apart can share a cell of the pair search: the square
    of their distance overflows to inf, beyond the cutoff, with no numpy
    warning."""
    xyz, out = tmp_path / "far.xyz", tmp_path / "far.csv"
    xyz.write_text("3\n\nX 0 0 0\nX 1e200 0 0\nX 1e300 0 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["analyze", str(xyz), "--rcut", "1.5",
                     "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["frame,id,k,m,e,label,d_e",
                                            "0,0,0,0,nan,-,nan",
                                            "0,1,0,0,nan,-,nan",
                                            "0,2,0,0,nan,-,nan"]


def test_analyze_refused_first_frame_prints_no_header(tmp_path, capsys):
    """A file refused at its first frame leaves stdout empty: no header-only
    CSV reaches a pipe."""
    xyz = tmp_path / "nanbox.extxyz"
    xyz.write_text('1\nLattice="3 nan 0 0 3 0 0 0 3"\nX 0 0 0\n')
    assert _run(["analyze", str(xyz), "--rcut", "0.85"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {xyz}:2: non-finite periodic box\n"


def test_analyze_profiles_each_frame_once(tmp_path, monkeypatch, analyze):
    frames = [make_lattice("fcc", 3, noise=0.01, seed=1),
              make_lattice("fcc", 3, noise=0.03, seed=2)]
    xyz = tmp_path / "two.extxyz"
    write_frames(xyz, frames)
    calls = []
    profile = kernels.profile_particles

    def counted(*args, **kwargs):
        calls.append(1)
        return profile(*args, **kwargs)

    monkeypatch.setattr(kernels, "profile_particles", counted)
    out = tmp_path / "pp.csv"
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(out)]) == 0
    assert len(calls) == 2
    monkeypatch.undo()
    expect = ["frame,id,k,m,e,label,d_e"]
    for fi, frame in enumerate(cg.iter_frames(xyz)):
        nl = cg.neighbours_cutoff(frame, 0.85)
        e, kk, mm, labels, dists = analyze(frame, nl)
        for i in range(frame.n):
            expect.append(f"{fi},{i},{kk[i]},{mm[i]},{e[i]:.6f},{labels[i]},"
                          f"{dists[i]:.6f}")
    assert out.read_text().splitlines() == expect


def test_analyze_csv_does_not_depend_on_the_row_blocks(tmp_path, monkeypatch):
    """The CSV is written one row block at a time; its bytes are those of
    one block per frame."""
    frames = [make_lattice("fcc", 3, noise=0.03, seed=4),
              Frame(positions=np.vstack([make_lattice("bcc", 3).positions,
                                         [[20.0, 0, 0]]]))]
    xyz = tmp_path / "two.extxyz"
    write_frames(xyz, frames)
    outs = []
    for budget in (1 << 30, 50):
        monkeypatch.setattr(kernels, "_BUDGET", budget)
        out = tmp_path / f"{budget}.csv"
        assert _run(["analyze", str(xyz), "--rcut", "1.2", "--out", str(out),
                     "--summary", str(out) + ".json"]) == 0
        outs.append((out.read_bytes(), Path(str(out) + ".json").read_bytes()))
    assert outs[0] == outs[1]
    assert len(outs[0][0].splitlines()) == 1 + 108 + 55


def _fstring_csv(frames, rcut, analyze):
    """Reference: analyze's CSV with one f-string per row."""
    lines = ["frame,id,k,m,e,label,d_e\n"]
    for fi, frame in enumerate(frames):
        nl = cg.neighbours_cutoff(frame, rcut)
        e, kk, mm, labels, dists = analyze(frame, nl)
        lines += [f"{fi},{i},{k},{m},{ei:.6f},{lab},{di:.6f}\n"
                  for i, k, m, ei, lab, di in zip(
                      range(frame.n), kk.tolist(), mm.tolist(), e.tolist(),
                      labels, dists.tolist())]
    return "".join(lines).encode()


def test_analyze_csv_bytes_equal_the_fstring_rows(tmp_path, analyze):
    """The % template writes the bytes of the f-string rows, nan included."""
    crystal = make_lattice("fcc", 4, noise=0.02, seed=6)
    # particle 0 of the periodic frame loses its first shell: k = 0
    nl = cg.neighbours_cutoff(crystal, 0.85)
    shell = nl.indices[nl.starts[0]:nl.starts[1]]
    isolated = Frame(positions=np.delete(crystal.positions, shell, axis=0),
                     box=crystal.box)
    # the open frame ends in a lone pair: k = 1
    open_ = Frame(positions=np.vstack([make_lattice("fcc", 3, noise=0.02,
                                                    seed=7).positions,
                                       [[20.0, 0, 0], [20.5, 0, 0]]]))
    frames = [isolated, open_]
    xyz = tmp_path / "two.extxyz"
    write_frames(xyz, frames)
    out = tmp_path / "pp.csv"
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(out)]) == 0
    got = out.read_bytes()
    assert got == _fstring_csv(cg.iter_frames(xyz), 0.85, analyze)
    rows = got.splitlines()
    assert rows[1] == b"0,0,0,0,nan,-,nan"
    assert rows[-1] == b"1,109,1,0,nan,-,nan"
    assert len(rows) == 1 + isolated.n + open_.n


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
       pool=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_tails_equal_one_template(catalog, seed, n, pool):
    """The CSV tails, "k,m,e," formatted once per distinct (k, m), are the
    text of one % template over every field: rows of k < 2 (NaN e and d_e)
    and rows sharing (k, m) under other labels and distances among them."""
    rng = np.random.default_rng(seed)
    kk = rng.integers(0, 20, size=pool)[rng.integers(0, pool, size=n)]
    mm = np.minimum(rng.integers(1, 12, size=n), kk * (kk - 1) // 2)
    label = rng.integers(-1, len(catalog.codes), size=n)
    label[kk < 2] = -1
    d_e = rng.choice([0.0, 1 / 3, 2.5e-7, 1e3], size=n) + rng.random(n)
    d_e[kk < 2] = np.nan
    result = snapshot.FrameResult((*catalog.codes, "-"), kk, mm,
                                  snapshot._coefficient(kk, mm), label, d_e,
                                  np.arange(n))
    assert cli._tails(result) == tails_template(result)


def _descriptor_set(rng, n, nbins):
    """n descriptors (k, f) drawn with repeats from a random pool that holds
    k = 0 and k = 1, counts above 255, and two rows that differ only by 256
    in one count (one key at 8 bits)."""
    pool = int(rng.integers(4, 40))
    k = rng.integers(0, 30, size=pool)
    f = rng.integers(0, 4, size=(pool, nbins))
    big = np.flatnonzero(rng.random(pool) < 0.2)
    f[big, rng.integers(0, nbins, size=len(big))] = rng.integers(256, 1000,
                                                                  len(big))
    k[:2] = 0, 1
    f[k < 2] = 0
    k[-2:] = max(k[-2], 2)
    f[-1] = f[-2]
    f[-1, 0] += 256
    f[(k >= 2) & (f.sum(axis=1) == 0), 1] = 1
    pick = rng.integers(0, pool, size=n)
    pick[:4] = np.array([0, 1, pool - 2, pool - 1])[:n]
    return k[pick], f[pick]


@pytest.mark.parametrize("seed", range(10))
def test_per_descriptor_labels_equal_per_particle(tmp_path, monkeypatch,
                                                  catalog, discretizer,
                                                  analyze, seed):
    """analyze_frame classifies each distinct (k, f) row of a row block once.
    On random descriptor sets, its labels, d_E and e, the CSV bytes and the
    summary equal those of classifying every particle, and each block
    classifies as many rows as it holds distinct descriptors."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    kk, fc = _descriptor_set(rng, n, len(discretizer.bin_edges) + 1)
    cat_k, cat_f = cg.descriptor_arrays(catalog.geometries, discretizer)
    # the reference: every particle classified, e from its own k and m
    lab_idx, want_d = kernels.classify_particles(kk, fc, cat_k, cat_f)
    mm = fc.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_e = np.log2((kk * kk - kk) / (2.0 * mm))
    want_e[kk < 2] = np.nan
    names = [*catalog.codes, "-"]
    want_labels = [names[i] for i in lab_idx.tolist()]

    def profile(pos, box, starts, idx, edges, first=0):
        return kk[first:first + len(starts) - 1], fc[first:first + len(starts) - 1]

    classified = []
    classify = kernels.classify_particles

    def counted(k, *args):
        classified.append(len(k))
        return classify(k, *args)

    monkeypatch.setattr(kernels, "profile_particles", profile)
    monkeypatch.setattr(kernels, "classify_particles", counted)
    monkeypatch.setattr(kernels, "_BUDGET", int(rng.choice([7, 50, 1 << 30])))
    # particles 10 apart have no neighbour within 1: the rows are kk's
    frame = Frame(positions=10.0 * np.arange(n)[:, None] * np.ones(3))
    nl = cg.neighbours_cutoff(frame, 1.0)
    e, k, m, labels, dists = analyze(frame, nl)
    assert k.tobytes() == kk.tobytes() and m.tobytes() == mm.tobytes()
    assert labels == want_labels
    assert dists.tobytes() == want_d.tobytes()
    assert e.tobytes() == want_e.tobytes()
    rows = np.column_stack([kk, fc])
    assert classified == [len(np.unique(rows[lo:hi], axis=0))
                          for lo, hi in kernels.row_blocks(nl.starts)]
    xyz, out = tmp_path / "one.xyz", tmp_path / "pp.csv"
    write_frames(xyz, [frame])
    assert _run(["analyze", str(xyz), "--rcut", "1", "--out", str(out),
                 "--summary", str(tmp_path / "s.json")]) == 0
    assert out.read_text() == "frame,id,k,m,e,label,d_e\n" + "".join(
        f"0,{i},{a},{b},{c:.6f},{d},{g:.6f}\n" for i, (a, b, c, d, g) in
        enumerate(zip(kk.tolist(), mm.tolist(), want_e.tolist(), want_labels,
                      want_d.tolist())))
    codes, counts = np.unique(want_labels, return_counts=True)
    finite = want_e[~np.isnan(want_e)]
    summary = [{"frame": 0, "n": n, "r_cut": 1.0,
                "labels": dict(zip(codes.tolist(), counts.tolist())),
                "mean_e": float(finite.mean()) if len(finite) else None}]
    assert (tmp_path / "s.json").read_text() == json.dumps(summary,
                                                           indent=2) + "\n"


def test_analyze_coincident_particles_fail(tmp_path, capsys):
    frame = make_lattice("fcc", 3)
    dup = Frame(positions=np.vstack([frame.positions, frame.positions[:1]]),
                box=frame.box)
    xyz = tmp_path / "dup.extxyz"
    write_frames(xyz, [dup])
    out = tmp_path / "pp.csv"
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(out)]) == 1
    assert ("error: frame 0: particle 0 coincides with particle 108"
            in capsys.readouterr().err)
    assert not out.exists()


def test_analyze_failure_at_a_late_frame_leaves_no_output(tmp_path, capsys):
    frames = [make_lattice("fcc", 3, noise=0.01, seed=s) for s in range(3)]
    frames[2] = Frame(positions=np.vstack([frames[2].positions,
                                           frames[2].positions[:1]]),
                      box=frames[2].box)
    xyz = tmp_path / "dup.extxyz"
    write_frames(xyz, frames)
    out = tmp_path / "f.csv"
    summ = tmp_path / "s.json"
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(out),
                 "--summary", str(summ)]) == 1
    assert ("error: frame 2: particle 0 coincides with particle 108"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dup.extxyz"]


def test_analyze_out_may_be_the_input(tmp_path):
    xyz = tmp_path / "fcc.extxyz"
    write_frames(xyz, [make_lattice("fcc", 3)])
    expect = tmp_path / "expect.csv"
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(expect)]) == 0
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(xyz)]) == 0
    assert xyz.read_text() == expect.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expect.csv", "fcc.extxyz"]


def test_output_files_get_the_umask_mode(tmp_path):
    out = tmp_path / "d.csv"
    ref = tmp_path / "ref.txt"
    old = os.umask(0o027)
    try:
        ref.write_text("x")
        assert _run(["distances", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode == ref.stat().st_mode


def test_output_to_a_missing_directory_names_the_output(tmp_path, capsys):
    out = tmp_path / "nodir" / "d.csv"
    assert _run(["distances", "--out", str(out)]) == 1
    assert capsys.readouterr().err.rstrip().endswith(f"'{out}'")


def test_analyze_zero_rcut_fails(tmp_path, capsys):
    xyz = tmp_path / "fcc.extxyz"
    write_frames(xyz, [make_lattice("fcc", 3)])
    out = tmp_path / "pp.csv"
    for rcut in ("0", "nan"):
        assert _run(["analyze", str(xyz), "--rcut", rcut, "--out", str(out)]) == 1
        assert "error: r_cut must be positive" in capsys.readouterr().err
        assert not out.exists()
    # without a box only the value itself stops inf, which would make every
    # particle a neighbour of every other and write "r_cut": Infinity
    xyz = tmp_path / "open.xyz"
    write_frames(xyz, [make_lattice("fcc", 1)], fmt="xyz")
    summary = tmp_path / "run.json"
    assert _run(["analyze", str(xyz), "--rcut", "inf", "--out", str(out),
                 "--summary", str(summary)]) == 1
    assert "error: r_cut must be positive and finite" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


def test_analyze_huge_rcut_on_open_frame_fails(tmp_path, capsys):
    """A finite cutoff at the bounding-box diagonal of an open frame would
    give every particle all N - 1 others as neighbours, and a label."""
    xyz = tmp_path / "open108.xyz"
    write_frames(xyz, [make_lattice("fcc", 3, noise=0.01)], fmt="xyz")
    out = tmp_path / "pp.csv"
    assert _run(["analyze", str(xyz), "--rcut", "1e9", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: frame 0: r_cut=1000000000.0 reaches the "
                          "diagonal")
    assert "all 107 others" in err
    assert not out.exists()


@pytest.mark.parametrize("rcut", [["--rcut", "0.85"], []])
def test_analyze_non_finite_box_fails(tmp_path, capsys, rcut):
    """A NaN box entry passes a determinant test; it is refused at its line
    on both cutoff paths, before any pair search or RDF."""
    xyz = tmp_path / "nanbox.extxyz"
    xyz.write_text('1\nLattice="3 nan 0 0 3 0 0 0 3"\nX 0 0 0\n')
    out = tmp_path / "nb.csv"
    assert _run(["analyze", str(xyz), *rcut, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {xyz}:2: non-finite periodic box\n"
    assert not out.exists()


def test_nan_epsilon_fails(tmp_path, capsys):
    out = tmp_path / "disc.json"
    assert _run(["inherent-angles", "--epsilon", "nan", "--out", str(out)]) == 1
    assert "error: epsilon must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_inf_epsilon_fails(tmp_path, capsys):
    """An infinite epsilon would merge the pool into one 2-class discretizer
    and give every particle a label with it."""
    out = tmp_path / "disc.json"
    assert _run(["inherent-angles", "--epsilon", "inf", "--out", str(out)]) == 1
    assert "error: epsilon must be positive and finite" in capsys.readouterr().err
    assert not out.exists()
    xyz = tmp_path / "fcc.extxyz"
    write_frames(xyz, [make_lattice("fcc", 3)])
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--epsilon", "inf",
                 "--out", str(out)]) == 1
    assert "error: epsilon must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, failed", [
    (["inherent-angles", "--epsilon", "1000"], "1a, 1b, 2a, 2b"),
    (["table", "--epsilon", "3"], "2a"),
    (["distances", "--min-pts", "2"], "1a, 1b, 2a, 2b"),
])
def test_discretizer_violating_the_axioms_fails(tmp_path, capsys, argv, failed):
    """A wide epsilon (or a minPts that leaves angles as noise) merges what
    the topology axioms tell apart; 1000 gives a 2-class discretizer."""
    out = tmp_path / "out.txt"
    assert _run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon=")
    assert f"violates topology axiom(s) {failed};" in err
    assert not out.exists()


def test_analyze_with_epsilon_violating_the_axioms_fails(tmp_path, capsys):
    xyz = tmp_path / "fcc.extxyz"
    write_frames(xyz, [make_lattice("fcc", 3)])
    out = tmp_path / "pp.csv"
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--epsilon", "3",
                 "--out", str(out)]) == 1
    assert "axiom(s) 2a;" in capsys.readouterr().err
    assert not out.exists()


def test_axioms_reports_a_violating_epsilon(capsys):
    assert _run(["axioms", "--epsilon", "3"]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("axioms violated")
    assert "[FAIL] 2a:" in printed
    # just above the published epsilon, 2a fails on an exact tie
    assert _run(["axioms", "--epsilon", "2.86"]) == 1
    assert capsys.readouterr().out == (
        "axioms violated\n"
        "  [ok] 1a: d(FCC,HCP)=0.5850 < d(FCC,BCC)=0.7683\n"
        "  [ok] 1b: d(HCP,FCC)=0.5850 < d(HCP,BCC)=0.8167\n"
        "  [FAIL] 2a: two nearest to SA: CSA=0.5557, TTP=0.5557\n"
        "  [ok] 2b: two nearest to HDR: BSP=0.3947, CSP=0.5557\n")


def test_axioms_out_file(tmp_path, capsys):
    out = tmp_path / "axioms.txt"
    assert _run(["axioms", "--out", str(out)]) == 0
    assert "axioms satisfied" in out.read_text()
    assert capsys.readouterr().out == ""


def test_analyze_missing_file(tmp_path, capsys):
    rc = _run(["analyze", str(tmp_path / "nope.xyz"), "--out", "-"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_config_file_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epsilon = 2.5\nseed = 3\n")
    out1 = tmp_path / "a.json"
    assert _run(["inherent-angles", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert json.loads(out1.read_text())["epsilon"] == 2.5
    # explicit flag beats the config file
    out2 = tmp_path / "b.json"
    assert _run(["inherent-angles", "--config", str(cfgfile), "--epsilon", "2.85",
                 "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["epsilon"] == 2.85


def test_run_config_defaults_are_the_signatures():
    """RunConfig sets no default of its own: each is its function's."""
    import inspect

    from coordgeo.cli import RunConfig

    def defaults(fn, *names):
        params = inspect.signature(fn).parameters
        return {name: params[name].default for name in names}

    expected = {**defaults(cg.derive_discretizer, "epsilon", "min_pts"),
                **defaults(cg.mds, "dims", "seed", "restarts")}
    assert vars(RunConfig()) == expected


def test_bad_config_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epsilon: 2.5\n")
    rc = _run(["inherent-angles", "--config", str(cfgfile)])
    assert rc == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epsilson = 3.5\n")
    out = tmp_path / "disc.json"
    assert _run(["inherent-angles", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfgfile}: unknown config key 'epsilson'")
    for key in ("epsilon", "min_pts", "dims", "seed", "restarts"):
        assert key in err
    assert not out.exists()


def test_negative_seed_names_its_key(tmp_path, capsys):
    out = tmp_path / "embed.csv"
    assert _run(["embed", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative\n"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = -1\n")
    assert _run(["embed", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative\n"
    assert not out.exists()


def test_bad_config_value_names_its_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dims = 8.5\n")
    assert _run(["inherent-angles", "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfgfile}: dims: invalid literal for int()")
