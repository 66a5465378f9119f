import json

import numpy as np
import pytest

import coordgeo as cg
from coordgeo import kernels
from coordgeo.cli import main
from coordgeo.snapshot import Frame, make_lattice, write_frames


def _run(args):
    return main(args)


def test_catalog_dump(tmp_path):
    out = tmp_path / "cat.json"
    assert _run(["catalog", "dump", "--out", str(out)]) == 0
    items = json.loads(out.read_text())
    assert len(items) == 22
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


def test_tree_newick_and_dot(tmp_path):
    out = tmp_path / "t.nwk"
    dot = tmp_path / "t.dot"
    assert _run(["tree", "--out", str(out), "--dot", str(dot)]) == 0
    nwk = out.read_text().strip()
    assert nwk.count("(") == 21
    assert dot.read_text().startswith("graph")


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


def test_inherent_angles_json(tmp_path, capsys):
    out = tmp_path / "disc.json"
    assert _run(["inherent-angles", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "inherent angles" in printed
    data = json.loads(out.read_text())
    assert data["epsilon"] == 2.85


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


def test_analyze_profiles_each_frame_once(tmp_path, monkeypatch, catalog,
                                          discretizer):
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
    for fi, frame in enumerate(cg.read_frames(xyz)):
        nl = cg.neighbours_cutoff(frame, 0.85)
        e, kk, mm = cg.per_particle_e(frame, nl, discretizer)
        labels, dists = cg.classify(frame, nl, catalog, discretizer)
        for i in range(frame.n):
            expect.append(f"{fi},{i},{kk[i]},{mm[i]},{e[i]:.6f},{labels[i]},"
                          f"{dists[i]:.6f}")
    assert out.read_text().splitlines() == expect


def test_analyze_coincident_particles_fail(tmp_path, capsys):
    frame = make_lattice("fcc", 3)
    dup = Frame(positions=np.vstack([frame.positions, frame.positions[:1]]),
                box=frame.box)
    xyz = tmp_path / "dup.extxyz"
    write_frames(xyz, [dup])
    out = tmp_path / "pp.csv"
    assert _run(["analyze", str(xyz), "--rcut", "0.85", "--out", str(out)]) == 1
    assert "error: particle 0 coincides with particle 108" in capsys.readouterr().err
    assert not out.exists()


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


def test_bad_config_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epsilon: 2.5\n")
    rc = _run(["inherent-angles", "--config", str(cfgfile)])
    assert rc == 1
