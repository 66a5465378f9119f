"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS` line with its headline numbers (visible
under `pytest -s` or on failure).  Two published shape values are provably
inconsistent with the rest of their own rows (see tests marked xfail below and
the analysis in the project notes); the corresponding assertions are kept at
full strength as strict expected failures, and criterion 2 checks every other
value.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import coordgeo as cg
from coordgeo.coefficients import (check_loose_bounds, check_upper_bound,
                                   d_e, descriptor, e_one)
from coordgeo.shape import moment_per_neighbour, sphericity
from coordgeo.snapshot import make_lattice, neighbours_cutoff
from coordgeo.spacemap import (_classical_mds, class_averages,
                               hierarchical_cluster, mds, typicality,
                               verify_metric)

from published import CLASS_AVERAGES, TABLE
from references import brute_neighbour_csr, smacof

# published TBP moment and HBP sphericity contradict the published sphericity
# and moment of their own rows for any single construction; they are excluded
# here and asserted verbatim in the strict-xfail tests at the bottom
KNOWN_INCONSISTENT = {("TBP", "ik"), ("HBP", "psi")}


def test_criterion_01_table_reproduction(catalog, discretizer):
    t0 = time.monotonic()
    for code, (k, m, e_pub, _, _, _) in TABLE.items():
        g = catalog.get(code)
        d = descriptor(g, discretizer)
        assert g.k == k, code
        assert d.m == m, code
        assert abs(e_one(d) - e_pub) <= 0.0005, code
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS table k/m exact, E to +-0.0005 ({elapsed:.2f}s)")


def test_criterion_02_shape_parameters(catalog):
    t0 = time.monotonic()
    worst_psi = worst_ik = 0.0
    for code, (_, _, _, _, psi_pub, ik_pub) in TABLE.items():
        g = catalog.get(code)
        psi = sphericity(g.vertices)
        ik = moment_per_neighbour(g.vertices)
        if (code, "psi") not in KNOWN_INCONSISTENT:
            assert abs(psi - psi_pub) <= 0.005, (code, psi, psi_pub)
            worst_psi = max(worst_psi, abs(psi - psi_pub))
        if (code, "ik") not in KNOWN_INCONSISTENT:
            assert abs(ik - ik_pub) <= 0.01, (code, ik, ik_pub)
            worst_ik = max(worst_ik, abs(ik - ik_pub))
    # spot anchors from the criterion statement
    assert abs(sphericity(catalog.get("ICO").vertices) - 0.9393) <= 0.005
    assert abs(sphericity(catalog.get("TET").vertices) - 0.6711) <= 0.005
    assert abs(sphericity(catalog.get("HDR").vertices) - 0.8060) <= 0.005
    assert abs(moment_per_neighbour(catalog.get("BCC").vertices) - 1.14) <= 0.01
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 2] PASS shapes: worst |dPsi|={worst_psi:.4f}, "
          f"worst |dI/k|={worst_ik:.4f} over 42 checks; 2 published "
          f"values excluded as internally inconsistent ({elapsed:.2f}s)")


def test_criterion_03_metric(dmatrix):
    t0 = time.monotonic()
    rep = verify_metric(dmatrix, tol=1e-9)
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.failures
    assert elapsed < 1.0
    print(f"\n[criterion 3] PASS metric: worst triangle slack "
          f"{rep.worst_triangle_slack:.2e}, min off-diagonal "
          f"{rep.min_off_diagonal:.4f} ({elapsed:.2f}s)")


def test_criterion_04_bounds(catalog, discretizer):
    t0 = time.monotonic()
    descs = [descriptor(g, discretizer) for g in catalog.geometries]
    n_eq = 0
    for a, b in itertools.combinations(range(22), 2):
        holds, equal = check_upper_bound([descs[a], descs[b]])
        assert holds
        assert not equal
        assert check_loose_bounds([descs[a], descs[b]])
    for d in descs:
        holds, equal = check_upper_bound([d, d])
        assert holds and equal
        n_eq += 1
    n_tri = 0
    for a, b, c in itertools.combinations(range(22), 3):
        assert check_loose_bounds([descs[a], descs[b], descs[c]])
        n_tri += 1
    elapsed = time.monotonic() - t0
    assert n_tri == 1540
    assert elapsed < 5.0
    print(f"\n[criterion 4] PASS bounds: 231 pairs strict, equality on "
          f"{n_eq} identical pairs, {n_tri} triples ({elapsed:.2f}s)")


def test_criterion_05_axioms(catalog, discretizer):
    t0 = time.monotonic()
    rep285 = cg.verify_axioms(cg.distance_matrix(catalog, discretizer))
    d286 = cg.derive_discretizer(cg.collect_pool(catalog), epsilon=2.86)
    rep286 = cg.verify_axioms(cg.distance_matrix(catalog, d286))
    elapsed = time.monotonic() - t0
    assert rep285.passed, str(rep285)
    assert not rep286.passed, str(rep286)
    failed = [name for name, _, ok in rep286.comparisons if not ok]
    assert elapsed < 5.0
    print(f"\n[criterion 5] PASS axioms hold at eps=2.85 and axiom "
          f"{failed} fails at eps=2.86 ({elapsed:.2f}s)")


def test_criterion_06_clustering(dmatrix):
    dendro = hierarchical_cluster(dmatrix)
    fcc_first = dendro.merge_history("FCC")[0][0]
    assert fcc_first == frozenset({"FCC", "CPA", "ICO"})
    first_with_bcc = next(s for s, _ in dendro.merge_history("FCC") if "BCC" in s)
    assert {"CPA", "ICO"} <= first_with_bcc
    hcp_first = dendro.merge_history("HCP")[0][0]
    assert hcp_first == frozenset({"HCP", "CPP", "BPP"})
    print("\n[criterion 6] PASS clustering: FCC joins {CPA, ICO} and HCP "
          "joins {CPP, BPP} before any BCC-containing merge")


def test_criterion_07_mds_quality(dmatrix):
    t0 = time.monotonic()
    d = dmatrix.d
    rng = np.random.default_rng(0)
    starts = [_classical_mds(d, 8)]
    for _ in range(19):
        starts.append(rng.normal(scale=d.max() / 2.0, size=(22, 8)))
    best8 = np.inf
    for x0 in starts:
        _, trace, _ = smacof(d, x0, max_iter=10000, rtol=1e-10)
        assert np.all(np.diff(np.array(trace)) <= 1e-12)  # majorization
        best8 = min(best8, trace[-1])
    emb12 = mds(dmatrix, dims=12, seed=0, restarts=20)
    elapsed = time.monotonic() - t0
    assert abs(best8 - emb12.stress) <= 1e-3
    assert elapsed < 30.0
    print(f"\n[criterion 7] PASS MDS: stress nonincreasing on 20 restarts; "
          f"stress(8D)={best8:.6f} vs stress(12D)={emb12.stress:.6f} "
          f"({elapsed:.1f}s)")


def test_criterion_08_typicality(catalog, dmatrix):
    worst = 0.0
    for seed in range(10):
        emb = mds(dmatrix, dims=8, seed=seed, restarts=20)
        tau = typicality(emb, dmatrix.codes).tau
        order = sorted(tau, key=tau.get)
        assert order[0] == "TET", seed
        assert order[-1] == "HBP", seed
        assert tau[order[1]] - tau["TET"] > 1e-9  # unique minimum
        assert tau["HBP"] - tau[order[-2]] > 1e-9  # unique maximum
        for code in dmatrix.codes:
            dev = abs(tau[code] - TABLE[code][3])
            worst = max(worst, dev)
            assert dev <= 0.1, (seed, code, tau[code], TABLE[code][3])
    emb = mds(dmatrix, dims=8, seed=0, restarts=20)
    tau = typicality(emb, dmatrix.codes).tau
    for row in class_averages(catalog, tau):
        psi_pub, ik_pub, tau_pub = CLASS_AVERAGES[row["class"]]
        assert abs(row["sphericity"] - psi_pub) <= 0.1
        assert abs(row["moment_per_neighbour"] - ik_pub) <= 0.1
        assert abs(row["typicality"] - tau_pub) <= 0.1
    print(f"\n[criterion 8] PASS typicality: TET min / HBP max on 10 seeds, "
          f"worst |dtau| vs published = {worst:.3f}, class averages to +-0.1")


def test_criterion_09_snapshots(analyze):
    worst_noisy = 1.0
    for kind, rcut, nn in (("fcc", 0.85, 2 ** -0.5),
                           ("bcc", 1.2, math.sqrt(3.0) / 2.0),
                           ("hcp", 1.2, 1.0),
                           ("sc", 1.2, 1.0)):
        t0 = time.monotonic()
        frame = make_lattice(kind, 4)
        nl = neighbours_cutoff(frame, rcut)
        labels, dists = analyze(frame, nl)[3:]
        assert set(labels) == {kind.upper()}, kind
        assert np.nanmax(dists) == 0.0, kind
        # rms displacement magnitude of 1% of the nearest-neighbour distance
        sigma = 0.01 * nn / math.sqrt(3.0)
        noisy = make_lattice(kind, 4, noise=sigma, seed=2024)
        nl2 = neighbours_cutoff(noisy, rcut)
        labels2, _ = analyze(noisy, nl2)[3:]
        frac = sum(1 for s in labels2 if s == kind.upper()) / noisy.n
        worst_noisy = min(worst_noisy, frac)
        elapsed = time.monotonic() - t0
        assert frac >= 0.95, (kind, frac)
        assert elapsed < 10.0, kind
    # cell list equals brute force on frames with N <= 500
    rng = np.random.default_rng(77)
    for trial in range(4):
        n = int(rng.integers(100, 500))
        box = np.diag(rng.uniform(5.0, 8.0, size=3))
        frame = cg.Frame(positions=rng.uniform(0, 5, size=(n, 3)),
                         box=box if trial % 2 else None)
        rcut = float(rng.uniform(0.8, 1.4))
        a = neighbours_cutoff(frame, rcut)
        starts, indices = brute_neighbour_csr(frame.positions, frame.box,
                                              rcut)
        assert np.array_equal(a.starts, starts)
        assert np.array_equal(a.indices, indices)
    print(f"\n[criterion 9] PASS snapshots: 4 ideal lattices 100% at d=0, "
          f"worst noisy retention {worst_noisy:.3f}, cell==brute")


def test_criterion_10_determinism(tmp_path):
    from coordgeo.cli import main

    frame = make_lattice("fcc", 3)
    xyz = tmp_path / "fcc.extxyz"
    cg.write_frames(xyz, [frame])
    runs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        outdir.mkdir()
        files = {}
        for cmd, suffix in [
            (["table"], "table.csv"),
            (["distances"], "distances.csv"),
            (["tree", "--dot", str(tmp_path / f"{tag}_tree.dot")], "tree.nwk"),
            (["embed"], "embed.csv"),
            (["graph"], "graph.dot"),
            (["typicality"], "typicality.csv"),
        ]:
            path = outdir / suffix
            assert main(cmd + ["--seed", "11", "--restarts", "6",
                               "--out", str(path)]) == 0
            files[suffix] = path.read_bytes()
        path = outdir / "analyze.csv"
        summ = outdir / "summary.json"
        assert main(["analyze", str(xyz), "--rcut", "0.85", "--out", str(path),
                     "--summary", str(summ)]) == 0
        files["analyze.csv"] = path.read_bytes()
        files["summary.json"] = summ.read_bytes()
        files["tree.dot"] = (tmp_path / f"{tag}_tree.dot").read_bytes()
        runs.append(files)
    for key in runs[0]:
        assert runs[0][key] == runs[1][key], f"{key} differs between runs"
    print("\n[criterion 10] PASS determinism: byte-identical outputs for "
          f"{len(runs[0])} artifacts")


def test_criterion_11_axiom_bound_widens_resolving_range(catalog):
    """The paper's closing claim: asserting the topology axioms widens the
    range of structures the order parameter resolves.  In this code's terms,
    label agreement on noisy crystals grows with epsilon up to 2.85, the
    largest epsilon at which the axioms hold (criterion 5).

    Fixed before the first run: FCC 8^3 cells at --rcut 0.85, BCC 8 x 8 x 16
    and HCP 8^3 at 1.2 (2048 particles each), seed 1; per-coordinate
    Gaussian noise of 0.5 % and 1 % of the nearest-neighbour distance
    (make_lattice's noise is that standard deviation); discretizers from
    derive_discretizer at epsilon 1.0, 2.0 and 2.85.  At 1 % noise the
    agreement at 2.85 must exceed that at 1.0 and be at least that at 2.0;
    at 0.5 % noise it must be at least 0.99 at 2.85.
    """
    t0 = time.monotonic()
    pool = cg.collect_pool(catalog)
    epsilons = (1.0, 2.0, 2.85)
    runs = []
    for eps in epsilons:
        disc = cg.derive_discretizer(pool, epsilon=eps)
        runs.append((disc, cg.descriptor_arrays(catalog.geometries, disc)))
    rows = []
    lattices = (("fcc", 8, 0.85, 2 ** -0.5),
                ("bcc", (8, 8, 16), 1.2, math.sqrt(3.0) / 2.0),
                ("hcp", 8, 1.2, 1.0))
    for kind, cells, rcut, nn in lattices:
        target = catalog.codes.index(kind.upper())
        agree = {}
        for level in (0.005, 0.01):
            frame = make_lattice(kind, cells, noise=level * nn, seed=1)
            assert frame.n == 2048
            nl = neighbours_cutoff(frame, rcut)
            for eps, (disc, descriptors) in zip(epsilons, runs):
                r = cg.analyze_frame(frame, nl, catalog.codes, descriptors,
                                     disc)
                agree[level, eps] = float(np.mean(r.label[r.row] == target))
        rows.append(f"{kind.upper()} " + " / ".join(
            f"{agree[0.01, eps]:.3f}" for eps in epsilons)
            + f" (0.5 %: {agree[0.005, 2.85]:.3f})")
        assert agree[0.01, 2.85] > agree[0.01, 1.0], (kind, agree)
        assert agree[0.01, 2.85] >= agree[0.01, 2.0], (kind, agree)
        assert agree[0.005, 2.85] >= 0.99, (kind, agree)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 11] PASS agreement at 1 % noise, epsilon "
          f"1.0 / 2.0 / 2.85: {'; '.join(rows)} ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="published TBP moment (1.14) contradicts the published TBP "
           "sphericity (0.7563): the sphericity pins the spherical bipyramid, "
           "whose neighbours are all equidistant from their centroid, forcing "
           "the moment to 1.00 under every centroid-based normalization")
def test_published_tbp_moment(catalog):
    ik = moment_per_neighbour(catalog.get("TBP").vertices)
    assert abs(ik - 1.14) <= 0.01


@pytest.mark.xfail(
    strict=True,
    reason="published HBP sphericity (0.8630, identical to the BTP row) "
           "contradicts the published HBP moment (1.00): a unit moment forces "
           "ring and apexes onto one sphere, whose sphericity is 0.8787")
def test_published_hbp_sphericity(catalog):
    psi = sphericity(catalog.get("HBP").vertices)
    assert abs(psi - 0.8630) <= 0.005
