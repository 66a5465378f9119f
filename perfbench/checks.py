"""Correctness gates on the artifacts of one pass, run outside the timed region.

Each check returns a list of units, one per command and one per analysed
frame, with the failures found in it; a unit with any failure counts in
``failed``.  Quality figures (label agreement, unclassified share, embedding
stress) come back alongside.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

# the CSV holds six decimals, so a recomputed value may differ by half a unit
# in the last place, plus the rounding of the value it is compared with
CSV_TOL = 1e-6
# each distance is rounded to 6 decimals, so a triangle d(a,b)+d(b,c)-d(a,c)
# can lose up to three half-units
TRIANGLE_TOL = 1.5e-6
MIN_AGREEMENT = 0.95


def digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def _unit(name):
    return {"unit": name, "failures": []}


def _row_ok(k, m, e, label, d, codes):
    if k < 2:
        return label == "-" and e == "nan" and d == "nan"
    try:
        return (label in codes and m > 0 and d != "nan" and float(d) >= 0.0
                and abs(float(e) - math.log2((k * k - k) / (2.0 * m))) <= CSV_TOL)
    except ValueError:
        return False


def check_analyze(outdir: Path, sizes: dict, known: list | None,
                  rcut: float | None, codes: set):
    """Per-frame gates on analyze.csv and summary.json.

    known: the true label of each frame, or None when there is none.
    """
    frames = [_unit(f"frame {i}") for i in range(sizes["frames"])]
    command = _unit("analyze")
    quality = {"particles": 0, "unclassified": 0, "agree": 0}
    try:
        lines = (outdir / "analyze.csv").read_text().splitlines()
        summary = json.loads((outdir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        command["failures"].append(f"artifact missing or unreadable: {exc}")
        return [command] + frames, quality
    if lines[:1] != ["frame,id,k,m,e,label,d_e"]:
        command["failures"].append(f"bad header {lines[:1]!r}")
    rows = [[] for _ in frames]
    for line in lines[1:]:
        parts = line.split(",")
        try:
            fi, pid, k, m = (int(x) for x in parts[:4])
        except ValueError:
            fi = -1
        if not 0 <= fi < len(frames) or len(parts) != 7:
            command["failures"].append(f"bad row {line!r}")
            continue
        rows[fi].append((pid, k, m) + tuple(parts[4:]))
    if not isinstance(summary, list) or len(summary) != len(frames):
        command["failures"].append("summary does not hold one entry per frame")
        summary = [None] * len(frames)
    for fi, (unit, frame_rows, n) in enumerate(zip(frames, rows, sizes["frame_n"])):
        fails = unit["failures"]
        if [r[0] for r in frame_rows] != list(range(n)):
            fails.append(f"expected one row per particle 0..{n - 1}, "
                         f"got {len(frame_rows)} rows")
        hist = {}
        bad = 0
        for _, k, m, e, label, d in frame_rows:
            hist[label] = hist.get(label, 0) + 1
            bad += not _row_ok(k, m, e, label, d, codes)
            quality["unclassified"] += label == "-" or d == "nan"
            if known is not None:
                quality["agree"] += label == known[fi]
        quality["particles"] += len(frame_rows)
        if bad:
            fails.append(f"{bad} rows break e = log2((k^2-k)/2m), the '-' iff "
                         f"k<2 rule or d_E >= 0")
        if known is not None:
            share = hist.get(known[fi], 0) / max(n, 1)
            if share < MIN_AGREEMENT:
                fails.append(f"{share:.3f} of particles labelled {known[fi]}")
        entry = summary[fi]
        if entry is None:       # already counted against the command
            continue
        if not isinstance(entry, dict):
            fails.append(f"summary entry {entry!r} is not an object")
            continue
        if entry.get("frame") != fi or entry.get("n") != n:
            fails.append("summary frame index or particle count is wrong")
        if entry.get("labels") != {k: hist[k] for k in sorted(hist)}:
            fails.append("summary label counts differ from the CSV")
        r = entry.get("r_cut")
        if not (isinstance(r, float) and r > 0 and (rcut is None or r == rcut)):
            fails.append(f"summary r_cut {r!r}")
    return [command] + frames, quality


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _tau_order(path, fails):
    header, rows = _read_csv(path)
    tau = {r[0]: float(r[header.index("tau")]) for r in rows}
    if len(tau) != 22:
        fails.append(f"{path.name}: {len(tau)} geometries, expected 22")
    elif min(tau, key=tau.get) != "TET" or max(tau, key=tau.get) != "HBP":
        fails.append(f"{path.name}: lowest tau {min(tau, key=tau.get)}, "
                     f"highest {max(tau, key=tau.get)}; expected TET and HBP")


def check_spacemap(outdir: Path, codes: list):
    """Gates on the six catalog commands' artifacts."""
    from coordgeo.spacemap import DistanceMatrix, verify_metric

    units = {name: _unit(name) for name in
             ("table", "distances", "tree", "embed", "graph", "typicality")}
    quality = {}

    def guarded(name, fn):
        try:
            fn(units[name]["failures"])
        except (OSError, ValueError, IndexError, KeyError) as exc:
            units[name]["failures"].append(f"unreadable artifact: {exc!r}")

    def distances(fails):
        header, rows = _read_csv(outdir / "distances.csv")
        dm = DistanceMatrix(codes=tuple(header[1:]),
                            d=np.array([[float(x) for x in r[1:]] for r in rows]))
        if list(dm.codes) != codes or dm.d.shape != (22, 22):
            fails.append("distance matrix is not 22x22 over the catalog")
            return
        report = verify_metric(dm, tol=TRIANGLE_TOL)
        if not report.passed:
            fails.append(f"verify_metric failed: {report.failures}")

    def tree(fails):
        nwk = (outdir / "tree.nwk").read_text()
        dot = (outdir / "tree.dot").read_text()
        if not nwk.rstrip().endswith(";") or nwk.count("(") != 21:
            fails.append("Newick tree is not a binary tree over 22 leaves")
        if sorted(re.findall(r"[(,]([A-Z]+):", nwk)) != sorted(codes):
            fails.append("Newick tree does not name every geometry once")
        if not dot.startswith("graph") or any(f'label="{c}"' not in dot for c in codes):
            fails.append("DOT tree does not name every geometry")

    def embed(fails):
        header, rows = _read_csv(outdir / "embed.csv")
        stress = {float(r[-1]) for r in rows}
        if [r[0] for r in rows] != codes or header[-1] != "stress":
            fails.append("embedding rows are not the catalog in order")
        if len(stress) != 1 or not 0.0 < next(iter(stress)) < 1.0:
            fails.append(f"embedding stress {sorted(stress)}")
        else:
            quality["embed_stress"] = next(iter(stress))

    def graph(fails):
        lines = (outdir / "graph.dot").read_text().splitlines()
        nodes = [ln for ln in lines if "pos=" in ln]
        edges = [ln for ln in lines if " -- " in ln]
        # a planar triangulation of 22 points has between 21 and 60 edges
        if len(nodes) != 22 or not 21 <= len(edges) <= 3 * 22 - 6:
            fails.append(f"Delaunay graph has {len(nodes)} nodes, {len(edges)} edges")

    def tau_order(name):
        return lambda fails: _tau_order(outdir / f"{name}.csv", fails)

    for name, fn in (("table", tau_order("table")), ("distances", distances),
                     ("tree", tree), ("embed", embed), ("graph", graph),
                     ("typicality", tau_order("typicality"))):
        guarded(name, fn)
    return list(units.values()), quality
