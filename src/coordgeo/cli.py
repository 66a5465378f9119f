"""Command-line interface: emit catalog tables, space analyses and snapshot runs."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .angles import axioms_satisfied, collect_pool, derive_discretizer
from .catalog import build_catalog, catalog_to_json
from .coefficients import descriptor, e_one
from .shape import moment_per_neighbour, sphericity
from .snapshot import analyze_frame, auto_cutoff, neighbours_cutoff, read_frames
from .spacemap import (delaunay_2d, distance_matrix, hierarchical_cluster,
                       mds, order_typicality_scatter, typicality)

@dataclass
class RunConfig:
    epsilon: float = 2.85
    min_pts: int = 1
    dims: int = 8
    seed: int = 0
    restarts: int = 20

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.dims < 1:
            raise ValueError("dims must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _load_config_file(path):
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: bad config line {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _resolve_config(args) -> RunConfig:
    # precedence: explicit flags > config file entries > defaults
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        for key, default in _DEFAULTS.items():
            if key in raw:
                merged[key] = type(default)(raw[key])
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return RunConfig(**merged)


def _pipeline(cfg: RunConfig):
    catalog = build_catalog()
    disc = derive_discretizer(collect_pool(catalog), min_pts=cfg.min_pts,
                              epsilon=cfg.epsilon)
    return catalog, disc


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _fmt(x, nd=6):
    return f"{x:.{nd}f}"


def cmd_table(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    dm = distance_matrix(catalog, disc)
    emb = mds(dm, dims=cfg.dims, seed=cfg.seed, restarts=cfg.restarts)
    tau = typicality(emb, dm.codes).tau
    rows = []
    for g in catalog.geometries:
        d = descriptor(g, disc)
        rows.append((g.code, g.k, d.profile.m, e_one(d),
                     sphericity(g.vertices), moment_per_neighbour(g.vertices),
                     tau[g.code]))
    rows.sort(key=lambda r: (r[3], r[0]))
    lines = ["code,k,m,e,sphericity,moment_per_neighbour,tau"]
    for code, k, m, e, psi, ik, t in rows:
        lines.append(f"{code},{k},{m},{_fmt(e)},{_fmt(psi)},{_fmt(ik)},{_fmt(t)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_distances(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    dm = distance_matrix(catalog, disc)
    lines = ["code," + ",".join(dm.codes)]
    for i, code in enumerate(dm.codes):
        lines.append(code + "," + ",".join(_fmt(x) for x in dm.d[i]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_tree(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    dendro = hierarchical_cluster(distance_matrix(catalog, disc))
    _write(args.out, dendro.newick() + "\n")
    if args.dot:
        Path(args.dot).write_text(dendro.dot() + "\n")
    return 0


def cmd_embed(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    dm = distance_matrix(catalog, disc)
    emb = mds(dm, dims=cfg.dims, seed=cfg.seed, restarts=cfg.restarts)
    lines = ["code," + ",".join(f"x{i + 1}" for i in range(emb.dims)) + ",stress"]
    for i, code in enumerate(dm.codes):
        coords = ",".join(_fmt(x) for x in emb.coords[i])
        lines.append(f"{code},{coords},{_fmt(emb.stress)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_graph(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    dm = distance_matrix(catalog, disc)
    if args.project_from:
        # alternative: project a higher-dimensional embedding onto its two
        # leading principal axes instead of re-optimizing in two dimensions
        emb = mds(dm, dims=args.project_from, seed=cfg.seed,
                  restarts=cfg.restarts)
        centered = emb.coords - emb.coords.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        coords2 = centered @ vt[:2].T
    else:
        coords2 = mds(dm, dims=2, seed=cfg.seed, restarts=cfg.restarts).coords
    edges = sorted(delaunay_2d(coords2))
    lines = ["graph coordination_geometries {", "  layout=neato;"]
    for i, code in enumerate(dm.codes):
        x, y = coords2[i]
        lines.append(f'  {code} [pos="{x:.4f},{y:.4f}!"];')
    for i, j in edges:
        lines.append(f"  {dm.codes[i]} -- {dm.codes[j]};")
    lines.append("}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_typicality(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    dm = distance_matrix(catalog, disc)
    emb = mds(dm, dims=cfg.dims, seed=cfg.seed, restarts=cfg.restarts)
    tau = typicality(emb, dm.codes).tau
    rows = order_typicality_scatter(catalog, disc, tau)
    lines = ["code,e,tau,point_group_order"]
    for r in rows:
        lines.append(f"{r['code']},{_fmt(r['e'])},{_fmt(r['tau'])},{r['point_group_order']}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_inherent_angles(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    header = f"inherent angles (epsilon={cfg.epsilon}, minPts={cfg.min_pts})"
    lines = [header, "-" * len(header), "  class  inherent  bin"]
    edges = [0.0] + [float(e) for e in disc.bin_edges] + [180.0]
    for j, ang in enumerate(disc.inherent_angles):
        lines.append(f"  {j:5d}  {ang:8.4f}  ({edges[j]:.4f}, {edges[j + 1]:.4f}]")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        Path(args.out).write_text(disc.to_json() + "\n")
    return 0


def cmd_analyze(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    frames = read_frames(args.path, fmt=args.format)
    all_lines = ["frame,id,k,m,e,label,d_e"]
    summary = []
    for fi, frame in enumerate(frames):
        rcut = args.rcut if args.rcut else auto_cutoff(frame)
        nl = neighbours_cutoff(frame, rcut)
        e, kk, mm, labels, dists = analyze_frame(frame, nl, catalog, disc)
        hist = {}
        for i in range(frame.n):
            es = "nan" if np.isnan(e[i]) else _fmt(e[i])
            ds = "nan" if np.isnan(dists[i]) else _fmt(dists[i])
            all_lines.append(f"{fi},{i},{kk[i]},{mm[i]},{es},{labels[i]},{ds}")
            hist[labels[i]] = hist.get(labels[i], 0) + 1
        finite = e[~np.isnan(e)]
        summary.append({
            "frame": fi,
            "n": int(frame.n),
            "r_cut": float(rcut),
            "labels": {k: hist[k] for k in sorted(hist)},
            "mean_e": float(finite.mean()) if len(finite) else None,
        })
    _write(args.out, "\n".join(all_lines) + "\n")
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_catalog(args):
    if args.action != "dump":
        raise ValueError(f"unknown catalog action {args.action!r}")
    _write(args.out, catalog_to_json(build_catalog()) + "\n")
    return 0


def cmd_axioms(args):
    cfg = _resolve_config(args)
    catalog, disc = _pipeline(cfg)
    passed, report = axioms_satisfied(disc, catalog)
    sys.stdout.write(str(report) + "\n")
    return 0 if passed else 1


def _add_common(p):
    p.add_argument("--epsilon", type=float, default=None,
                   help="clustering radius for inherent angles (degrees)")
    p.add_argument("--min-pts", dest="min_pts", type=int, default=None)
    p.add_argument("--dims", type=int, default=None, help="embedding dimensions")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="coordgeo",
        description="Coordination-geometry space: tables, distances, embeddings "
                    "and snapshot structure analysis.")
    sub = ap.add_subparsers(dest="command", required=True)

    commands = [
        ("table", cmd_table, "per-geometry table sorted by the coefficient"),
        ("distances", cmd_distances, "22x22 distance matrix CSV"),
        ("tree", cmd_tree, "average-linkage dendrogram (Newick)"),
        ("embed", cmd_embed, "MDS embedding CSV"),
        ("graph", cmd_graph, "Delaunay graph of the 2-D embedding (DOT)"),
        ("typicality", cmd_typicality, "order/typicality scatter CSV"),
        ("inherent-angles", cmd_inherent_angles, "inherent angle table"),
        ("axioms", cmd_axioms, "check the topology axioms"),
    ]
    for name, fn, help_ in commands:
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        if name == "tree":
            p.add_argument("--dot", default=None, help="also write DOT here")
        if name == "graph":
            p.add_argument("--project-from", type=int, default=None,
                           metavar="D",
                           help="project a D-dimensional embedding instead of "
                                "re-optimizing in two dimensions")
        p.set_defaults(fn=fn)

    p = sub.add_parser("analyze", help="classify particles in a trajectory")
    _add_common(p)
    p.add_argument("path", help="XYZ / extended-XYZ file")
    p.add_argument("--rcut", type=float, default=None,
                   help="neighbour cutoff (default: first RDF minimum)")
    p.add_argument("--format", default="auto", choices=["auto", "xyz", "extxyz"])
    p.add_argument("--summary", default=None, help="write summary JSON here")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("catalog", help="catalog export")
    p.add_argument("action", choices=["dump"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
