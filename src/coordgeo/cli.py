"""Command-line interface: emit catalog tables, space analyses and snapshot runs."""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .angles import collect_pool, derive_discretizer
from .catalog import build_catalog, catalog_to_json
from .coefficients import descriptor, descriptor_arrays, e_one
from .kernels import row_blocks
from .shape import moment_per_neighbour, sphericity
from .snapshot import (_check_cutoff, analyze_frame, auto_cutoff,
                       iter_frames, neighbours_cutoff)
from .spacemap import (delaunay_2d, distance_matrix, hierarchical_cluster,
                       mds, order_typicality_scatter, typicality,
                       verify_axioms)

# RunConfig's defaults are those of the functions that take the settings
_DISC = inspect.signature(derive_discretizer).parameters
_MDS = inspect.signature(mds).parameters

@dataclass
class RunConfig:
    epsilon: float = _DISC["epsilon"].default
    min_pts: int = _DISC["min_pts"].default
    dims: int = _MDS["dims"].default
    seed: int = _MDS["seed"].default
    restarts: int = _MDS["restarts"].default

    def __post_init__(self):
        if self.dims < 1:
            raise ValueError("dims must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise ValueError(f"{path}: unknown config key {key!r}; "
                             f"valid keys: {', '.join(_DEFAULTS)}")
        try:
            values[key] = type(_DEFAULTS[key])(val)
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
    return values


def _resolve_config(args) -> RunConfig:
    # precedence: explicit flags > config file entries > defaults
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return RunConfig(**merged)


def _derive(args):
    """The run configuration, the catalog, its discretizer, their distance
    matrix and its topology-axiom report."""
    cfg = _resolve_config(args)
    catalog = build_catalog()
    disc = derive_discretizer(collect_pool(catalog), min_pts=cfg.min_pts,
                              epsilon=cfg.epsilon)
    dm = distance_matrix(catalog, disc)
    return cfg, catalog, disc, dm, verify_axioms(dm)


def _pipeline(args):
    """_derive, refusing a discretizer that violates the topology axioms.

    The axioms are the paper's rule for epsilon and minPts: a discretizer
    that breaks them merges angle classes the axioms tell apart (a wide
    epsilon leaves one class beside the 0 convention), yet would still label
    every particle.
    """
    cfg, catalog, disc, dm, report = _derive(args)
    if not report.passed:
        failed = ", ".join(name for name, _, ok in report.comparisons if not ok)
        raise ValueError(f"epsilon={cfg.epsilon} with min_pts={cfg.min_pts} "
                         f"violates topology axiom(s) {failed}; "
                         f"'coordgeo axioms' shows the comparisons")
    return cfg, catalog, disc, dm


@contextlib.contextmanager
def _output(path):
    """Text stream for an output: stdout for None or "-".  A file is written
    to a temporary file beside it that replaces it only when the block
    succeeds and is deleted otherwise, so a failed command leaves no output."""
    if path is None or path == "-":
        yield sys.stdout
        return
    tmp = Path(path).with_name(f".{Path(path).name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x")  # mode 0666 less the umask, as Path.write_text
    except OSError as exc:
        exc.filename = path  # name the output, not its temporary file
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _distinct_outputs(flag_a, path_a, flag_b, path_b):
    """Refuse two output flags that name one file: the second output would
    replace the first."""
    if (path_a not in (None, "-") and path_b not in (None, "-")
            and Path(path_a).resolve() == Path(path_b).resolve()):
        raise ValueError(f"{flag_a} and {flag_b} both name {path_b}; "
                         f"write them to two files")


def _write(path, text):
    with _output(path) as fh:
        fh.write(text)


def _fmt(x):
    return f"{x:.6f}"


def cmd_table(args):
    cfg, catalog, disc, dm = _pipeline(args)
    emb = mds(dm, dims=cfg.dims, seed=cfg.seed, restarts=cfg.restarts)
    tau = typicality(emb, dm.codes).tau
    rows = []
    for g in catalog.geometries:
        d = descriptor(g, disc)
        rows.append((g.code, g.k, d.m, e_one(d),
                     sphericity(g.vertices), moment_per_neighbour(g.vertices),
                     tau[g.code]))
    rows.sort(key=lambda r: (r[3], r[0]))
    lines = ["code,k,m,e,sphericity,moment_per_neighbour,tau"]
    for code, k, m, e, psi, ik, t in rows:
        lines.append(f"{code},{k},{m},{_fmt(e)},{_fmt(psi)},{_fmt(ik)},{_fmt(t)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_distances(args):
    _, _, _, dm = _pipeline(args)
    lines = ["code," + ",".join(dm.codes)]
    for i, code in enumerate(dm.codes):
        lines.append(code + "," + ",".join(_fmt(x) for x in dm.d[i]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_tree(args):
    _distinct_outputs("--out", args.out, "--dot", args.dot)
    _, _, _, dm = _pipeline(args)
    dendro = hierarchical_cluster(dm)
    _write(args.out, dendro.newick() + "\n")
    if args.dot:
        _write(args.dot, dendro.dot() + "\n")
    return 0


def cmd_embed(args):
    cfg, _, _, dm = _pipeline(args)
    emb = mds(dm, dims=cfg.dims, seed=cfg.seed, restarts=cfg.restarts)
    lines = ["code," + ",".join(f"x{i + 1}" for i in range(emb.dims)) + ",stress"]
    for i, code in enumerate(dm.codes):
        coords = ",".join(_fmt(x) for x in emb.coords[i])
        lines.append(f"{code},{coords},{_fmt(emb.stress)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_graph(args):
    cfg, _, _, dm = _pipeline(args)
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
    cfg, catalog, disc, dm = _pipeline(args)
    emb = mds(dm, dims=cfg.dims, seed=cfg.seed, restarts=cfg.restarts)
    tau = typicality(emb, dm.codes).tau
    rows = order_typicality_scatter(catalog, disc, tau)
    lines = ["code,e,tau,point_group_order"]
    for r in rows:
        lines.append(f"{r['code']},{_fmt(r['e'])},{_fmt(r['tau'])},{r['point_group_order']}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_inherent_angles(args):
    cfg, _, disc, _ = _pipeline(args)
    header = f"inherent angles (epsilon={cfg.epsilon}, minPts={cfg.min_pts})"
    lines = [header, "-" * len(header), "  class  inherent  bin"]
    edges = [0.0] + [float(e) for e in disc.bin_edges] + [180.0]
    for j, ang in enumerate(disc.inherent_angles):
        lines.append(f"  {j:5d}  {ang:8.4f}  ({edges[j]:.4f}, {edges[j + 1]:.4f}]")
    # with --out - the JSON alone goes to stdout, so that it can be piped
    if args.out != "-":
        sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        _write(args.out, disc.to_json() + "\n")
    return 0


def _tails(result):
    """The "k,m,e,label,d_e" text, newline included, of each descriptor row of
    a FrameResult (%.6f writes NaN as nan, as format spec .6f does).  e is a
    function of (k, m), so "k,m,e," is formatted once per distinct (k, m)."""
    # m.max() + 1 spaces the keys of two k apart
    key = result.k * (result.m.max() + 1) + result.m
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    fields = [None] * (3 * len(first))
    fields[0::3] = result.k[first].tolist()
    fields[1::3] = result.m[first].tolist()
    fields[2::3] = result.e[first].tolist()
    heads = ("%d,%d,%.6f,\n" * len(first) % tuple(fields)).splitlines()
    fields = [None] * (3 * len(result.k))
    fields[0::3] = [heads[i] for i in inverse.tolist()]
    fields[1::3] = [result.names[i] for i in result.label.tolist()]
    fields[2::3] = result.d_e.tolist()
    text = "%s%s,%.6f\n" * len(result.k) % tuple(fields)
    return text.splitlines(keepends=True)


def _csv_rows(fi, lo, hi, row, tails):
    """analyze's CSV rows of particles lo to hi - 1 of frame fi: each one's
    id and the tail of its descriptor row."""
    fields = [None] * (2 * (hi - lo))
    fields[0::2] = range(lo, hi)
    fields[1::2] = [tails[r] for r in row[lo:hi].tolist()]
    return f"{fi},%d,%s" * (hi - lo) % tuple(fields)


def _label_counts(result):
    """{code: particles} of the labels a frame holds, codes in sorted order."""
    # label -1, for k < 2, counts at the last name, "-"
    counts = np.bincount(result.label[result.row] % len(result.names),
                         minlength=len(result.names))
    return {name: c for name, c in sorted(zip(result.names, counts.tolist()))
            if c}


def cmd_analyze(args):
    if args.summary == "-" and args.out in (None, "-"):
        raise ValueError("--summary - and the CSV (--out, default stdout) "
                         "cannot share stdout; write one of them to a file")
    _distinct_outputs("--out", args.out, "--summary", args.summary)
    if args.rcut is not None:
        _check_cutoff(args.rcut)
    _, catalog, disc, _ = _pipeline(args)
    descriptors = descriptor_arrays(catalog.geometries, disc)
    summary = []
    with _output(args.out) as out:
        for fi, frame in enumerate(iter_frames(args.path, fmt=args.format)):
            try:
                rcut, pairs = ((args.rcut, None) if args.rcut is not None
                               else auto_cutoff(frame))
            except ValueError as exc:
                raise ValueError(f"frame {fi}: {exc}; set the cutoff "
                                 f"explicitly with --rcut") from exc
            try:  # a refusal names its frame, as a reading error its line
                nl = neighbours_cutoff(frame, rcut, pairs)
                result = analyze_frame(frame, nl, catalog.codes, descriptors, disc)
            except ValueError as exc:
                raise ValueError(f"frame {fi}: {exc}") from exc
            tails = _tails(result)
            # no header on stdout ahead of a file refused at its first frame
            if fi == 0:
                out.write("frame,id,k,m,e,label,d_e\n")
            for lo, hi in row_blocks(nl.starts):
                out.write(_csv_rows(fi, lo, hi, result.row, tails))
            e = result.e[result.row]
            finite = e[~np.isnan(e)]
            summary.append({
                "frame": fi,
                "n": int(frame.n),
                "r_cut": float(rcut),
                "labels": _label_counts(result),
                "mean_e": float(finite.mean()) if len(finite) else None,
            })
        if args.summary:
            # allow_nan=False: never write a non-finite number as invalid JSON
            _write(args.summary,
                   json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return 0


def cmd_catalog(args):
    if args.action != "dump":
        raise ValueError(f"unknown catalog action {args.action!r}")
    _write(args.out, catalog_to_json(build_catalog()) + "\n")
    return 0


def cmd_axioms(args):
    *_, report = _derive(args)
    _write(args.out, str(report) + "\n")
    return 0 if report.passed else 1


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
