"""Workload definitions for the coordgeo benchmark.

Every workload is one closed-loop client: a single worker process sends one
command at a time through ``coordgeo.cli.main`` and sends the next only when
the previous one has returned.  A *pass* is the workload's whole command
list; the benchmark repeats passes for the measured time.

Inputs are made here from the seed alone, with numpy and without calling
coordgeo, so a change to the program cannot change what it is fed.  The seed
only moves particles; frame kinds, sizes and noise levels are fixed, so the
amount of work is nearly the same for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# One length scale for all crystals: FCC and HCP nearest neighbours and the
# BCC cube edge (its second shell) sit at L, the next shell at sqrt(2) L.  The
# fixed cutoff 1.2 L therefore catches 12 (FCC), 12 (HCP) and 8+6 (BCC).
L = 1.0 / 1.2
RCUT = 1.0

SQ3 = math.sqrt(3.0)

# kind -> (conventional cell edges, fractional basis, nearest-neighbour distance)
_CELLS = {
    "fcc": (np.full(3, L * math.sqrt(2.0)),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                      [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
            L),
    # orthorhombic 4-atom cell, ideal c/a = sqrt(8/3)
    "hcp": (np.array([L, L * SQ3, L * math.sqrt(8.0 / 3.0)]),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                      [0.5, 5.0 / 6.0, 0.5], [0.0, 1.0 / 3.0, 0.5]]),
            L),
    "bcc": (np.full(3, L),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
            L * SQ3 / 2.0),
}

# the catalog code a clean crystal of each kind is labelled with
KNOWN_LABEL = {"fcc": "FCC", "hcp": "HCP", "bcc": "BCC"}


@dataclass
class FrameSpec:
    kind: str
    cells: tuple
    noise: float      # per-coordinate standard deviation, as a share of the NN distance
    periodic: bool = True

    @property
    def n(self) -> int:
        return len(_CELLS[self.kind][1]) * int(np.prod(self.cells))


@dataclass
class Workload:
    name: str
    why: str            # why the workload exists, one line (BENCHMARK.json "why")
    stresses: str       # the layers it is meant to load
    passes_on: str      # what it should leave unchanged
    frames: list = field(default_factory=list)        # FrameSpec, full size
    smoke_frames: list = field(default_factory=list)  # FrameSpec, smoke size
    rcut: float | None = None                         # None: analyze picks it

    @property
    def snapshot(self) -> bool:
        return bool(self.frames)


def _crystal_frames(fcc, hcp, bcc):
    return [FrameSpec("fcc", fcc, 0.005), FrameSpec("hcp", hcp, 0.005),
            FrameSpec("bcc", bcc, 0.005)]


def _melt_frames(sizes):
    # kinds cycle with period 3 and noise levels with period 4, so the twelve
    # frames hold every (kind, noise) pair once; the last four have no box
    levels = (0.04, 0.06, 0.08, 0.10)
    kinds = ("fcc", "hcp", "bcc")
    return [FrameSpec(kinds[i % 3], sizes[kinds[i % 3]], levels[i % 4],
                      periodic=i < 8)
            for i in range(12)]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="crystal-fixed-rcut",
            why="FCC, HCP and BCC crystals of ~4000 particles with 0.5 % noise "
                "and one --rcut: neighbour search and the angle profile do the "
                "work; the true labels are known",
            stresses="snapshot.neighbours_cutoff, kernels.profile_particles "
                     "(run twice per frame), kernels.classify_particles",
            passes_on="snapshot.auto_cutoff and spacemap.mds are never called",
            # rms displacement 0.87 % of the nearest-neighbour distance
            frames=_crystal_frames((10, 10, 10), (14, 8, 9), (13, 13, 13)),
            smoke_frames=_crystal_frames((3, 3, 3), (4, 3, 3), (4, 4, 4)),
            rcut=RCUT,
        ),
        Workload(
            name="melt-auto-rcut",
            why="twelve ~1000-particle crystals displaced by 4-10 % of the NN "
                "distance, a third without a box, cutoff from the RDF: "
                "auto_cutoff and the disordered angle profile dominate",
            stresses="snapshot.auto_cutoff (periodic and open boundary), "
                     "snapshot.read_frames, CSV writing, the cluster-merge loop "
                     "of kernels.profile_particles (k from about 11 to 17)",
            passes_on="spacemap.mds is never called",
            frames=_melt_frames({"fcc": (7, 6, 6), "hcp": (9, 5, 6),
                                 "bcc": (8, 8, 8)}),
            smoke_frames=_melt_frames({"fcc": (3, 3, 3), "hcp": (4, 3, 3),
                                       "bcc": (4, 4, 4)})[::4],
        ),
        Workload(
            name="spacemap",
            why="the README catalog commands table, distances, tree, embed, "
                "graph and typicality in sequence with 20 restarts: SMACOF "
                "dominates and no snapshot layer runs",
            stresses="spacemap.mds (three identical 8-D embeddings and one 2-D "
                     "embedding per pass), spacemap.distance_matrix",
            passes_on="no snapshot layer runs",
        ),
    ]
}


def _lattice(spec: FrameSpec, rng):
    edges, basis, nn = _CELLS[spec.kind]
    grid = np.stack(np.meshgrid(*(np.arange(c) for c in spec.cells),
                                indexing="ij"), axis=-1).reshape(-1, 1, 3)
    pos = ((grid + basis[None, :, :]) * edges).reshape(-1, 3)
    pos = pos + rng.normal(scale=spec.noise * nn, size=pos.shape)
    box = np.diag(edges * np.asarray(spec.cells, dtype=float))
    return pos, box


def write_trajectory(path: Path, specs, seed: int) -> int:
    """Write the frames as extended XYZ; return the file size in bytes."""
    rng = np.random.default_rng(seed)
    out = []
    for spec in specs:
        pos, box = _lattice(spec, rng)
        out.append(str(len(pos)))
        props = "Properties=species:S:1:pos:R:3"
        if spec.periodic:
            nums = " ".join(f"{x:.10g}" for x in box.reshape(-1))
            out.append(f'Lattice="{nums}" {props}')
        else:
            out.append(props)
        out.extend(f"X {x:.10f} {y:.10f} {z:.10f}" for x, y, z in pos)
    path.write_text("\n".join(out) + "\n")
    return path.stat().st_size


def commands(workload: Workload, seed: int, inputs: Path, smoke: bool):
    """The CLI argument lists of one pass; "{out}" stands for the pass directory."""
    if workload.snapshot:
        argv = ["analyze", str(inputs / "traj.extxyz"),
                "--out", "{out}/analyze.csv", "--summary", "{out}/summary.json"]
        if workload.rcut is not None:
            argv += ["--rcut", repr(workload.rcut)]
        return [argv]
    common = ["--seed", str(seed)] + (["--restarts", "2"] if smoke else [])
    return [
        ["table", "--out", "{out}/table.csv"] + common,
        ["distances", "--out", "{out}/distances.csv"] + common,
        ["tree", "--out", "{out}/tree.nwk", "--dot", "{out}/tree.dot"] + common,
        ["embed", "--out", "{out}/embed.csv"] + common,
        ["graph", "--out", "{out}/graph.dot"] + common,
        ["typicality", "--out", "{out}/typicality.csv"] + common,
    ]


def make_inputs(workload: Workload, seed: int, inputs: Path, smoke: bool) -> dict:
    """Write the workload's input files; return their sizes."""
    specs = workload.smoke_frames if smoke else workload.frames
    if not specs:
        return {"particles": 0, "frames": 0, "bytes": 0, "frame_n": []}
    nbytes = write_trajectory(inputs / "traj.extxyz", specs, seed)
    return {"particles": sum(s.n for s in specs), "frames": len(specs),
            "bytes": nbytes, "frame_n": [s.n for s in specs],
            "frame_kind": [s.kind for s in specs]}
