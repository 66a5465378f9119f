"""Particle snapshots: file I/O, neighbour search and per-particle structure.

Trajectories are streamed: iter_frames yields one frame at a time from the
open file, so memory holds one frame whatever the file length, and none of
its text once the frame is parsed (_read_frame).  A frame's
coordinates are read by numpy's C parser, and by a line loop only to name
the line it refuses.  Neighbourhoods come from a cutoff search
(kernels.pairs_within: a numpy cell list for every box, minimum image under
a periodic box) at a given cutoff, or at the first RDF minimum.  auto_cutoff
bins the pairs the same cell list finds within two mean spacings, doubling
that reach while it holds no minimum, in bins of a fixed width in spacings
on a large frame, and returns those within the cutoff it picks as the
search's own (i, j) chunks: the first reach's, each cut at that cutoff, or
those of one search at the cutoff after a doubled reach, which only bins.
neighbours_cutoff hands them to kernels.pairs_csr in place of a search of
its own.  Both take a frame's lengths from _extent alone.  Each
particle's bond angles are discretized with the catalog discretizer into the
catalog's descriptor format: k and the per-class counts f of distinct
measured angles, with m = f.sum().  The per-particle coefficient uses k and
m, and classification picks the nearest catalog geometry under
coefficients.distances, the d_E that builds the distance matrix.
analyze_frame, the one per-frame function, gives both from one profiling
pass over blocks of rows (kernels.row_blocks), so that memory holds one
frame's neighbour lists and per-particle results plus one block of fixed
size, not every bond of the frame at once.  A crystal holds few distinct
descriptors, so each distinct (k, f) row of a block is classified once, and
the result is that table (FrameResult) with each particle's row in it.  It
takes the catalog's descriptor arrays from its caller, which builds them
once for all frames.  Coincident particles raise ValueError.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .angles import Discretizer

RDF_BINS = 200  # auto_cutoff's histogram bins over RDF_SPAN spacings or less
RDF_SPAN = 10    # mean particle spacings that RDF_BINS bins cover at most
RDF_CAP = 2.0    # auto_cutoff's first pair search, in mean particle spacings

__all__ = [
    "Frame",
    "iter_frames",
    "write_frames",
    "NeighbourList",
    "neighbours_cutoff",
    "auto_cutoff",
    "FrameResult",
    "analyze_frame",
    "make_lattice",
]


@dataclass
class Frame:
    """Particle positions with an optional periodic cell and species labels."""

    positions: np.ndarray
    box: np.ndarray | None = None
    species: list | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.shape[1:] != (3,):
            raise ValueError(f"positions must have shape (N, 3), "
                             f"got {self.positions.shape}")
        if len(self.positions) < 1:
            raise ValueError("frame needs at least one particle")
        if not np.isfinite(self.positions).all():
            raise ValueError("non-finite coordinates")
        if self.box is None:
            with np.errstate(over="ignore"):
                if not np.isfinite(np.ptp(self.positions, axis=0)).all():
                    raise ValueError("the open frame's extent overflows: its "
                                     "bounding box edges exceed the float range")
        else:
            self.box = np.asarray(self.box, dtype=float).reshape(3, 3)
            if not np.isfinite(self.box).all():
                raise ValueError("non-finite periodic box")
            # against the volume of a box of the same edge lengths, so that
            # the test does not depend on the unit of length
            with np.errstate(over="ignore"):
                lengths = np.prod(np.linalg.norm(self.box, axis=1))
                volume = abs(np.linalg.det(self.box))
            if not (np.isfinite(volume) and np.isfinite(lengths)):
                raise ValueError("periodic box overflows: its volume or edge "
                                 "lengths exceed the float range")
            if volume <= 1e-12 * lengths:
                raise ValueError("singular periodic box")
        if self.species is not None and len(self.species) != len(self.positions):
            raise ValueError("species length mismatch")

    @property
    def n(self) -> int:
        return len(self.positions)


def _is_atom_line(line):
    try:
        return len([float(x) for x in line.split()[1:4]]) == 3
    except ValueError:
        return False


def _quoted(comment, key):
    """The text of the entry key="..." of a comment line, or None.  The key
    starts the line or follows a blank, so OrigLattice is not Lattice."""
    head = re.search(rf'(?:^|\s){key}="', comment)
    if head is None:
        return None
    end = comment.find('"', head.end())
    if end < 0:
        raise ValueError(f"unterminated {key} entry")
    return comment[head.end():end]


def _check_properties(path, line, comment):
    """Refuse, as path:line, a Properties entry unless x y z are its columns
    2-4, where the atom lines are read: one single-column entry (the
    species), then pos:R:3, then any others."""
    head = re.search(r'(?:^|\s)Properties="?([^\s"]*)', comment)
    if head is None:
        return
    fields = head.group(1).split(":")
    if fields[2:6] == ["1", "pos", "R", "3"]:
        return
    names, counts = fields[::3], fields[2::3]
    before = counts[:names.index("pos")] if "pos" in names else None
    if before is not None and all(c.isdigit() for c in before):
        where = f"pos at column {1 + sum(map(int, before))}"
    else:
        where = "no pos column the reader can place"
    raise ValueError(f"{path}:{line}: Properties entry {head.group(1)!r} has "
                     f"{where}; the reader needs one single-column entry, "
                     f"then pos:R:3")


def _parse_extxyz_comment(comment):
    """(lattice, periodic) of an extended-XYZ comment line.

    lattice is the 3 x 3 Lattice entry, or None without one.  periodic is
    False when the pbc entry is "F F F" (an open frame), else True; mixed
    flags, a frame periodic along some axes only, are refused.
    """
    text = _quoted(comment, "Lattice")
    lattice = None
    if text is not None:
        nums = [float(x) for x in text.split()]
        if len(nums) != 9:
            raise ValueError("Lattice entry must hold 9 numbers")
        lattice = np.array(nums).reshape(3, 3)
    pbc = _quoted(comment, "pbc")
    if pbc is None:
        return lattice, True
    flags = pbc.upper().split()
    if len(flags) != 3 or not set(flags) <= {"T", "F", "TRUE", "FALSE"}:
        raise ValueError(f"pbc entry must hold 3 flags T or F, got {pbc!r}")
    periodic = {f.startswith("T") for f in flags}
    if len(periodic) > 1:
        raise ValueError(f"mixed pbc flags {pbc!r}: a frame must be periodic "
                         f"along all three axes or none")
    if True in periodic and lattice is None:
        raise ValueError("periodic pbc flags without a Lattice entry")
    return lattice, True in periodic


def _parse_atoms(path, first, atoms):
    """(species, positions) of atom lines, the first of them line `first`.

    numpy's C parser reads the coordinates; on lines it refuses or skips (a
    blank one), the line loop reads them again with float(), which accepts
    more (1_0, for instance) and names the first bad line as path:line.
    """
    try:
        pos = np.loadtxt(atoms, usecols=(1, 2, 3), comments=None, ndmin=2)
    except ValueError:
        pos = None
    if pos is not None and len(pos) == len(atoms):
        return [line.split(None, 1)[0] for line in atoms], pos
    species, pos = [], []
    for j, record in enumerate(atoms):
        parts = record.split()
        try:
            if len(parts) < 4:
                raise ValueError("expected 'symbol x y z'")
            pos.append([float(parts[1]), float(parts[2]), float(parts[3])])
        except ValueError as exc:
            raise ValueError(f"{path}:{first + j}: {exc}") from None
        species.append(parts[0])
    return species, np.array(pos)


def _parse_frame(path, start, comment, atoms, fmt):
    """Frame whose atom count is on line `start`; comment is None if omitted."""
    first = start + 1 if comment is None else start + 2
    _check_properties(path, start + 1, comment or "")
    species, pos = _parse_atoms(path, first, atoms)
    bad = ~np.isfinite(pos).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{first + int(np.argmax(bad))}: "
                         f"non-finite coordinates")
    try:  # errors of the box, from the comment line
        box = None
        if fmt != "xyz":
            box, periodic = _parse_extxyz_comment(comment or "")
            if box is None and fmt == "extxyz":
                raise ValueError("missing Lattice entry")
            if not periodic:
                box = None
        return Frame(positions=pos, box=box, species=species)
    except ValueError as exc:
        raise ValueError(f"{path}:{start + 1}: {exc}") from None


def _check_format(fmt):
    if fmt not in ("auto", "xyz", "extxyz"):
        raise ValueError(f"unknown format {fmt!r}; expected auto, xyz or extxyz")


def iter_frames(path, fmt: str = "auto"):
    """Yield the frames of an XYZ or extended-XYZ trajectory one at a time.

    fmt is "auto" (a Lattice entry gives the periodic box when present),
    "xyz" (no box) or "extxyz" (a Lattice entry is required).  A pbc entry
    of "F F F" makes the frame open whatever its Lattice, and mixed flags
    raise.  The file is read as the frames are consumed, so a bad record
    raises, naming path:line, only when its frame is reached.  A last frame
    may omit its comment line.  x y z are read from columns 2-4, so a
    Properties entry must open with one single-column entry, then pos:R:3.
    The file is decoded as UTF-8 and an undecodable byte reads as U+FFFD, so
    one in a count or a coordinate is refused at its line.
    """
    _check_format(fmt)
    found = False
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = enumerate(fh, start=1)
        for start, head in lines:
            if not head.strip():
                continue
            # the frame's lines are locals of _read_frame alone, so the
            # suspended generator holds none of them
            yield _read_frame(path, lines, start, head, fmt)
            found = True
    if not found:
        raise ValueError(f"{path}: no frames found")


def _read_frame(path, lines, start, head, fmt):
    """The frame whose atom count, head, is line `start`, its other lines
    taken from lines, an enumerate() of the file's lines."""
    try:
        natoms = int(head)
    except ValueError:
        natoms = 0
    if natoms < 1:
        raise ValueError(f"{path}:{start}: expected a positive atom "
                         f"count, got {head.strip()!r}")
    block = [text for _, text in itertools.islice(lines, natoms + 1)]
    if len(block) == natoms + 1:
        comment, atoms = block[0], block[1:]
    elif len(block) == natoms and _is_atom_line(block[0]):
        comment, atoms = None, block  # comment-less last frame
    else:
        raise ValueError(f"{path}:{start}: frame truncated "
                         f"({natoms} atoms declared)")
    return _parse_frame(path, start, comment, atoms, fmt)


def write_frames(path, frames, fmt: str = "auto") -> None:
    """Write frames as (extended-)XYZ; a frame with a box gets a Lattice entry
    unless fmt is "xyz", and "extxyz" refuses a frame without one.  A species
    that is empty or holds whitespace, which the reader could not split from
    the coordinates, is refused before anything is written."""
    _check_format(fmt)
    out = []
    for i, fr in enumerate(frames):
        if fr.box is None and fmt == "extxyz":
            raise ValueError(f"frame {i} has no box; extxyz needs one")
        out.append(str(fr.n))
        if fr.box is not None and fmt != "xyz":
            nums = " ".join(f"{x:.10g}" for x in fr.box.reshape(-1))
            out.append(f'Lattice="{nums}" Properties=species:S:1:pos:R:3')
        else:
            out.append("")
        species = fr.species or ["X"] * fr.n
        for j, (s, p) in enumerate(zip(species, fr.positions)):
            if str(s).split() != [str(s)]:
                raise ValueError(f"frame {i}: particle {j}: species {s!r} is "
                                 f"empty or holds whitespace")
            out.append(f"{s} {p[0]:.10f} {p[1]:.10f} {p[2]:.10f}")
    Path(path).write_text("\n".join(out) + "\n")


@dataclass
class NeighbourList:
    """CSR neighbour lists: neighbours of i are indices[starts[i]:starts[i+1]]."""

    starts: np.ndarray
    indices: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.starts)


def _extent(frame):
    """(width, volume): a periodic box's smallest perpendicular width and
    abs(det), or an open frame's bounding-box diagonal and volume, either of
    which may be inf (Frame refuses bounding-box edges that overflow)."""
    if frame.box is not None:
        return (kernels._perpendicular_widths(frame.box).min(),
                abs(np.linalg.det(frame.box)))
    span = np.ptp(frame.positions, axis=0)
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(span)), float(np.prod(span))


def _check_cutoff(r_cut):
    if not 0 < r_cut < np.inf:
        raise ValueError("r_cut must be positive and finite")


def neighbours_cutoff(frame: Frame, r_cut: float, pairs=None) -> NeighbourList:
    """All neighbours within r_cut (minimum image when the frame is periodic),
    each row sorted, from the cell-list kernel.

    pairs, when given, are the (i, j) chunks of every pair within r_cut, each
    pair once, as auto_cutoff returns them; they go to kernels.pairs_csr in
    place of a search of this function's own.  A periodic r_cut above half
    the smallest box width, or an open-frame r_cut that reaches the
    bounding-box diagonal of three or more particles (every particle would
    neighbour all others), raises ValueError.
    """
    _check_cutoff(r_cut)
    width, _ = _extent(frame)
    if frame.box is not None:
        if r_cut > 0.5 * width:
            raise ValueError(
                f"r_cut={r_cut} exceeds half the smallest box width "
                f"({0.5 * width:.6g}); minimum image is ambiguous")
    elif frame.n >= 3 and r_cut >= width:  # an inf diagonal is never reached
        raise ValueError(
            f"r_cut={r_cut} reaches the diagonal of the open frame's "
            f"bounding box ({width:.6g}); every particle would "
            f"neighbour all {frame.n - 1} others")
    if pairs is None:
        pairs = kernels.pairs_within(frame.positions, frame.box, r_cut)
    return NeighbourList(*kernels.pairs_csr(frame.n, pairs))


def auto_cutoff(frame: Frame):
    """Cutoff at the first minimum of the radial distribution function, and
    the (i, j) chunks of every pair within it, each pair once, as
    kernels.pairs_within yields them less r2, for neighbours_cutoff.

    The RDF runs out to rmax, half the box width (half the diagonal of an
    open frame), in bins of rmax / RDF_BINS, or of RDF_SPAN / RDF_BINS mean
    spacings when rmax spans more than RDF_SPAN of them (at most one bin per
    particle).  The mean spacing is (V/N)^(1/3), with V the box volume or the
    bounding-box volume of an open frame.  The RDF is filled from the pairs
    within a reach of RDF_CAP spacings (rmax when V = 0), found by the cell
    list kernels.pairs_within, and read only below that reach; while those
    bins hold no minimum after the peak, the reach doubles, up to rmax.  The
    answer differs from binning every pair out to rmax only on a frame whose
    smoothed g(r) peaks beyond the bins read.

    Structures whose first two shells nearly coincide (the 8+6 split of a
    body-centred cubic crystal, for instance) keep a genuine RDF minimum
    between those shells; pass an explicit cutoff to treat them as one
    coordination shell.
    """
    pos, box = frame.positions, frame.box
    width, volume = _extent(frame)
    if box is not None:
        rmax = 0.499 * width
    elif math.isfinite(width) and math.isfinite(volume):
        # a frame of coincident particles has no length scale of its own
        rmax = width / 2.0 or 1e-9
    else:
        raise ValueError("the open frame's extent overflows: its bounding "
                         "box diagonal or volume exceeds the float range")
    spacing = (volume / frame.n) ** (1.0 / 3.0)
    nbins = RDF_BINS
    if rmax > RDF_SPAN * spacing > 0.0:
        nbins = min(math.ceil(RDF_BINS * rmax / (RDF_SPAN * spacing)),
                    max(RDF_BINS, frame.n))
    reach = RDF_CAP * spacing or rmax
    # only a first reach below rmax keeps its chunks (those of a doubled one
    # grow as its cube); otherwise one more search at r_cut gives the pairs
    kept = [] if reach < rmax else None
    while (r_cut := _rdf_minimum(pos, box, rmax, nbins, min(reach, rmax),
                                 kept)) is None:
        reach *= 2.0
        kept = None
    if kept is None:
        return r_cut, [(i, j) for i, j, _ in
                       kernels.pairs_within(pos, box, r_cut)]
    for c, (i, j, r2) in enumerate(kept):
        keep = r2 <= r_cut * r_cut
        kept[c] = i[keep], j[keep]
    return r_cut, kept


def _rdf_minimum(pos, box, rmax, nbins, reach, kept):
    """auto_cutoff's r_cut, binning the pairs within reach <= rmax into nbins
    bins out to rmax, and appending the search's (i, j, r2) chunks to kept
    unless it is None.

    Below rmax, the smoothed g(r) is read only where its 5-bin window lies
    in bins wholly below reach: the peak is taken among those bins, and a
    minimum needs its right neighbour read too.  Too few such bins, or no
    minimum among them, give None.  At rmax every bin is read: no pairs
    raise ValueError, and no minimum gives the bin nbins // 10 past the
    peak.
    """
    edges = np.histogram_bin_edges([], nbins, range=(0.0, rmax))
    capped = reach < rmax
    # the smoothed bins read: those whose window ends below reach
    top = int(np.count_nonzero(edges[1:] < reach)) - 2 if capped else nbins
    if top < 3:
        return None
    hist = np.zeros(nbins, dtype=np.int64)
    for i, j, r2 in kernels.pairs_within(pos, box, reach):
        hist += np.bincount(_rdf_bins(np.sqrt(r2), edges), minlength=nbins)
        if kept is not None:
            kept.append((i, j, r2))
    if not capped and not hist.any():
        raise ValueError("no pairs found; cannot estimate a cutoff")
    centers = 0.5 * (edges[:-1] + edges[1:])
    g = hist / centers ** 2  # shell-volume normalization; centers > 0
    g = np.convolve(g, np.ones(5) / 5.0, mode="same")
    peak = int(np.argmax(g[:top]))
    r_cut = next((float(centers[i]) for i in range(peak + 1, top - 1)
                  if g[i] <= g[i - 1] and g[i] < g[i + 1]), None)
    if r_cut is None and not capped:
        r_cut = float(centers[min(peak + nbins // 10, nbins - 1)])
    return r_cut


def _rdf_bins(r, edges):
    """The bin of each distance r >= 0 among the equal bins between edges,
    those beyond the last edge left out: np.histogram's bins for a range
    from 0, bit for bit, by its own steps.  The index is r over the range
    times the bin count, the last edge falls in the last bin, and one
    comparison each way with the edges moves an index that rounding put one
    bin off."""
    nbins = len(edges) - 1
    rmax = edges[-1]
    inside = r <= rmax
    if not inside.all():
        r = r[inside]
    idx = (r / rmax * nbins).astype(np.intp)
    np.minimum(idx, nbins - 1, out=idx)
    idx -= r < edges[idx]
    idx += (r >= edges[idx + 1]) & (idx != nbins - 1)
    return idx


def _coefficient(kk, mm):
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log2((kk * kk - kk) / (2.0 * mm))
    e[kk < 2] = np.nan
    return e


@dataclass
class FrameResult:
    """analyze_frame's result: a table with one row per distinct descriptor
    (k, f) of each row block, and each particle's row in it.

    The table's columns are k; m, the distinct bond angles; e, in bits;
    label, an index into names; and d_e, the distance in bits to the
    labelled geometry.  names is the catalog's codes followed by "-", so
    label -1, for k < 2, reads "-".  Particle i has k[row[i]], label
    names[label[row[i]]], and so on.
    """

    names: tuple
    k: np.ndarray
    m: np.ndarray
    e: np.ndarray
    label: np.ndarray
    d_e: np.ndarray
    row: np.ndarray


def _distinct_rows(kk, fcounts):
    """(first, inverse): the first row of each distinct (k, f) row, and each
    row's index among them.

    The key is each row packed at the smallest unsigned type that holds the
    largest entry, viewed as one void item, so np.unique compares whole rows
    exactly.
    """
    rows = np.column_stack([kk, fcounts])
    rows = rows.astype(np.min_scalar_type(rows.max()))
    key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(key.ravel(), return_index=True,
                                  return_inverse=True)
    return first, inverse.ravel()


def analyze_frame(frame: Frame, nl: NeighbourList, codes, descriptors,
                  disc: Discretizer) -> FrameResult:
    """Coefficients and labels of every particle from one profiling pass.

    codes are the catalog's codes and descriptors their (k, f) arrays under
    disc, as coefficients.descriptor_arrays gives them: a command builds
    them once for all its frames.

    m counts the distinct bond angles, where discretized values in one bin
    closer than kernels.VALUE_RESOLUTION merge (this separates HCP from BPP
    yet ignores thermal noise); labels are the nearest catalog codes under
    d_E, ties to the lower catalog index.  A particle with k < 2 gets
    e = NaN, m = 0, label "-" and distance NaN.

    The pass runs over kernels.row_blocks of the neighbour lists: each block
    is profiled, and each distinct (k, f) row of the block is classified
    once (_distinct_rows).  A particle's results depend on its own row
    alone, so they do not depend on the blocks.
    """
    cat_k, cat_f = descriptors
    table = []
    row = np.empty(frame.n, dtype=np.int64)
    rows = 0
    for lo, hi in kernels.row_blocks(nl.starts):
        starts = nl.starts[lo:hi + 1]
        kk, fcounts = kernels.profile_particles(
            frame.positions, frame.box, starts - starts[0],
            nl.indices[starts[0]:starts[-1]], disc.bin_edges, first=lo)
        first, inverse = _distinct_rows(kk, fcounts)
        row[lo:hi] = rows + inverse
        rows += len(first)
        kk, fcounts = kk[first], fcounts[first]
        table.append((kk, fcounts.sum(axis=1),
                      *kernels.classify_particles(kk, fcounts, cat_k, cat_f)))
    kk, mm, label, dists = (np.concatenate(col) for col in zip(*table))
    return FrameResult((*codes, "-"), kk, mm, _coefficient(kk, mm), label,
                       dists, row)


_LATTICE_BASES = {
    # conventional cells at a = 1 (cubic; the orthorhombic 4-atom cell of
    # HCP, ideal c/a = sqrt(8/3)) and their fractional bases
    "sc": (np.eye(3), np.array([[0.0, 0.0, 0.0]])),
    "bcc": (np.eye(3), np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])),
    "fcc": (np.eye(3), np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                                 [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])),
    "hcp": (np.diag([1.0, np.sqrt(3.0), np.sqrt(8.0 / 3.0)]),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                      [0.5, 5.0 / 6.0, 0.5], [0.0, 1.0 / 3.0, 0.5]])),
}


def make_lattice(kind: str, cells, a: float = 1.0, noise: float = 0.0,
                 seed: int = 0) -> Frame:
    """Periodic crystal frame of the given lattice type.

    cells is the number of conventional cells per axis (int or 3-tuple);
    noise adds per-coordinate Gaussian displacement of the given standard
    deviation (absolute length units).  Sites are in cell order (x slowest),
    the basis within each cell.
    """
    kind = kind.lower()
    if isinstance(cells, int):
        cells = (cells, cells, cells)
    nx, ny, nz = cells
    if kind not in _LATTICE_BASES:
        raise ValueError(f"unknown lattice {kind!r}")
    cell, basis = _LATTICE_BASES[kind]
    cell = cell * a
    shifts = np.indices((nx, ny, nz)).reshape(3, -1).T
    # a diagonal cell makes each coordinate one product, bit for bit
    pos = (shifts[:, None, :] + basis).reshape(-1, 3) @ cell
    box = cell * np.array([[nx], [ny], [nz]])
    if noise > 0:
        rng = np.random.default_rng(seed)
        pos = pos + rng.normal(scale=noise, size=pos.shape)
    return Frame(positions=pos, box=box, species=["X"] * len(pos))
