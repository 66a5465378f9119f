"""Span tracing for the traced benchmark run, kept entirely outside the program.

The CLI imports its layer functions by name (``from .snapshot import
read_frames``), so a wrapper takes effect only where the CLI looks the name
up: ``coordgeo.cli.<name>``.  The kernels are reached as
``kernels.<name>`` from ``coordgeo.snapshot``, so they are patched on
``coordgeo.kernels``.  A target the code no longer has is skipped and listed,
so a later refactor cannot break the traced run.

Each span records (name, start, end, parent, run id, counts).  Spans stay in
memory and are written out by the benchmark when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time

import numpy as np


def _bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _pairs(args, result):
    return {"pairs": int(len(result.indices))}


def _angle_pairs(args, result):
    k = np.diff(np.asarray(args["starts"]))
    return {"angle_pairs": int((k * (k - 1) // 2).sum())}


def _particles(args, result):
    return {"particles": int(len(args["kk"]))}


def _mds(args, result):
    return {"restarts": int(args["restarts"]),
            "winner_iterations": len(result.stress_trace) - 1}


# (module, attribute, span name, counter over bound arguments and result)
TARGETS = [
    ("coordgeo.cli", "main", "cli.main", None),
    ("coordgeo.cli", "cmd_analyze", "cli.analyze", None),
    ("coordgeo.cli", "cmd_table", "cli.table", None),
    ("coordgeo.cli", "cmd_distances", "cli.distances", None),
    ("coordgeo.cli", "cmd_tree", "cli.tree", None),
    ("coordgeo.cli", "cmd_embed", "cli.embed", None),
    ("coordgeo.cli", "cmd_graph", "cli.graph", None),
    ("coordgeo.cli", "cmd_typicality", "cli.typicality", None),
    ("coordgeo.cli", "build_catalog", "catalog.build_catalog", None),
    ("coordgeo.cli", "collect_pool", "angles.collect_pool", None),
    ("coordgeo.cli", "derive_discretizer", "angles.derive_discretizer", None),
    ("coordgeo.cli", "read_frames", "snapshot.read_frames", _bytes),
    ("coordgeo.cli", "auto_cutoff", "snapshot.auto_cutoff", None),
    ("coordgeo.cli", "neighbours_cutoff", "snapshot.neighbours_cutoff", _pairs),
    ("coordgeo.cli", "per_particle_e", "snapshot.per_particle_e", None),
    ("coordgeo.cli", "classify", "snapshot.classify", None),
    ("coordgeo.kernels", "profile_particles", "kernels.profile_particles",
     _angle_pairs),
    ("coordgeo.kernels", "classify_particles", "kernels.classify_particles",
     _particles),
    ("coordgeo.cli", "distance_matrix", "spacemap.distance_matrix", None),
    ("coordgeo.cli", "mds", "spacemap.mds", _mds),
    ("coordgeo.cli", "hierarchical_cluster", "spacemap.hierarchical_cluster",
     None),
    ("coordgeo.cli", "delaunay_2d", "spacemap.delaunay_2d", None),
    ("coordgeo.cli", "typicality", "spacemap.typicality", None),
]


class Tracer:
    """Collects spans; ``run_id`` groups the spans of one pass."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, run id, counts]
        self.stack = []
        self.run_id = None
        self.missing = []
        self._restore = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else None, self.run_id, {}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = counter(bound.arguments, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn, counter))
            self._restore.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore = []


def self_times(spans):
    """Self time of every span: its duration minus the time its children cover.

    Children of one span run one after another in a single thread, so the
    time they cover is the sum of their durations.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def per_run_totals(spans):
    """{run id: {span name: {"s": self seconds, "calls": n, counts...}}}."""
    own = self_times(spans)
    runs = {}
    for s, t in zip(spans, own):
        entry = runs.setdefault(s[4], {}).setdefault(s[0], {"s": 0.0, "calls": 0})
        entry["s"] += t
        entry["calls"] += 1
        for key, val in s[5].items():
            entry[key] = entry.get(key, 0) + val
    return runs
