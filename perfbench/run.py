"""coordgeo benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (no install needed; ``src/`` is put on
the worker's path):

    python3 perfbench/run.py --workload crystal-fixed-rcut --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run makes the workload's inputs from the seed, then starts one worker
process that repeats passes of the workload's CLI commands for the given
seconds.  Before and after the worker, fresh processes that import coordgeo
and build the catalog and discretizer are timed (``setup_s``, their median).  With ``--trace 1`` the worker alternates untraced and
traced passes; the traced ones give the per-layer metrics and the difference
gives the tracing overhead.  Every pass's artifacts are checked afterwards.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  The full
report, with environment, quality figures and spans, is written to
``.perfbench-out/``.  ``--smoke`` runs every workload once on tiny inputs and
checks that every metric is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"    # reports; work directories are removed after a run
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from tracing import per_run_totals  # noqa: E402
from workloads import KNOWN_LABEL, WORKLOADS, commands, make_inputs  # noqa: E402

# name -> (unit, better); the contract metrics of BENCHMARK.json "end_to_end"
END_TO_END = {
    "wall_s": ("s", "lower"),            # median seconds per pass, untraced
    "setup_s": ("s", "lower"),           # fresh process: import, catalog, discretizer
    "peak_rss_mb": ("MB", "lower"),      # peak resident memory of the worker
}
# end-to-end figures that exist only on some workloads or can be 0, so they are
# reported and gated but carry no regression bound
QUALITY = {
    "particles_per_s": ("1/s", "higher"),         # snapshot workloads
    "failed_fraction": ("1", "lower"),            # all workloads
    "label_agreement": ("1", "higher"),           # crystal-fixed-rcut
    "unclassified_fraction": ("1", "lower"),      # snapshot workloads
    "embed_stress": ("1", "lower"),               # spacemap
}
# the per-layer metrics of BENCHMARK.json "per_layer" (--trace 1); all are
# means over the traced passes of one run, per pass
PER_LAYER = {
    "snapshot.read_frames.s": ("s", "lower"),
    "snapshot.read_frames.bytes": ("B", "lower"),
    "snapshot.auto_cutoff.s": ("s", "lower"),
    "snapshot.auto_cutoff.calls": ("count", "lower"),
    "snapshot.neighbours_cutoff.s": ("s", "lower"),
    "snapshot.neighbours_cutoff.pairs": ("count", "lower"),
    "snapshot.neighbours_cutoff.pairs_per_s": ("1/s", "higher"),
    "snapshot.per_particle_e.s": ("s", "lower"),
    "snapshot.classify.s": ("s", "lower"),
    "kernels.profile_particles.s": ("s", "lower"),
    "kernels.profile_particles.calls_per_frame": ("1/frame", "lower"),
    "kernels.profile_particles.angle_pairs": ("count", "lower"),
    "kernels.classify_particles.s": ("s", "lower"),
    "kernels.classify_particles.particles": ("count", "higher"),
    "cli.analyze.self_s": ("s", "lower"),
    "catalog.build_catalog.s": ("s", "lower"),
    "angles.collect_pool.s": ("s", "lower"),
    "angles.derive_discretizer.s": ("s", "lower"),
    "spacemap.distance_matrix.s": ("s", "lower"),
    "spacemap.distance_matrix.calls": ("count", "lower"),
    "spacemap.mds.s": ("s", "lower"),
    "spacemap.mds.calls": ("count", "lower"),
    "spacemap.mds.restarts": ("count", "lower"),
    "spacemap.mds.winner_iterations": ("count", "lower"),
    "spacemap.hierarchical_cluster.s": ("s", "lower"),
    "spacemap.delaunay_2d.s": ("s", "lower"),
    "spacemap.typicality.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# set-up is timed in fresh processes before and after the worker, so that a
# burst of load on the machine hits few of the samples
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
SETUP_SNIPPET = ("import coordgeo as cg, coordgeo.cli; "
                 "cg.derive_discretizer(cg.collect_pool(cg.build_catalog()))")


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _measure_setup(env, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, check=True,
                       timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _layer_metrics(spans, passes, frames):
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    untraced = [p["s"] for p in passes if not p["traced"]]
    runs = per_run_totals(spans)

    def mean(span, key):
        return statistics.fmean(runs.get(i, {}).get(span, {}).get(key, 0)
                                for i in traced)

    # "<span>.<key>" is the span's self time (s, self_s) or a count it recorded
    out = {}
    for name in PER_LAYER:
        span, key = name.rsplit(".", 1)
        out[name] = mean(span, "s" if key == "self_s" else key)
    # the CLI's own time: argument parsing, formatting and writing, every command
    out["cli.self_s"] = sum(mean(span, "s") for span in
                            {n for r in runs.values() for n in r if n.startswith("cli.")})
    s = out["snapshot.neighbours_cutoff.s"]
    out["snapshot.neighbours_cutoff.pairs_per_s"] = (
        out["snapshot.neighbours_cutoff.pairs"] / s if s > 0 else 0.0)
    out["kernels.profile_particles.calls_per_frame"] = (
        mean("kernels.profile_particles", "calls") / frames if frames else 0.0)
    traced_wall = statistics.fmean(passes[i]["s"] for i in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = mean("pass", "s")
    out["trace.overhead_s"] = traced_wall - statistics.fmean(untraced)
    return {name: out[name] for name in PER_LAYER}


def _check_passes(workload, passes, outdir, sizes, cmds, reference):
    """Gate every pass; return (units over all passes, quality and digests of pass 0)."""
    import coordgeo

    codes = list(coordgeo.build_catalog().codes)
    all_units = []
    first = None
    quality = {}
    for i, p in enumerate(passes):
        pdir = outdir / f"pass{i:03d}"
        if workload.snapshot:
            known = ([KNOWN_LABEL[k] for k in sizes["frame_kind"]]
                     if workload.rcut is not None else None)
            units, q = checks.check_analyze(pdir, sizes, known, workload.rcut,
                                            set(codes))
        else:
            units, q = checks.check_spacemap(pdir, codes)
        by_name = {u["unit"]: u for u in units}
        for argv, status in zip(cmds, p["status"]):
            if status != 0:
                by_name[argv[0]]["failures"].append(f"exit status {status!r}")
        got = checks.digests(pdir)
        # outputs must be byte-identical from pass to pass, and for the
        # default seed identical to the recorded digests
        expected = reference or first
        if expected is not None:
            for art in sorted(set(got) | set(expected)):
                if got.get(art) != expected.get(art):
                    unit = "analyze" if workload.snapshot else art.split(".")[0]
                    by_name[unit]["failures"].append(f"{art} digest differs")
        if first is None:
            first, quality = got, q
        all_units.extend(units)
    return all_units, quality, first


def _tag(name, seed, trace, smoke):
    return f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")


def expected_metrics(workload):
    """Every metric a traced run of the workload must emit."""
    names = set(END_TO_END) | set(PER_LAYER) | {"failed_fraction"}
    if not workload.snapshot:
        return names | {"embed_stress"}
    names |= {"particles_per_s", "unclassified_fraction"}
    return names | ({"label_agreement"} if workload.rcut is not None else set())


def run_workload(name, seed, seconds, trace, smoke):
    workload = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(nproc)
    work = OUT / f"work-{_tag(name, seed, trace, smoke)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        sizes = make_inputs(workload, seed, work / "in", smoke)
        cmds = commands(workload, seed, work / "in", smoke)
        spec = {"commands": cmds, "seconds": seconds, "trace": bool(trace),
                "min_passes": 2 if trace else 1, "outdir": str(work / "out"),
                "result": str(work / "worker.json")}
        (work / "spec.json").write_text(json.dumps(spec))
        repeats = 1 if smoke else SETUP_REPEATS
        try:
            setup = _measure_setup(env, repeats)
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                                   str(work / "spec.json")], env=env,
                                  timeout=WORKER_TIMEOUT_S, capture_output=True,
                                  text=True)
            worker_error = proc.stderr[-2000:] if proc.returncode else None
            setup += _measure_setup(env, repeats)
        except subprocess.CalledProcessError as exc:
            worker_error = f"set-up process failed with status {exc.returncode}"
        except subprocess.TimeoutExpired as exc:
            worker_error = f"{exc.cmd[1]} did not finish within {exc.timeout} s"
        report = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "smoke": smoke, "why": workload.why,
                  "stresses": workload.stresses, "passes_on": workload.passes_on}
        report["environment"] = {"nproc": nproc, "blas_threads": nproc,
                                 "commit": _commit(), "inputs": sizes}
        if worker_error:
            report.update(correct=False, attempted=max(len(cmds), 1),
                          failed=max(len(cmds), 1), metrics={},
                          failures=[worker_error])
            return report
        res = json.loads((work / "worker.json").read_text())
        report["environment"].update(res["environment"])
        passes = res["passes"]
        reference = None
        if seed == 0 and not smoke:
            reference = json.loads((HERE / "digests.json").read_text()).get(name)
        units, quality, digests = _check_passes(workload, passes, work / "out",
                                                sizes, cmds, reference)
        failed = sum(1 for u in units if u["failures"])
        untraced = [p["s"] for p in passes if not p["traced"]]
        wall = statistics.median(untraced)
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup),
                   "peak_rss_mb": res["peak_rss_mb"]}
        metrics["failed_fraction"] = failed / len(units)
        if workload.snapshot:
            n = max(quality["particles"], 1)
            metrics["particles_per_s"] = sizes["particles"] / wall
            metrics["unclassified_fraction"] = quality["unclassified"] / n
            if workload.rcut is not None:
                metrics["label_agreement"] = quality["agree"] / n
        elif "embed_stress" in quality:
            metrics["embed_stress"] = quality["embed_stress"]
        if trace:
            metrics.update(_layer_metrics(res["spans"], passes, sizes["frames"]))
            report["spans"] = res["spans"]
            report["missing_trace_targets"] = res["missing_targets"]
        report.update(
            correct=failed == 0, attempted=len(units), failed=failed,
            metrics=metrics, pass_seconds=[p["s"] for p in passes],
            pass_traced=[p["traced"] for p in passes], setup_seconds=setup,
            digests=digests,
            failures=[f"{u['unit']}: {f}" for u in units for f in u["failures"]])
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _structure(report):
    """(fact, value seen, value when the benchmark was defined) of a traced run."""
    m = report["metrics"]
    facts = []
    if WORKLOADS[report["workload"]].snapshot:
        # per_particle_e and classify each profile every frame
        facts.append(("kernels.profile_particles.calls_per_frame",
                      m["kernels.profile_particles.calls_per_frame"], 2))
        facts.append(("spacemap.mds.calls", m["spacemap.mds.calls"], 0))
    if report["workload"] == "crystal-fixed-rcut":
        facts.append(("snapshot.auto_cutoff.calls", m["snapshot.auto_cutoff.calls"], 0))
    return facts


def _unit_of(name):
    for table in (END_TO_END, QUALITY, PER_LAYER):
        if name in table:
            return table[name][0]
    return ""


def _print_report(report):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  correct {report['correct']}  "
          f"attempted {report['attempted']}  failed {report['failed']}")
    print(f"  why: {report['why']}")
    env = report["environment"]
    print("  environment: " + ", ".join(f"{k}={env[k]}" for k in env if k != "inputs"))
    inputs = env["inputs"]
    print(f"  inputs: {inputs['particles']} particles, {inputs['frames']} frames, "
          f"{inputs['bytes']} bytes")
    if "pass_seconds" in report:
        print(f"  passes: {len(report['pass_seconds'])}, seconds "
              + " ".join(f"{s:.3f}" for s in report["pass_seconds"]))
    for name, value in report["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {_unit_of(name)}")
    if report["trace"] and report["metrics"]:
        for fact, seen, defined in _structure(report):
            print(f"  structure: {fact} = {seen:g} ({defined} when the benchmark "
                  f"was defined)")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}")


def _result_line(report, names):
    metrics = {k: {"value": report["metrics"][k], "unit": _unit_of(k)}
               for k in names if k in report["metrics"]}
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def _save(report):
    tag = _tag(report["workload"], report["seed"], report["trace"], report["smoke"])
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))


def smoke():
    """Every workload once on tiny inputs; check every metric name and unit."""
    attempted = failed = 0
    correct = True
    for name, workload in WORKLOADS.items():
        report = run_workload(name, 0, 0, trace=True, smoke=True)
        _save(report)
        _print_report(report)
        missing = sorted(expected_metrics(workload) - set(report["metrics"]))
        if missing or not all(_unit_of(k) for k in report["metrics"]):
            print(f"  FAILED metrics missing or without unit: {missing}")
            correct = False
        correct &= report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once on tiny inputs")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coordgeo" / "cli.py").is_file():
        print(f"error: no coordgeo source under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    report = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          smoke=False)
    _save(report)
    _print_report(report)
    print(_result_line(report, PER_LAYER if args.trace else END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
