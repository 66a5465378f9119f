"""Benchmark worker: the closed-loop client of one run.

Started by run.py in a fresh process whose environment pins the BLAS thread
count.  It repeats passes of the workload's commands through
``coordgeo.cli.main`` and writes pass times, exit codes, peak memory, the
environment and (when tracing) the spans to a JSON file.

    python3 perfbench/worker.py SPEC.json
"""

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def _environment():
    import numpy as np

    import coordgeo.kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": "numba" if coordgeo.kernels.HAVE_NUMBA else "numpy",
    }


def _run_pass(cli, cmds, outdir):
    """Run one pass; return its wall seconds and one exit status per command."""
    argvs = [[a.replace("{out}", str(outdir)) for a in argv] for argv in cmds]
    status = []
    t0 = time.perf_counter()
    for argv in argvs:
        try:
            status.append(cli.main(argv))
        except Exception:  # a crash fails this command, not the run
            status.append(traceback.format_exc(limit=3))
    return time.perf_counter() - t0, status


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    import coordgeo.cli as cli

    tracer = Tracer() if spec["trace"] else None
    out = Path(spec["outdir"])
    passes = []   # {"s": wall seconds, "traced": bool, "status": [...]}
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        outdir = out / f"pass{len(passes):03d}"
        outdir.mkdir(parents=True)
        if traced:
            tracer.install()
            tracer.run_id = len(passes)
            with tracer.span("pass"):
                wall, status = _run_pass(cli, spec["commands"], outdir)
            tracer.uninstall()
        else:
            wall, status = _run_pass(cli, spec["commands"], outdir)
        passes.append({"s": wall, "traced": traced, "status": status})
        # start a pass only if it is expected to end within the measured time;
        # a traced run needs one untraced and one traced pass at least
        elapsed = time.perf_counter() - started
        expected = statistics.median(p["s"] for p in passes)
        if len(passes) >= spec["min_passes"] and elapsed + expected > spec["seconds"]:
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
        "spans": tracer.spans if tracer else [],
        "missing_targets": tracer.missing if tracer else [],
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
