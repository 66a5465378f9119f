"""Tests of the benchmark itself: smoke mode, metric tables, gates and inputs.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SNAPSHOT = [n for n, w in WORKLOADS.items() if w.snapshot]


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return {name: json.loads((run.OUT / f"{name}-seed0-trace1-smoke.json").read_text())
            for name in WORKLOADS}


def test_smoke_emits_every_metric_with_a_unit(smoke):
    for name, report in smoke.items():
        assert run.expected_metrics(WORKLOADS[name]) <= set(report["metrics"]), name
        assert all(run._unit_of(k) for k in report["metrics"])
        assert report["correct"] and not report["failures"]
        env = report["environment"]
        for key in ("nproc", "blas_threads", "python", "numpy", "blas",
                    "backend", "commit", "inputs"):
            assert env[key] not in (None, ""), key


def test_structure_of_the_traced_run(smoke):
    for name in SNAPSHOT:
        m = smoke[name]["metrics"]
        # 2 while cmd_analyze profiles each frame in per_particle_e and again
        # in classify; 1 once a frame gets a single profiling pass
        assert m["kernels.profile_particles.calls_per_frame"] in (1.0, 2.0)
        assert m["spacemap.mds.calls"] == 0
        assert m["snapshot.neighbours_cutoff.pairs"] > 0
    assert smoke["crystal-fixed-rcut"]["metrics"]["snapshot.auto_cutoff.calls"] == 0
    assert smoke["melt-auto-rcut"]["metrics"]["snapshot.auto_cutoff.calls"] == 3
    m = smoke["spacemap"]["metrics"]
    assert m["spacemap.mds.calls"] == 4    # table, embed, typicality (8-D), graph (2-D)
    assert m["kernels.profile_particles.calls_per_frame"] == 0
    assert m["snapshot.read_frames.bytes"] == 0


def test_self_times_add_up_to_the_traced_wall(smoke):
    for report in smoke.values():
        m = report["metrics"]
        layers = [k for k in run.PER_LAYER
                  if k.endswith(".s") and not k.startswith("trace.")]
        total = sum(m[k] for k in layers) + m["cli.self_s"] + m["trace.unattributed_s"]
        assert total == pytest.approx(m["trace.wall_s"], rel=0.01, abs=1e-3)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    digests = json.loads((HERE / "digests.json").read_text())
    assert set(digests) == set(WORKLOADS)


def test_inputs_come_from_the_seed_alone(tmp_path):
    for name in SNAPSHOT:
        paths = []
        for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
            d = tmp_path / f"{name}-{tag}"
            d.mkdir()
            sizes = make_inputs(WORKLOADS[name], seed, d, smoke=True)
            paths.append((d / "traj.extxyz").read_bytes())
        assert paths[0] == paths[1] != paths[2]
        assert sizes["particles"] == sum(sizes["frame_n"])


def test_gates_reject_wrong_output(tmp_path):
    from coordgeo import build_catalog
    from coordgeo.cli import main

    workload = WORKLOADS["crystal-fixed-rcut"]
    sizes = make_inputs(workload, 1, tmp_path, smoke=True)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["analyze", str(tmp_path / "traj.extxyz"), "--rcut", "1.0",
                 "--out", str(out / "analyze.csv"),
                 "--summary", str(out / "summary.json")]) == 0
    codes = set(build_catalog().codes)
    known = ["FCC", "HCP", "BCC"]
    units, quality = checks.check_analyze(out, sizes, known, 1.0, codes)
    assert not any(u["failures"] for u in units)
    assert quality["agree"] >= 0.95 * sizes["particles"]

    csv = out / "analyze.csv"
    good = csv.read_text().splitlines()
    for broken in (
        good[:5] + good[6:],                                   # a row missing
        good[:5] + [good[5].replace(",FCC,", ",ICO,")] + good[6:],  # label changed
        good[:5] + [",".join(good[5].split(",")[:4] + ["9.000000"]
                             + good[5].split(",")[5:])] + good[6:],  # e wrong
    ):
        csv.write_text("\n".join(broken) + "\n")
        units, _ = checks.check_analyze(out, sizes, known, 1.0, codes)
        assert any(u["failures"] for u in units)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "spacemap", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
