"""Tests of the benchmark itself: the counters repeat exactly, the output
check rejects a perturbed restore, the probes stay clear of the program,
and the command refuses to run without the program's sources.

    python3 -m pytest perfbench -q
"""

import ast
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
from workloads import WORKLOADS, Case, CliWalkthrough32

PERF_DIR = Path(__file__).resolve().parent
SPEC = json.loads((PERF_DIR.parent / "BENCHMARK.json").read_text())


def measure(tmp_path, name, trace, seed=3):
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    detail, metrics, _ = run.measure(WORKLOADS[name], seed, 0.0, trace, workdir)
    return detail, metrics


def test_counts_repeat_exactly_across_two_traced_runs(tmp_path):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = measure(tmp_path, "cli-walkthrough-32", 1), measure(tmp_path, "cli-walkthrough-32", 1)
    for detail, _ in (first, second):
        assert detail["failed"] == 0 and not detail["checks"]
    assert {n: first[1][n] for n in counts} == {n: second[1][n] for n in counts}
    assert first[0]["by_case"] == second[0]["by_case"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(first[1])


def test_end_to_end_metrics_are_all_reported(tmp_path):
    detail, metrics = measure(tmp_path, "cli-walkthrough-32", 0)
    assert detail["failed"] == 0 and not detail["checks"]
    for m in SPEC["end_to_end"]:
        assert np.isfinite(metrics[m["name"]]) and metrics[m["name"]] > 0
    assert detail["verify_s"] > 0


def test_output_check_rejects_a_perturbed_restore(tmp_path, monkeypatch):
    original = CliWalkthrough32.run

    def perturbed(self, case, tracer, req):
        out, seconds = original(self, case, tracer, req)
        if case.label == "sr-idpg":
            out = out.copy()
            out[0, 5, 7] += 1e-3
        return out, seconds

    monkeypatch.setattr(CliWalkthrough32, "run", perturbed)
    detail, _ = measure(tmp_path, "cli-walkthrough-32", 0)
    assert detail["failed"] == 2  # both passes of the perturbed case
    assert [c for c in detail["checks"] if c.startswith("sr-idpg: relative L2 error")]


def test_reference_check_rejects_bad_outputs():
    pg, _ = run.import_pgrestore(False)
    from pgrestore.kernels import gaussian_kernel

    n = 32
    spectrum = ref.smooth_spectrum(n, n, 1.0)
    x_star = ref.sample_image(np.random.default_rng(0), spectrum, 0.5)
    kernel = gaussian_kernel(5, 10.0)
    op = pg.CircularConvolution(kernel, (1, n, n))
    y = pg.degrade(op, x_star, pg.NoiseSpec(0.05, 1))
    prior = pg.WienerPrior(spectrum=pg.WienerPrior.smooth_default((n, n)).spectrum, mean=0.5)

    def restore(**kw):
        cfg = pg.make_scheme_config("idpg", pg.make_ddpm_schedule(100), 0.05, **kw)
        return pg.run_scheme(pg.WienerMMSE(prior), op, y, cfg)[0]

    expected = ref.reference_restore("deblur", y, ref.Schedule("idpg"), spectrum, 0.5, kernel=kernel)
    x = restore()
    assert ref.check_against_reference(x, expected, ref.TOL_FLOAT64) is None
    nan = x.copy()
    nan[0, 0, 0] = np.nan
    for bad in (x * (1 + 1e-6), nan, x[:, :-1], restore(gamma=7.5), restore(eta_tilde=0.6)):
        assert ref.check_against_reference(bad, expected, ref.TOL_FLOAT64) is not None


@pytest.mark.parametrize("n, percentile", [(19, None), (20, 50.0), (100, 90.0), (1000, 99.0)])
def test_tail_keeps_ten_samples_beyond_it(n, percentile):
    result = run.tail(list(range(n)))
    assert (result and result["percentile"]) == percentile
    if result:
        assert sum(1 for t in range(n) if t > result["value"]) >= 10


@pytest.mark.parametrize("probe", ["reference.py", "probe_worker.py"])
def test_probes_import_nothing_of_the_program(probe):
    tree = ast.parse((PERF_DIR / probe).read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported <= {"__future__", "dataclasses", "math", "numpy", "sys"}


def test_external_probe_round_trip_cleans_up(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # as run.py does
    workload = WORKLOADS["external-64"](5, tmp_path / "unused")
    case = Case("probe", "deblur", (1, 64, 64), workload.gt, ref.Schedule("idpg"))
    assert workload.probe(case) > 0
    assert list(tmp_path.iterdir()) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(PERF_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
