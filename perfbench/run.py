#!/usr/bin/env python3
"""Restore-path benchmark for pgrestore.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``
beside this directory; nothing is installed. The run

1. makes the workload's inputs from ``--seed``;
2. sets up the program once in-process for the restores;
3. restores the workload's cases in turn, in whole passes, until
   ``--seconds`` have passed and at least two passes are done; with
   ``--trace 1`` every second pass runs under the timing proxies of
   :mod:`spans`, and the others give the untraced figures. After each
   untraced restore the workload's probe runs (see below). Between
   restores, spread over the phase, it also sets the program up
   SETUP_REPEATS times cold, each in a fresh interpreter
   (:mod:`cold_setup`: import pgrestore, kernels, masks, measurements,
   operators, priors), and reports their median as ``setup_s``;
4. checks every output (finite, right shape, bit-identical to the first
   restore of its case, equal to an independent reference restore) and
   counts a restore that misses any check as failed and untimed.

The gated restore times are ratios: the restore time summed over the
run, divided by the probe time summed over the same run. The probe is
work of the restore's kind written in the benchmark without pgrestore
(the independent reference restore; for external-64, calls to a numpy
external-denoiser process), so no change to the program moves it, while
the host's speed, which drifts by a third or more over a minute on a
shared machine, moves both alike. The seconds are in the detail line.

It prints a detail line ``{"perfbench": {...}}`` (provenance, every
metric with its sample counts, the checks) and, as its last line, the
result: ``{"correct", "attempted", "failed", "metrics"}`` with the
``end_to_end`` metrics of BENCHMARK.json (or its ``per_layer`` metrics
with ``--trace 1``). Both, and the spans of a traced run, are written
under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

import reference as ref  # noqa: E402
from spans import FIELDS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, RestoreFailure  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 2
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def import_pgrestore(with_cli: bool):
    """Import pgrestore from ``src/``."""
    pg = importlib.import_module("pgrestore")
    if Path(pg.__file__).resolve().parent != (SRC / "pgrestore").resolve():
        raise SystemExit(f"perfbench: imported pgrestore from {pg.__file__}, not from {SRC}")
    return pg, importlib.import_module("pgrestore.cli") if with_cli else None


def tail(times):
    """Highest percentile with at least 10 samples above it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return {"value": ordered[rank - 1], "unit": "s", "percentile": p, "samples": n}
    return None


def git_sha():
    """HEAD of the git checkout rooted at ROOT, or None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cold_setup(name, seed, workdir):
    """Seconds of one set-up in a fresh interpreter (see cold_setup.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "cold_setup.py"), name, str(seed),
                           str(workdir)], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cold set-up failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout)


def provenance(seed):
    return {
        "numpy": np.__version__,
        "fft_backend": "pocketfft (numpy.fft"
                       + (", C++ umath)" if hasattr(np.fft, "_pocketfft_umath") else ")"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "src_pgrestore_lines": sum(len(p.read_text().splitlines())
                                   for p in sorted((SRC / "pgrestore").glob("*.py"))),
    }


@dataclass
class Record:
    """One restore of the timed phase."""

    label: str
    seconds: float | None  # the restore call; None when it failed
    cycle: float | None  # the whole step around it (CLI: degrade, restore, eval)
    probe: float | None  # the host-speed reference run after it (untraced passes)
    problem: str | None
    traced: bool
    pass_no: int
    start: float  # offset from the start of the timed phase


class Phase:
    """Per-restore outcomes of the timed phase."""

    def __init__(self):
        self.records = []
        self.wall = 0.0

    def ok(self, traced=False):
        return [r for r in self.records if r.problem is None and r.traced == traced]

    def times(self, traced=False):
        return [r.seconds for r in self.ok(traced)]

    def pass_rates(self):
        """Restores that passed their checks per second of restore steps,
        for each untraced pass."""
        passes = sorted({r.pass_no for r in self.records if not r.traced})
        return [len(rs) / sum(r.cycle for r in rs)
                for rs in ([r for r in self.ok() if r.pass_no == i] for i in passes) if rs]

    def fail_cases(self, problems):
        for r in self.records:
            r.problem = problems.get(r.label, r.problem)


def run_phase(workload, cases, seconds, tracer, install, setup):
    """Whole passes over the cases until ``seconds`` have passed (at least
    MIN_PASSES). With a tracer, odd passes run traced, so traced and
    untraced restores interleave. After each restore of an untraced pass
    the workload's probe runs once. ``setup()`` (a cold set-up) runs
    between restores whenever fewer than the phase's elapsed share of
    SETUP_REPEATS have run, and after the last pass until SETUP_REPEATS
    have. Returns the phase, each case's first output and the set-up
    times."""
    phase, first, req, passes, setup_times = Phase(), {}, 0, 0, []
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            install()
        try:
            for case in cases:
                req += 1
                started = time.perf_counter() - start
                out, secs, problem = None, None, None
                try:
                    out, secs = workload.run(case, tracer if traced else None, req)
                except RestoreFailure as exc:
                    problem = str(exc)
                except Exception as exc:  # a raising restore counts as failed
                    problem = f"{type(exc).__name__}: {exc}"
                cycle = time.perf_counter() - start - started
                problem = problem or ref.output_problem(out, case.shape)
                if problem is None:
                    if case.label not in first:
                        first[case.label] = out
                    elif not np.array_equal(out, first[case.label]):
                        problem = "output differs from the first restore of the same case"
                probe = None if traced or problem else workload.probe(case)
                phase.records.append(Record(case.label, None if problem else secs, cycle, probe,
                                            problem, traced, passes, started))
                if traced:
                    tracer.case_of_req[req] = case.label
                due = SETUP_REPEATS * (time.perf_counter() - start) / seconds if seconds > 0 else 0
                if len(setup_times) < min(due, SETUP_REPEATS):
                    setup_times.append(setup())
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
    phase.wall = time.perf_counter() - start
    setup_times += [setup() for _ in range(SETUP_REPEATS - len(setup_times))]
    return phase, first, setup_times


def median_or_nan(values):
    return statistics.median(values) if values else math.nan


def measure(workload_cls, seed, seconds, trace, workdir):
    workload = workload_cls(seed, workdir)
    pg, cli = import_pgrestore(workload.uses_cli)
    cases = workload.setup(pg, cli)

    tracer = Tracer() if trace else None

    def install():
        tracer.install(pg, cli)

    def setup():
        return cold_setup(workload.name, seed, Path(tempfile.mkdtemp(prefix="setup-", dir=workdir)))

    phase, first, setup_times = run_phase(workload, cases, seconds, tracer, install, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks, extra = [], {}
    if trace:
        install()
    try:
        extra = workload.epilogue(tracer)
    except RestoreFailure as exc:
        checks.append(str(exc))
    finally:
        if trace:
            tracer.uninstall()

    problems = workload.check(cases, first)
    phase.fail_cases(problems)
    checks += [f"{label}: {problem}" for label, problem in problems.items()]
    psnr = statistics.fmean(ref.psnr_db(first[c.label], c.gt) for c in cases if c.label in first)\
        if first else math.nan
    psnr_ref = [c.extra["psnr_ref"] for c in cases if "psnr_ref" in c.extra]
    if psnr_ref and not abs(psnr - statistics.fmean(psnr_ref)) <= ref.TOL_PSNR_DB:
        checks.append(f"psnr_db {psnr:.6f} differs from the reference "
                      f"{statistics.fmean(psnr_ref):.6f}")

    attempted = len(phase.records)
    failed = sum(1 for r in phase.records if r.problem is not None)
    ok, times = phase.ok(), phase.times()
    restore_total, cycle_total = sum(times), sum(r.cycle for r in ok)
    probe_total = sum(r.probe for r in ok)
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(seed),
        "cases": [c.label for c in cases],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": sorted({f"{r.label}: {r.problem}" for r in phase.records if r.problem}),
        "checks": checks,
        "setup_s_samples": setup_times,
        "untraced_restores": len(times),
        "untraced_passes": len({r.pass_no for r in phase.records if not r.traced}),
        "timed_wall_s": phase.wall,
    }
    detail.update({f"{c.label}.{key}": val for c in cases for key, val in c.extra.items()
                   if isinstance(val, float)})
    e2e = {
        "restore_rel": restore_total / probe_total if ok else math.nan,
        "cycle_rel": cycle_total / probe_total if ok else math.nan,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "psnr_db": psnr,
    }
    detail.update({
        "restore_s.mean": restore_total / len(ok) if ok else math.nan,
        "restore_s.p50": median_or_nan(times),
        "restore_s.tail": tail(times),
        "restores_per_s": len(ok) / cycle_total if ok else math.nan,
        "probe_s.mean": probe_total / len(ok) if ok else math.nan,
        "restore_samples": [(r.label, r.start, r.seconds, r.cycle, r.probe)
                            for r in phase.records if not r.traced],
        "pass_rates": phase.pass_rates(),
    })
    if trace:
        traced_times = phase.times(traced=True)
        per_layer, by_case = layer_metrics(tracer.spans, tracer.case_of_req)
        per_layer["tracing.overhead_s"] = median_or_nan(traced_times) - median_or_nan(times)
        detail.update({
            "traced_restores": len(traced_times),
            "traced_restore_s.p50": median_or_nan(traced_times),
            "trace_share_base": "wall time of the traced run_scheme calls",
            "per_layer": per_layer,
            "by_case": by_case,
        })
        metrics = per_layer
    else:
        metrics = e2e
    detail.update(extra)
    detail["end_to_end"] = e2e
    return detail, metrics, (tracer.spans if tracer else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pgrestore" / "__init__.py").is_file():
        print(f"perfbench: no pgrestore sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    # The benchmark reads and writes only inside its checkout, so the
    # external denoiser's per-call workspaces (and its worker, through the
    # inherited TMPDIR) use this directory, not the system temp directory.
    # Where that is a tmpfs, a user's external restores do less disk I/O
    # than external-64 measures.
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        detail, values, spans = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps({"fields": FIELDS, "spans": spans}))
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1))
    result = {
        "correct": detail["failed"] == 0 and not detail["checks"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
