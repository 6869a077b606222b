"""The four benchmark workloads.

Each workload makes its inputs from the seed (``make_inputs``, not timed
as set-up: ground-truth images, masks and seeds), builds the program-side
state through pgrestore's public API (``setup``, timed as ``setup_s``),
and restores one case at a time (``run``). ``probe`` times the
workload's host-speed reference for a case: work of the same kind as the
restore, written in the benchmark without pgrestore, repeated
``probe_repeats`` times so that it takes about a third of the time of a
restore; run.py runs it after each untraced restore and divides the
restore time by it. ``epilogue``
runs once after the timed phase; ``check`` compares each case's first
output with the independent reference of :mod:`reference` and returns
the labels of the cases that fail, with the reason.
"""

from __future__ import annotations

import contextlib
import importlib
import io as textio
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

SIGMA_E = 0.05
BLUR_SIZE, BLUR_STD = 5, 10.0  # the README's gauss5_std10 kernel
PERF_DIR = Path(__file__).resolve().parent


class RestoreFailure(Exception):
    """A restore (or a step of its CLI cycle) failed or gave a bad output."""


@dataclass
class Case:
    label: str
    task: str
    shape: tuple
    gt: np.ndarray
    sched: ref.Schedule
    scale: int = 1
    kernel: np.ndarray | None = None
    mask: np.ndarray | None = None
    y: np.ndarray | None = None
    extra: dict = field(default_factory=dict)


def span(tracer, name, op, req):
    return tracer.top(name, op, req) if tracer is not None else contextlib.nullcontext()


def read_pgt(path) -> np.ndarray:
    """The benchmark's own reader for PGT1 tensor files (float32 body)."""
    data = Path(path).read_bytes()
    if data[:4] != b"PGT1":
        raise RestoreFailure(f"{path}: not a PGT1 tensor file")
    c, h, w = np.frombuffer(data[4:16], dtype="<u4")
    body = np.frombuffer(data[16:], dtype="<f4")
    if body.size != c * h * w:
        raise RestoreFailure(f"{path}: body holds {body.size} values, expected {c * h * w}")
    return body.astype(float).reshape(int(c), int(h), int(w))


class Workload:
    name = ""
    uses_cli = False
    probe_repeats = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.rng = np.random.default_rng(seed)
        self.make_inputs()

    def make_inputs(self):
        raise NotImplementedError

    def setup(self, pg, cli) -> list[Case]:
        raise NotImplementedError

    def run(self, case: Case, tracer, req) -> tuple[np.ndarray, float]:
        raise NotImplementedError

    def probe(self, case: Case) -> float:
        """Seconds of ``probe_repeats`` runs of ``probe_once``."""
        start = time.perf_counter()
        for _ in range(self.probe_repeats):
            self.probe_once(case)
        return time.perf_counter() - start

    def probe_once(self, case: Case):
        """The independent reference restore of the case."""
        self.reference(case)

    def epilogue(self, tracer) -> dict:
        return {}

    def check(self, cases, first) -> dict[str, str]:
        problems = {}
        for case in cases:
            out = first.get(case.label)
            if out is None:
                continue
            expected = self.reference(case)
            problem = ref.check_against_reference(out, expected, self.tolerance)
            if problem:
                problems[case.label] = problem
            case.extra["psnr_ref"] = ref.psnr_db(expected, case.gt)
        return problems

    def reference(self, case: Case) -> np.ndarray:
        return ref.reference_restore(
            case.task, case.y, case.sched, self.spectrum, 0.5,
            kernel=case.kernel, scale=case.scale, mask=case.mask)


# -- library workloads -------------------------------------------------------


class _Library(Workload):
    size = 256
    T = 100
    amplitude = 32.0
    tolerance = ref.TOL_FLOAT64

    def make_inputs(self):
        n = self.size
        self.spectrum = ref.smooth_spectrum(n, n, self.amplitude)
        self.specs = [dict(spec, gt=ref.sample_image(self.rng, self.spectrum, 0.5),
                           noise_seed=int(self.rng.integers(2**31)))
                      for spec in self.case_specs()]

    def setup(self, pg, cli):
        kernels = importlib.import_module("pgrestore.kernels")
        n = self.size
        prior = pg.WienerPrior(
            spectrum=pg.WienerPrior.smooth_default((n, n), amplitude=self.amplitude).spectrum,
            mean=0.5)
        self.denoiser = pg.WienerMMSE(prior)
        self.pg = pg
        schedule = pg.make_ddpm_schedule(self.T)
        cases = []
        for spec in self.specs:
            shape = (1, n, n)
            task, scale, kernel, mask = spec["task"], spec.get("scale", 1), None, None
            if task == "inpaint":
                mask = spec["mask"]
                op = pg.Mask(mask, shape)
            elif scale == 1:
                kernel = kernels.gaussian_kernel(BLUR_SIZE, BLUR_STD)
                op = pg.CircularConvolution(kernel, shape)
            else:
                kernel = kernels.bicubic_kernel(scale)
                op = pg.DownsampleConvolution(kernel, scale, shape)
            y = pg.degrade(op, spec["gt"], pg.NoiseSpec(SIGMA_E, spec["noise_seed"]))
            sched = ref.Schedule(spec["method"], T=self.T, seed=spec.get("seed", 0),
                                 policy=spec.get("policy", "unit"))
            cfg = pg.make_scheme_config(
                sched.method, schedule, SIGMA_E, seed=sched.seed,
                step_size_policy=sched.policy)
            cases.append(Case(spec["label"], task, shape, spec["gt"], sched,
                              scale=scale, kernel=kernel, mask=mask, y=y,
                              extra={"op": op, "cfg": cfg}))
        return cases

    def run(self, case, tracer, req):
        with span(tracer, None, "restore", req):
            start = time.perf_counter()
            x, _ = self.pg.run_scheme(self.denoiser, case.extra["op"], case.y, case.extra["cfg"])
            seconds = time.perf_counter() - start
        return x, seconds


class Spectral256(_Library):
    """IDPG, T = 50, on 256^2 images: deblur, sr x2 and sr x4 in turn."""

    name = "spectral-256"
    T = 50  # each pass of the three cases takes a few seconds
    probe_repeats = 5

    def case_specs(self):
        return [dict(label="deblur-idpg", task="deblur", method="idpg"),
                dict(label="sr2-idpg", task="sr", scale=2, method="idpg"),
                dict(label="sr4-idpg", task="sr", scale=4, method="idpg")]


class InpaintDdpg256(_Library):
    """DDPG, T = 100, ddim-ratio steps, 50% random masks on 256^2 images."""

    name = "inpaint-ddpg-256"
    probe_repeats = 2

    def case_specs(self):
        n = self.size
        return [dict(label=f"inpaint-ddpg-{i}", task="inpaint", method="ddpg",
                     policy="ddim-ratio", mask=self.rng.random((n, n)) < 0.5,
                     seed=int(self.rng.integers(2**31)))
                for i in range(2)]


# -- CLI workloads -------------------------------------------------------------


def _cli(cli, argv) -> str:
    """Run ``pgrestore.cli.main`` in-process; return its stdout or raise."""
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RestoreFailure(f"pgrestore {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class _Cli(Workload):
    uses_cli = True
    tolerance = ref.TOL_FLOAT32

    def _write_kernels(self, pg):
        """Kernel files the CLI reads: task -> (file, scale, taps)."""
        kernels = importlib.import_module("pgrestore.kernels")
        files = {}
        for task, name, scale, taps in (
                ("deblur", "gauss5_std10.txt", 1, kernels.gaussian_kernel(BLUR_SIZE, BLUR_STD)),
                ("sr", "bicubic_x2.txt", 2, kernels.bicubic_kernel(2))):
            pg.io.write_kernel(self.workdir / name, taps)
            files[task] = (self.workdir / name, scale, taps)
        return files

    def _operator_flags(self, case):
        if case.task == "inpaint":
            return ["--mask", case.extra["mask_file"]]
        flags = ["--kernel", case.extra["kernel_file"]]
        return flags + (["--scale", case.scale] if case.task == "sr" else [])

    def _restore_argv(self, case, output, denoiser):
        s = case.sched
        return ["restore", "--measurement", case.extra["y_file"], "--output", output,
                "--method", s.method, "--denoiser", denoiser, "--gamma", s.gamma,
                "--zeta", s.zeta, "--eta-tilde", s.eta_tilde, "--T", s.T, "--seed", s.seed,
                "--step-size-policy", s.policy]

    def _degrade(self, case, tracer, req):
        with span(tracer, "cli.degrade", "degrade", req):
            _cli(self.cli, ["degrade", "--input", case.extra["gt_file"],
                            "--output", case.extra["y_file"], "--task", case.task,
                            *self._operator_flags(case), "--sigma-e", SIGMA_E,
                            "--seed", case.extra["noise_seed"]])

    def _restore(self, case, tracer, req, argv):
        with span(tracer, "cli.restore", "restore", req):
            start = time.perf_counter()
            _cli(self.cli, argv)
            seconds = time.perf_counter() - start
        return read_pgt(argv[argv.index("--output") + 1]), seconds

    def reference(self, case):
        case.y = read_pgt(case.extra["y_file"])
        return super().reference(case)


class CliWalkthrough32(_Cli):
    """The README walkthrough in-process: degrade -> restore -> eval on 32^2
    tensor files for each task and method, then one verify."""

    name = "cli-walkthrough-32"
    size = 32

    def make_inputs(self):
        n = self.size
        self.spectrum = ref.smooth_spectrum(n, n, 1.0)  # the CLI wiener prior
        self.mask = self.rng.random((n, n)) < 0.5
        self.gts = {task: ref.sample_image(self.rng, self.spectrum, 0.5)
                    for task in ("deblur", "sr", "inpaint")}
        self.seeds = {(task, method): (int(self.rng.integers(2**31)), int(self.rng.integers(2**31)))
                      for task in ("deblur", "sr", "inpaint") for method in ("idpg", "ddpg")}

    def setup(self, pg, cli):
        self.cli = cli
        d = self.workdir
        files = self._write_kernels(pg)
        pg.io.write_mask(d / "mask.txt", self.mask)
        cases = []
        for task, gt in self.gts.items():
            pg.io.write_tensor(d / f"gt_{task}.pgt", gt)
            gt32 = gt.astype(np.float32).astype(float)
            kernel_file, scale, kernel = files.get(task, (None, 1, None))
            for method in ("idpg", "ddpg"):
                label = f"{task}-{method}"
                noise_seed, seed = self.seeds[(task, method)]
                sched = ref.Schedule(method, seed=seed,
                                     policy="ddim-ratio" if method == "ddpg" else "unit")
                cases.append(Case(
                    label, task, (1, self.size, self.size), gt32, sched,
                    scale=scale, kernel=kernel, mask=self.mask if task == "inpaint" else None,
                    extra={"gt_file": d / f"gt_{task}.pgt", "y_file": d / f"y_{label}.pgt",
                           "x_file": d / f"x_{label}.pgt", "pgm": d / f"x_{label}.pgm",
                           "kernel_file": kernel_file, "mask_file": d / "mask.txt",
                           "noise_seed": noise_seed}))
        return cases

    def run(self, case, tracer, req):
        self._degrade(case, tracer, req)
        argv = self._restore_argv(case, case.extra["x_file"], "wiener")
        out, seconds = self._restore(case, tracer, req, argv + ["--export-image", case.extra["pgm"]])
        with span(tracer, "cli.eval", "eval", req):
            text = _cli(self.cli, ["eval", "--restored", case.extra["x_file"],
                                   "--reference", case.extra["gt_file"]])
        printed = float(text.strip().splitlines()[-1].split()[1])
        own = ref.psnr_db(out, case.gt)
        if not abs(printed - own) <= 1e-5:
            raise RestoreFailure(f"eval printed PSNR {printed}, the output has {own:.6f}")
        return out, seconds

    def epilogue(self, tracer):
        with span(tracer, "cli.verify", "verify", 0):
            start = time.perf_counter()
            text = _cli(self.cli, ["verify"])
            seconds = time.perf_counter() - start
        lines = text.strip().splitlines()
        if len(lines) != 5 or not all(": PASS" in line for line in lines):
            raise RestoreFailure(f"verify did not pass every check: {lines}")
        return {"verify_s": seconds}


class External64(_Cli):
    """CLI restore of a 64^2 deblur (IDPG, T = 5) through an external
    denoiser process that applies the CLI's Wiener prior."""

    name = "external-64"
    size = 64
    probe_repeats = 5

    def make_inputs(self):
        n = self.size
        self.spectrum = ref.smooth_spectrum(n, n, 1.0)
        self.gt = ref.sample_image(self.rng, self.spectrum, 0.5)
        self.noise_seed = int(self.rng.integers(2**31))

    def setup(self, pg, cli):
        self.cli = cli
        d = self.workdir
        kernel_file, _, kernel = self._write_kernels(pg)["deblur"]
        pg.io.write_tensor(d / "gt.pgt", self.gt)
        case = Case("deblur-idpg-external", "deblur", (1, self.size, self.size),
                    self.gt.astype(np.float32).astype(float), ref.Schedule("idpg", T=5),
                    kernel=kernel,
                    extra={"gt_file": d / "gt.pgt", "y_file": d / "y.pgt",
                           "x_file": d / "x.pgt", "kernel_file": kernel_file,
                           "noise_seed": self.noise_seed})
        self._degrade(case, None, 0)
        worker = shlex.join([sys.executable, str(PERF_DIR / "wiener_worker.py")])
        self.argv = self._restore_argv(case, case.extra["x_file"], f"external:{worker}")
        return [case]

    def run(self, case, tracer, req):
        return self._restore(case, tracer, req, self.argv)

    def probe_once(self, case):
        """One external-denoiser round trip made the way pgrestore makes
        it (fresh temporary directory, tensor file in, process spawn,
        tensor file out), to ``probe_worker.py``, which uses numpy only."""
        x = case.gt.astype("<f4")
        workspace = Path(tempfile.mkdtemp(prefix="perfbench-probe-"))
        try:
            (workspace / "input.pgt").write_bytes(
                b"PGT1" + np.array(x.shape, dtype="<u4").tobytes() + x.tobytes())
            subprocess.run([sys.executable, str(PERF_DIR / "probe_worker.py"),
                            str(workspace / "input.pgt"), str(workspace / "output.pgt"), "0.1"],
                           capture_output=True, text=True, timeout=120, check=True)
            read_pgt(workspace / "output.pgt")
        finally:
            shutil.rmtree(workspace, ignore_errors=True)

    def check(self, cases, first):
        problems = super().check(cases, first)
        case = cases[0]
        if case.label in first and case.label not in problems:
            argv = self._restore_argv(case, self.workdir / "x_wiener.pgt", "wiener")
            try:
                wiener, _ = self._restore(case, None, 0, argv)
            except RestoreFailure as exc:
                problems[case.label] = f"in-process wiener restore failed: {exc}"
                return problems
            err = ref.rel_l2(first[case.label], wiener)
            case.extra["rel_l2_vs_wiener"] = err
            if not err <= ref.TOL_FLOAT32:
                problems[case.label] = (
                    f"external output differs from --denoiser wiener by {err:.3e} (relative L2)")
        return problems


WORKLOADS = {w.name: w for w in (Spectral256, InpaintDdpg256, CliWalkthrough32, External64)}
