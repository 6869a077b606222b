#!/usr/bin/env python3
"""Whole-restore timings, transform counts and page faults, written as BENCH_<n>.json.

For each task (deblur, sr x2, sr x4, inpaint), image side (32, 128, 256)
and method (idpg, ddpg), the script restores one seeded 1-channel
measurement (sigma_e = 0.05) with the Wiener denoiser, in a fresh
interpreter of its own, so that no cell inherits the heap of the cells
before it, and records:

- ``ms``: the median wall time of 3 in-process ``run_scheme`` calls (all
  three are kept in ``ms_runs``);
- ``transforms_per_iter``: the calls of ``linops.rfft2_into`` and
  ``linops.irfft2_into``, each one 2-D transform, from the first denoiser
  call on, over T; counted as ``tests/test_schemes.py``'s
  ``test_fft_calls_per_iteration`` counts them, in a separate call;
- ``minor_faults_per_iter``: the cell process's minor page faults
  (``getrusage``) over the 3 timed calls, per iteration, after one warm-up
  call.

It also records where the numbers come from: the git SHA and whether the
tree had uncommitted changes, the numpy and Python versions, ``nproc``,
the source counts of ``scripts/count_source.py``, the CPU time of the
script and its cell processes over the wall time of the whole matrix, and
the steal jiffies over it (from ``/proc/stat``, where it exists). The
numbers are ungated: compare two files made on one machine, one soon
after the other.

    python scripts/bench_trajectory.py                   # T = 100, writes ./BENCH_<n>.json
    python scripts/bench_trajectory.py --sizes 32 --T 5 --out-dir /tmp/bench
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import pgrestore.linops as linops
from count_source import count_source
from pgrestore.denoisers import WienerMMSE, WienerPrior
from pgrestore.kernels import bicubic_kernel, gaussian_kernel
from pgrestore.metrics import NoiseSpec, degrade
from pgrestore.schemes import make_ddpm_schedule, make_scheme_config, run_scheme

ROOT = Path(__file__).resolve().parents[1]
TASKS = (("deblur", 1), ("sr", 2), ("sr", 4), ("inpaint", 1))
METHODS = ("idpg", "ddpg")
SIGMA_E, AMPLITUDE, REPEATS = 0.05, 64.0, 3
# Four disjoint streams: the image, its mask, its noise and the DDPG run.
IMAGE_SEED, MASK_SEED, NOISE_SEED, RUN_SEED = 0, 1, 2, 3


def build_problem(task: str, scale: int, size: int):
    """The run's denoiser, operator and measurement."""
    shape = (1, size, size)
    prior = WienerPrior.smooth_default((size, size), amplitude=AMPLITUDE)
    if task == "inpaint":
        op = linops.Mask(np.random.default_rng(MASK_SEED).random((size, size)) < 0.5, shape)
    elif scale == 1:
        op = linops.CircularConvolution(gaussian_kernel(5, 10.0), shape)
    else:
        op = linops.DownsampleConvolution(bicubic_kernel(scale), scale, shape)
    x_star = prior.sample(np.random.default_rng(IMAGE_SEED))
    return WienerMMSE(prior), op, degrade(op, x_star, NoiseSpec(SIGMA_E, seed=NOISE_SEED))


def count_transforms(denoiser, op, y, cfg) -> int:
    """2-D transforms in one run, from its first denoiser call on."""
    calls = []
    originals = {name: getattr(linops, name) for name in ("rfft2_into", "irfft2_into")}

    def counted(fn):
        def call(*args, **kwargs):
            if calls:
                calls[0] += 1
            return fn(*args, **kwargs)
        return call

    def start_counting(x, sigma):
        if not calls:
            calls.append(0)
        return denoiser(x, sigma)

    try:
        for name, fn in originals.items():
            setattr(linops, name, counted(fn))
        run_scheme(start_counting, op, y, cfg)
    finally:
        for name, fn in originals.items():
            setattr(linops, name, fn)
    return calls[0]


def measure_cell(task: str, scale: int, size: int, method: str, T: int) -> dict:
    denoiser, op, y = build_problem(task, scale, size)
    cfg = make_scheme_config(method, make_ddpm_schedule(T), SIGMA_E, seed=RUN_SEED)
    run_scheme(denoiser, op, y, cfg)  # warm-up
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_scheme(denoiser, op, y, cfg)
        times.append(1e3 * (time.perf_counter() - start))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {
        "task": task, "scale": scale, "size": size, "method": method, "T": T,
        "ms": statistics.median(times), "ms_runs": times,
        "transforms_per_iter": count_transforms(denoiser, op, y, cfg) / T,
        "minor_faults_per_iter": faults / (REPEATS * T),
    }


def steal_jiffies():
    """The host's steal time summed over all CPUs, or None where /proc/stat is missing."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def git(*args):
    try:
        result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def next_free_path(out_dir: Path) -> Path:
    n = 1
    while (out_dir / f"BENCH_{n}.json").exists():
        n += 1
    return out_dir / f"BENCH_{n}.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 128, 256])
    parser.add_argument("--T", type=int, default=100)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args()

    steal, wall, cpu = steal_jiffies(), time.perf_counter(), time.process_time()
    jobs = [(task, scale, size, method, args.T)
            for size in args.sizes for task, scale in TASKS for method in METHODS]
    # One fresh interpreter per cell; joined, so that RUSAGE_CHILDREN holds their CPU time.
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        cells = pool.starmap(measure_cell, jobs, chunksize=1)
        pool.close()
        pool.join()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu + children.ru_utime + children.ru_stime
    steal_after = steal_jiffies()
    status = git("status", "--porcelain", "--", "src", "scripts")
    provenance = {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "source": count_source(),
        "wall_s": wall,
        "cpu_over_wall": cpu / wall,
        "steal_jiffies": None if steal is None or steal_after is None else steal_after - steal,
    }
    settings = {"sigma_e": SIGMA_E, "denoiser": "wiener", "prior_amplitude": AMPLITUDE,
                "repeats": REPEATS, "seeds": {"image": IMAGE_SEED, "mask": MASK_SEED,
                                              "noise": NOISE_SEED, "run": RUN_SEED}}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = next_free_path(args.out_dir)
    record = {"provenance": provenance, "settings": settings, "cells": cells}
    path.write_text(json.dumps(record, indent=1) + "\n")
    for cell in cells:
        label = f"sr x{cell['scale']}" if cell["task"] == "sr" else cell["task"]
        print(f"{label:8s} {cell['size']:4d}^2 {cell['method']} "
              f"{cell['ms']:9.2f} ms  {cell['transforms_per_iter']:g} transforms/iter  "
              f"{cell['minor_faults_per_iter']:.2f} faults/iter")
    print(f"wrote {path} ({wall:.1f} s, cpu/wall {cpu / wall:.2f})", file=sys.stderr)


if __name__ == "__main__":
    main()
