#!/usr/bin/env python3
"""Guidance ablation on a synthetic linear-Gaussian world.

Samples test images from the smooth Wiener prior, degrades them with a
5x5 Gaussian blur plus measurement noise, and restores with the pure
back-projection endpoint (idbp), the pure least-squares endpoint
(pgm_ls), the traversing scheme (idpg), and its sampling variant (ddpg),
all sharing the matched Wiener denoiser. Prints mean PSNR per method.

The default configuration is the committed baseline behind the frozen
margins in tests/test_acceptance.py; rerun with no flags to reproduce it.
"""

import argparse
import time

import numpy as np

from pgrestore.denoisers import WienerMMSE, WienerPrior
from pgrestore.kernels import gaussian_kernel
from pgrestore.linops import CircularConvolution
from pgrestore.metrics import NoiseSpec, degrade, psnr
from pgrestore.schemes import make_ddpm_schedule, make_scheme_config, run_scheme

# Image i is drawn with seed i, its noise with NOISE_SEED + i and DDPG's run
# on it with RUN_SEED + i: three disjoint streams while --images <= 1000, so
# no run starts from the draw that made its ground truth.
NOISE_SEED, RUN_SEED, MAX_IMAGES = 1000, 2000, 1000


def build_world(size: int, amplitude: float, n_images: int, sigma_e: float):
    shape = (1, size, size)
    prior = WienerPrior.smooth_default((size, size), amplitude=amplitude)
    op = CircularConvolution(gaussian_kernel(5, 10.0), shape)
    images, measurements = [], []
    for i in range(n_images):
        x_star = prior.sample(np.random.default_rng(i))
        images.append(x_star)
        measurements.append(degrade(op, x_star, NoiseSpec(sigma_e, seed=NOISE_SEED + i)))
    return op, prior, images, measurements


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--amplitude", type=float, default=64.0)
    parser.add_argument("--images", type=int, default=20)
    parser.add_argument("--sigma-e", type=float, default=0.05)
    parser.add_argument("--gamma", type=float, default=8.0)
    parser.add_argument("--eta-tilde", type=float, default=0.7)
    parser.add_argument("--zeta", type=float, default=0.5)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--skip-ddpg", action="store_true")
    args = parser.parse_args()
    if not 1 <= args.images <= MAX_IMAGES:
        parser.error(f"--images must lie in [1, {MAX_IMAGES}], got {args.images}")

    op, prior, images, measurements = build_world(
        args.size, args.amplitude, args.images, args.sigma_e
    )
    denoiser = WienerMMSE(prior)
    schedule = make_ddpm_schedule(args.steps)

    observed = [psnr(y, x) for x, y in zip(images, measurements)]
    print(f"world: {args.images} images {args.size}x{args.size}, prior amplitude "
          f"{args.amplitude}, sigma_e {args.sigma_e}")
    print(f"{'observed':9s} mean {np.mean(observed):7.3f} dB")

    methods = ["idbp", "pgm_ls", "idpg"] + ([] if args.skip_ddpg else ["ddpg"])
    for method in methods:
        start = time.perf_counter()
        values = []
        for i, (x_star, y) in enumerate(zip(images, measurements)):
            policy = "ddim-ratio" if method == "ddpg" else "unit"
            cfg = make_scheme_config(
                method, schedule, args.sigma_e,
                gamma=args.gamma, eta_tilde=args.eta_tilde, zeta=args.zeta,
                seed=RUN_SEED + i, step_size_policy=policy,
            )
            restored, _ = run_scheme(denoiser, op, y, cfg)
            values.append(psnr(restored, x_star))
        elapsed = time.perf_counter() - start
        print(f"{method:9s} mean {np.mean(values):7.3f} dB   "
              f"min {np.min(values):7.3f}   ({elapsed:.1f}s)")


if __name__ == "__main__":
    main()
