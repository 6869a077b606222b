"""Restorations against the exact yardstick of the Gaussian world.

With a stationary Gaussian prior, a linear operator and Gaussian noise, the
posterior mean is the MMSE estimator: no method beats its mean squared
error in expectation, and an exact posterior sample has twice that error
(3.01 dB under the bound). Each task restores the same 8 images of 32^2
(prior amplitude 64, sigma_e = 0.05) and compares per-image errors in pairs.
"""

import numpy as np
import pytest

from oracles import posterior_mean
from pgrestore.denoisers import WienerMMSE, WienerPrior
from pgrestore.kernels import bicubic_kernel, delta_kernel, gaussian_kernel
from pgrestore.linops import CircularConvolution, DownsampleConvolution, Mask
from pgrestore.metrics import NoiseSpec, degrade, mse
from pgrestore.schemes import make_ddpm_schedule, make_scheme_config, run_scheme

SHAPE, SIGMA_E, IMAGES = (1, 32, 32), 0.05, 8
# Image i is drawn with seed i, its noise with NOISE_SEED + i and DDPG's run
# on it with RUN_SEED + i, so no run starts from the draw that made its image.
NOISE_SEED, RUN_SEED, MASK_SEED = 1000, 2000, 3000
# IDPG's largest gap to the bound, in dB of mean squared error. Measured at
# T = 100: 0.37 (deblur), 0.00 (sr x2) and 0.02 (inpaint), each with a
# standard error of at most 0.03; the gaps leave about 4 standard errors.
IDPG_GAP_DB = {"deblur": 0.5, "sr2": 0.1, "inpaint": 0.1}


def prior():
    return WienerPrior.smooth_default(SHAPE[1:], amplitude=64.0)


def operator(task):
    if task == "deblur":
        return CircularConvolution(gaussian_kernel(5, 10.0), SHAPE)
    if task == "sr2":
        return DownsampleConvolution(bicubic_kernel(2), 2, SHAPE)
    return Mask(np.random.default_rng(MASK_SEED).random(SHAPE[1:]) < 0.5, SHAPE)


def paired_excess(errors, reference):
    """The mean of errors - reference over the images, and its standard error."""
    excess = np.asarray(errors) - np.asarray(reference)
    return excess.mean(), excess.std(ddof=1) / np.sqrt(len(excess))


def test_posterior_mean_of_the_identity_is_the_wiener_filter():
    # The oracle's dense covariance against the denoiser's Fourier-domain shrinkage.
    world = prior()
    x = world.sample(np.random.default_rng(5))
    y = x + SIGMA_E * np.random.default_rng(6).standard_normal(SHAPE)
    op = CircularConvolution(delta_kernel(1), SHAPE)
    np.testing.assert_allclose(posterior_mean(op, world, y, SIGMA_E),
                               WienerMMSE(world)(y, SIGMA_E), rtol=0, atol=1e-10)


@pytest.mark.parametrize("task", ["deblur", "sr2", "inpaint"])
def test_restorations_respect_the_posterior_mean_bound(task):
    world, op = prior(), operator(task)
    denoiser = WienerMMSE(world)
    images = [world.sample(np.random.default_rng(i)) for i in range(IMAGES)]
    ys = [degrade(op, x, NoiseSpec(SIGMA_E, seed=NOISE_SEED + i)) for i, x in enumerate(images)]
    bound = [mse(x_hat, x) for x_hat, x in zip(posterior_mean(op, world, ys, SIGMA_E), images)]
    errors = {"idpg": [], "ddpg": [], "ddpg-T10": []}
    for i, (x, y) in enumerate(zip(images, ys)):
        # T = 10 too: a short run keeps most of what its start knows, so a
        # run seeded like its image would land far under the bound there
        for name, method, T in (("idpg", "idpg", 100), ("ddpg", "ddpg", 100),
                                ("ddpg-T10", "ddpg", 10)):
            cfg = make_scheme_config(method, make_ddpm_schedule(T), SIGMA_E, seed=RUN_SEED + i)
            errors[name].append(mse(run_scheme(denoiser, op, y, cfg)[0], x))
    for name, values in errors.items():
        excess, se = paired_excess(values, bound)
        assert excess >= -3 * se, f"{name} beats the posterior mean: {excess:.4g} < -3 x {se:.3g}"
    gap_db = 10 * np.log10(np.mean(errors["idpg"]) / np.mean(bound))
    assert gap_db <= IDPG_GAP_DB[task]
    # DDPG samples: no closer than the bound (above), no farther than an exact sample
    excess, se = paired_excess(errors["ddpg"], 2 * np.asarray(bound))
    assert excess <= 3 * se, f"ddpg is worse than a posterior sample: {excess:.4g} > 3 x {se:.3g}"
