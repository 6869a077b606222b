"""Restoration of noisy linear inverse problems by iterative denoising
with guidance that traverses from back-projection to least-squares steps,
in a deterministic scheme (IDPG) and a sampling scheme (DDPG), plus an
executable verifier for the underlying bias/variance theory."""

from .linops import (
    CircularConvolution,
    DownsampleConvolution,
    Mask,
    DenseOperator,
    LinearOperator,
)
from .guidance import g_delta, guide, wls_objective
from .schemes import (
    DiffusionSchedule,
    SchemeConfig,
    RunTrace,
    make_ddpm_schedule,
    make_scheme_config,
    idpg_run,
    ddpg_run,
    run_scheme,
)
from .denoisers import WienerPrior, WienerMMSE, GaussianSmooth, Identity, ExternalDenoiser
from .metrics import NoiseSpec, degrade, psnr, mse
from .theory import TikhonovProblem, verify_theorem1, run_verifier_battery

__version__ = "0.1.0"

__all__ = [
    "CircularConvolution",
    "DownsampleConvolution",
    "Mask",
    "DenseOperator",
    "LinearOperator",
    "g_delta",
    "wls_objective",
    "guide",
    "DiffusionSchedule",
    "SchemeConfig",
    "RunTrace",
    "make_ddpm_schedule",
    "make_scheme_config",
    "idpg_run",
    "ddpg_run",
    "run_scheme",
    "WienerPrior",
    "WienerMMSE",
    "GaussianSmooth",
    "Identity",
    "ExternalDenoiser",
    "NoiseSpec",
    "degrade",
    "psnr",
    "mse",
    "TikhonovProblem",
    "verify_theorem1",
    "run_verifier_battery",
]
