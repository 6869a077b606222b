"""Restoration of noisy linear inverse problems by iterative denoising
with guidance that traverses from back-projection to least-squares steps,
in a deterministic scheme (IDPG) and a sampling scheme (DDPG), plus an
executable verifier for the underlying bias/variance theory.

``import pgrestore`` loads ``linops`` (and with it numpy) only. Every other
submodule, and each public name below, loads on first use (PEP 562), so a
process that needs only ``pgrestore.io`` and ``pgrestore.denoisers`` (an
external denoiser worker, say) never loads the verifier or the loops.
"""

import importlib

from . import linops

__version__ = "0.1.0"

# Submodule -> the public names it exports here; __all__ is derived from it.
_EXPORTS = {
    "linops": ("CircularConvolution", "DownsampleConvolution", "Mask", "DenseOperator",
               "LinearOperator"),
    "guidance": ("g_delta", "wls_objective", "guide"),
    "schemes": ("DiffusionSchedule", "SchemeConfig", "RunTrace", "make_ddpm_schedule",
                "make_scheme_config", "ddpg_run", "run_scheme"),
    "denoisers": ("WienerPrior", "WienerMMSE", "GaussianSmooth", "Identity", "ExternalDenoiser"),
    "metrics": ("NoiseSpec", "degrade", "psnr", "mse"),
    "theory": ("TikhonovProblem", "verify_theorem1", "run_verifier_battery"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "io", "kernels"}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    """Import the submodule that owns ``name`` and cache the value here."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
