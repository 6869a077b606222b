"""Standard blur and anti-aliasing kernel constructors."""

from __future__ import annotations

import numpy as np

from .linops import _check_setting

__all__ = ["delta_kernel", "gaussian_kernel", "bicubic_kernel"]

# Keys' cubic-convolution parameter; -0.5 makes the interpolant third-order accurate.
_KEYS_A = -0.5


def delta_kernel(size: int = 1) -> np.ndarray:
    """Centered unit impulse; circular convolution with it is the identity."""
    _check_setting("size", size, "{1, 3, ...}")
    k = np.zeros((size, size))
    k[size // 2, size // 2] = 1.0
    return k


def gaussian_kernel(size: int, std: float) -> np.ndarray:
    """Isotropic Gaussian taps on a size x size grid, clipped to the grid.

    Clipping truncates the tails, so the taps are renormalized to sum to 1
    (keeps the blur mean-preserving).
    """
    _check_setting("size", size, "{1, 3, ...}")
    _check_setting("std", std, "(0, inf)")
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * std**2))
    return g / g.sum()


def _keys_cubic(x: np.ndarray) -> np.ndarray:
    a = _KEYS_A
    x = np.abs(x)
    out = np.zeros_like(x)
    near = x <= 1
    out[near] = (a + 2) * x[near] ** 3 - (a + 3) * x[near] ** 2 + 1
    mid = (x > 1) & (x < 2)
    out[mid] = a * x[mid] ** 3 - 5 * a * x[mid] ** 2 + 8 * a * x[mid] - 4 * a
    return out


def bicubic_kernel(scale: int) -> np.ndarray:
    """Separable bicubic (Keys, a = -0.5) anti-aliasing taps for integer downsampling.

    Support is 4*scale taps per axis (the cubic's (-2, 2) footprint
    stretched by the scale factor), sampled symmetrically about the
    geometric center and normalized to unit sum.
    """
    _check_setting("scale", scale, "{1, 2, ...}")
    size = 4 * scale
    offsets = (np.arange(size) - (size - 1) / 2.0) / scale
    taps = _keys_cubic(offsets)
    k = np.outer(taps, taps)
    return k / k.sum()
