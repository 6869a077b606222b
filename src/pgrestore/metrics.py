"""Degradation synthesis and reconstruction quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import LinearOperator, ShapeMismatchError

__all__ = ["NoiseSpec", "degrade", "mse", "psnr"]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian measurement noise: level and seed."""

    sigma_e: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma_e < math.inf:
            raise ValueError(f"sigma_e must be nonnegative and finite, got {self.sigma_e}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def degrade(op: LinearOperator, x_star: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Synthesize a measurement A x* + sigma_e * g with seeded standard normal g.

    sigma_e = 0 returns A x* exactly; equal specs give identical outputs.
    """
    y = op.apply(x_star)
    if noise.sigma_e > 0:
        rng = np.random.default_rng(noise.seed)
        y = y + noise.sigma_e * rng.standard_normal(y.shape)
    return y


def mse(x: np.ndarray, ref: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ShapeMismatchError(f"shape mismatch: {x.shape} vs {ref.shape}")
    return float(np.mean((x - ref) ** 2))


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """10 log10(1 / MSE) in dB, the peak of unit-range images; identical inputs give math.inf.

    No clamping is applied here; callers that want the usual [0, 1]
    evaluation convention clamp before calling.
    """
    err = mse(x, ref)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / err)
