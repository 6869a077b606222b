"""Independent reference restores and the benchmark's output check.

The restores the benchmark times are checked against loops written here
from the published equations alone, without calling pgrestore. With the
Wiener (posterior-mean) denoiser every step of IDPG and DDPG is affine
in the iterate, so:

* for blur and blur+downsampling operators the whole run is computed in
  the Fourier domain, one alias group of s^2 fine frequencies per coarse
  frequency (blur is the case s = 1), with no FFT inside the loop;
* for pixel masks the run is computed in pixel space, with a real FFT
  for the denoiser.

Random draws follow pgrestore's documented order (initial draw, then one
draw per iteration), so seeded DDPG restores are reproduced too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative L2 distance allowed between a restore and its reference.
# Float64 outputs agree to ~1e-13; the bound leaves room for changes of
# order 1e-10 in each step (re-associated FFT arithmetic) but not for a
# changed algorithm, which moves outputs by 1e-4 or more.
TOL_FLOAT64 = 1e-7
# Outputs read back from float32 tensor files carry float32 rounding.
TOL_FLOAT32 = 1e-6
# Allowed gap between a workload's mean PSNR and the reference mean.
TOL_PSNR_DB = 1e-3


@dataclass(frozen=True)
class Schedule:
    """The restore hyper-parameters the reference needs (CLI defaults)."""

    method: str
    T: int = 100
    sigma_e: float = 0.05
    gamma: float = 8.0
    eta_tilde: float = 0.7
    c: float = 1.0
    zeta: float = 0.5
    seed: int = 0
    policy: str = "unit"
    beta_start: float = 1e-4
    beta_end: float = 0.02


def smooth_spectrum(h: int, w: int, amplitude: float) -> np.ndarray:
    """amplitude / (1 + |f|^2), f in integer cycles per image."""
    fy = np.fft.fftfreq(h, d=1.0 / h)
    fx = np.fft.fftfreq(w, d=1.0 / w)
    return amplitude / (1.0 + fy[:, None] ** 2 + fx[None, :] ** 2)


def sample_image(rng: np.random.Generator, spectrum: np.ndarray, mean: float) -> np.ndarray:
    """One (1, h, w) draw from the stationary Gaussian prior."""
    white = rng.standard_normal((1,) + spectrum.shape)
    colored = np.fft.ifft2(np.sqrt(spectrum) * np.fft.fft2(white)).real
    return mean + colored


def kernel_response(kernel: np.ndarray, h: int, w: int) -> np.ndarray:
    """DFT of the kernel with its (floor) centre tap moved to index (0, 0)."""
    kh, kw = kernel.shape
    padded = np.zeros((h, w))
    padded[:kh, :kw] = kernel
    padded = np.roll(padded, (-((kh - 1) // 2), -((kw - 1) // 2)), axis=(0, 1))
    return np.fft.fft2(padded)


class _FourierSpace:
    """Blur (scale 1) or blur+downsample, with the iterate kept as its DFT."""

    def __init__(self, kernel, scale, y, spectrum, mean):
        h, w = spectrum.shape
        self.shape, self.s = (y.shape[0], h, w), scale
        self.H = kernel_response(kernel, h, w)
        self.gram = self._fold(np.abs(self.H) ** 2) / scale**2
        self.Y = np.fft.fft2(y)
        self.S = spectrum
        self.M = np.zeros(self.shape, dtype=complex)
        self.M[:, 0, 0] = mean * h * w

    def _fold(self, a):
        # Sum each alias group: fine index (p*hc + i, q*wc + j) -> (i, j).
        s = self.s
        return a.reshape(a.shape[:-2] + (s, a.shape[-2] // s, s, a.shape[-1] // s)).sum(
            axis=(-4, -2)
        )

    def _up(self, r):
        return np.tile(r, (1, self.s, self.s))

    def forward(self, X):
        return self._fold(self.H * X) / self.s**2

    def init_bp(self, eta):
        return np.conj(self.H) * self._up(self.Y / (self.gram + eta))

    def denoise(self, X, sigma):
        return self.M + self.S / (self.S + sigma**2) * (X - self.M)

    def guide(self, X0, delta, eta, c):
        weight = (1.0 - delta) / (self.gram + eta) + delta * c
        return np.conj(self.H) * self._up(weight * (self.forward(X0) - self.Y))

    def draw(self, rng):
        return np.fft.fft2(rng.standard_normal(self.shape))

    def pixels(self, X):
        return np.fft.ifft2(X).real


class _MaskSpace:
    """Pixel-subset sampling, with the iterate kept in pixel space."""

    def __init__(self, mask, y, spectrum, mean):
        self.mask, self.y, self.mean = mask, y, mean
        self.shape = (y.shape[0],) + mask.shape
        self.S_half = spectrum[:, : mask.shape[1] // 2 + 1]

    def init_bp(self, eta):
        out = np.zeros(self.shape)
        out[:, self.mask] = self.y / (1.0 + eta)
        return out

    def denoise(self, x, sigma):
        shrink = self.S_half / (self.S_half + sigma**2)
        centred = np.fft.rfft2(x - self.mean)
        return self.mean + np.fft.irfft2(shrink * centred, s=self.mask.shape)

    def guide(self, x0, delta, eta, c):
        out = np.zeros(self.shape)
        out[:, self.mask] = ((1.0 - delta) / (1.0 + eta) + delta * c) * (x0[:, self.mask] - self.y)
        return out

    def draw(self, rng):
        return rng.standard_normal(self.shape)

    def pixels(self, x):
        return x


def reference_restore(task, y, sched: Schedule, spectrum, mean, *, kernel=None, scale=1, mask=None):
    """Restore ``y`` with IDPG or DDPG and the matched Wiener denoiser."""
    y = np.asarray(y, dtype=float)
    if task == "inpaint":
        space = _MaskSpace(np.asarray(mask, dtype=bool), y.reshape(y.shape[0], -1), spectrum, mean)
    else:
        space = _FourierSpace(np.asarray(kernel, dtype=float), scale, y, spectrum, mean)
    T = sched.T
    beta = np.linspace(sched.beta_start, sched.beta_end, T)
    abar = np.concatenate(([1.0], np.cumprod(1.0 - beta)))
    if sched.sigma_e > 0:
        delta = np.clip(abar[1:] ** sched.gamma, 0.0, 1.0)
        w = delta
    else:
        delta, w = np.zeros(T), np.ones(T)
    if sched.policy == "unit":
        mu = np.ones(T)
    else:
        mu = (1.0 - abar[:-1]) / (1.0 - abar[1:])
    eta = max(1e-4, (2.0 * sched.sigma_e) ** 2 * sched.eta_tilde)

    ddpg = sched.method == "ddpg"
    rng = np.random.default_rng(sched.seed)
    x = space.draw(rng) if ddpg else space.init_bp(eta)
    for t in range(T, 0, -1):
        a = abar[t]
        sigma_t = math.sqrt((1.0 - a) / a)
        x0 = space.denoise(x / math.sqrt(a) if ddpg else x, sigma_t)
        guided = x0 - mu[t - 1] * space.guide(x0, delta[t - 1], eta, sched.c)
        if not ddpg:
            x = guided
            continue
        eps_hat = (x - math.sqrt(a) * guided) / math.sqrt(1.0 - a)
        noise = (w[t - 1] * math.sqrt(1.0 - sched.zeta) * eps_hat
                 + math.sqrt(sched.zeta) * space.draw(rng))
        x = math.sqrt(abar[t - 1]) * guided + math.sqrt(1.0 - abar[t - 1]) * noise
    return space.pixels(x)


def psnr_db(x, ref) -> float:
    """PSNR of ``x`` clipped to [0, 1] against ``ref`` (peak 1)."""
    err = float(np.mean((np.clip(x, 0.0, 1.0) - ref) ** 2))
    return math.inf if err == 0.0 else 10.0 * math.log10(1.0 / err)


def rel_l2(x, ref) -> float:
    return float(np.linalg.norm(np.asarray(x, float) - ref) / np.linalg.norm(ref))


def output_problem(x, shape) -> str | None:
    """Why a restore's output is unusable, or None: wrong shape or non-finite."""
    if x is None:
        return "no output"
    if tuple(np.shape(x)) != tuple(shape):
        return f"shape {tuple(np.shape(x))}, expected {tuple(shape)}"
    if not np.isfinite(x).all():
        return "non-finite values"
    return None


def check_against_reference(x, ref, tol) -> str | None:
    """None when ``x`` is within ``tol`` (relative L2) of ``ref``, else why not."""
    problem = output_problem(x, ref.shape)
    if problem:
        return problem
    err = rel_l2(x, ref)
    if not err <= tol:
        return f"relative L2 error {err:.3e} against the reference exceeds {tol:.0e}"
    return None
