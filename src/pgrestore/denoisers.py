"""Gaussian denoisers D(x, sigma) and the external file-protocol adapter.

The built-ins are classical and analytically tractable, which is what
the verification suite needs: ``WienerMMSE`` is the exact posterior mean
under a stationary Gaussian prior (filtered on the rfft2 half spectrum),
so every claim about the pipeline can be checked in closed form. A
denoiser is any callable ``(x, sigma) -> x_estimate``; the classes here
are thread-safe callables. Only ``WienerMMSE`` keeps mutable state: a
half-spectrum work array for each calling thread, so that concurrent
callers share nothing they write. The external adapter isolates each
call in its own temporary workspace.
"""

from __future__ import annotations

import shlex
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .io import read_tensor, write_tensor
from .linops import _check_setting, fourier_filter, rfft2_into

__all__ = [
    "Identity",
    "GaussianSmooth",
    "WienerPrior",
    "WienerMMSE",
    "ExternalDenoiser",
    "ExternalDenoiserError",
    "make_denoiser",
]

# Seconds one external denoiser call may take before the run fails.
_EXTERNAL_TIMEOUT_S = 120.0


class ExternalDenoiserError(RuntimeError):
    """An external denoiser command failed or produced malformed output."""


class Identity:
    """Returns the input unchanged for every noise level."""

    def __call__(self, x: np.ndarray, sigma: float) -> np.ndarray:
        _check_setting("sigma", sigma)
        return x


class GaussianSmooth:
    """Circular Gaussian smoothing with bandwidth h = kappa * sigma.

    A heuristic denoiser: the smoothing kernel is built on the full
    image grid with periodic distances and normalized to unit sum, so
    the mean pixel value is preserved.
    """

    def __init__(self, kappa: float = 1.0):
        _check_setting("kappa", kappa, "(0, inf)")
        self.kappa = float(kappa)

    def __call__(self, x: np.ndarray, sigma: float) -> np.ndarray:
        _check_setting("sigma", sigma)
        h = self.kappa * sigma
        if h < 1e-12:
            return x
        _, height, width = x.shape
        dy = np.minimum(np.arange(height), height - np.arange(height))
        dx = np.minimum(np.arange(width), width - np.arange(width))
        taps = np.exp(-(dy[:, None] ** 2 + dx[None, :] ** 2) / (2.0 * h**2))
        taps /= taps.sum()
        return fourier_filter(x, rfft2_into(taps))


@dataclass(frozen=True)
class WienerPrior:
    """Stationary Gaussian image prior: a power spectrum and a mean image.

    ``spectrum`` is a nonnegative (height, width) array over the full FFT
    grid, symmetric under frequency negation so that samples are real,
    which makes its rfft2 half (``width//2 + 1`` columns, kept sliced as
    ``half_spectrum``) enough to filter with. ``mean`` is a float array
    that broadcasts to (height, width) or to (channels, height, width).
    """

    spectrum: np.ndarray
    mean: float | np.ndarray = 0.0
    half_spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = np.asarray(self.spectrum, dtype=float)
        object.__setattr__(self, "spectrum", spec)
        if spec.ndim != 2:
            raise ValueError("spectrum must be a 2-D array")
        if np.any(spec < 0) or not np.isfinite(spec).all():
            raise ValueError("spectrum must be finite and nonnegative")
        flipped = np.roll(spec[::-1, ::-1], 1, axis=(0, 1))  # spec at -f
        if not np.allclose(spec, flipped, rtol=1e-10, atol=1e-12):
            raise ValueError("spectrum must be symmetric under frequency negation")
        object.__setattr__(self, "half_spectrum",
                           np.ascontiguousarray(spec[:, : spec.shape[1] // 2 + 1]))
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "mean", mean)
        if (mean.ndim > 3 or not np.isfinite(mean).all()
                or any(m not in (1, n) for m, n in zip(mean.shape[::-1], spec.shape[::-1]))):
            raise ValueError(f"mean of shape {mean.shape} must be finite and broadcast to "
                             "(height, width) or (channels, height, width)")

    @staticmethod
    def smooth_default(shape, amplitude: float = 1.0) -> "WienerPrior":
        """Prior with spectrum amplitude / (1 + |f|^2), f in integer cycles per image."""
        height, width = shape
        fy = np.fft.fftfreq(height, d=1.0 / height)
        fx = np.fft.fftfreq(width, d=1.0 / width)
        spectrum = amplitude / (1.0 + fy[:, None] ** 2 + fx[None, :] ** 2)
        return WienerPrior(spectrum=spectrum)

    def sample(self, rng: np.random.Generator, channels: int = 1) -> np.ndarray:
        """Draw an image from the prior (spectral coloring of white noise)."""
        _check_setting("channels", channels, "{1, 2, ...}")
        self._check_channels(channels)
        white = rng.standard_normal((channels,) + self.spectrum.shape)
        out = fourier_filter(white, np.sqrt(self.half_spectrum))
        return np.add(out, self.mean, out=out)

    def _check_channels(self, channels: int) -> None:
        if self.mean.ndim == 3 and self.mean.shape[0] not in (1, channels):
            raise ValueError(f"prior mean has {len(self.mean)} channels, the image has {channels}")


class WienerMMSE:
    """Exact posterior-mean denoiser under a :class:`WienerPrior`.

    Per frequency f of the half spectrum: mean(f) + p(f) / (p(f) + sigma^2)
    * (x(f) - mean(f)). sigma = 0 returns the input untouched. x - mean, the
    mean broadcast, is filtered in place, in the array that is returned,
    through a spectrum work array that each calling thread keeps for its
    channel count, so that a call allocates only its output and the shrink
    weights (half an image, made afresh: kept as well, they raised a 256^2
    benchmark's peak resident memory by 1.5 MB).
    """

    def __init__(self, prior: WienerPrior):
        self.prior = prior
        self._work = threading.local()

    def __call__(self, x: np.ndarray, sigma: float) -> np.ndarray:
        _check_setting("sigma", sigma)
        if sigma == 0.0:
            return x
        prior = self.prior
        if prior.spectrum.shape != x.shape[1:]:
            raise ValueError(
                f"prior grid {prior.spectrum.shape} does not match image {x.shape[1:]}"
            )
        prior._check_channels(x.shape[0])
        half = prior.half_spectrum
        shrink = half + sigma**2
        np.divide(half, shrink, out=shrink)
        out = np.subtract(x, prior.mean, out=np.empty(x.shape))
        fourier_filter(out, shrink, out=out, spectrum=self._spectrum((x.shape[0],) + half.shape))
        out += prior.mean
        return out

    def _spectrum(self, shape):
        """This thread's half-spectrum work array of ``shape``, made on first use."""
        spectrum = getattr(self._work, "spectrum", None)
        if spectrum is None or spectrum.shape != shape:
            spectrum = self._work.spectrum = np.empty(shape, dtype=complex)
        return spectrum


class ExternalDenoiser:
    """Runs ``<cmd> <input.pgt> <output.pgt> <sigma>`` in a private workspace.

    The input tensor is written to a fresh temporary directory, the
    command is invoked with the two file paths and the noise level
    appended, and the output tensor is read back and shape-checked.
    Unique directories keep concurrent calls isolated.
    """

    def __init__(self, cmd):
        if isinstance(cmd, str):
            cmd = shlex.split(cmd)
        self.cmd = tuple(str(part) for part in cmd)
        if not self.cmd:
            raise ValueError("external denoiser command is empty")

    def __call__(self, x: np.ndarray, sigma: float) -> np.ndarray:
        import subprocess  # only here: a worker that imports this module never spawns

        _check_setting("sigma", sigma)
        workspace = Path(tempfile.mkdtemp(prefix="pgrestore-denoise-"))
        try:
            in_path = workspace / "input.pgt"
            out_path = workspace / "output.pgt"
            write_tensor(in_path, x)
            argv = list(self.cmd) + [str(in_path), str(out_path), repr(float(sigma))]
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=_EXTERNAL_TIMEOUT_S
                )
            except OSError as exc:
                raise ExternalDenoiserError(f"could not launch {argv[0]!r}: {exc}") from exc
            except subprocess.TimeoutExpired as exc:
                raise ExternalDenoiserError(
                    f"{argv[0]!r} timed out after {_EXTERNAL_TIMEOUT_S}s") from exc
            if proc.returncode != 0:
                raise ExternalDenoiserError(
                    f"{argv[0]!r} exited with status {proc.returncode}; "
                    f"stderr: {proc.stderr.strip()[:500]}"
                )
            try:
                out = read_tensor(out_path)
            except (OSError, ValueError) as exc:
                raise ExternalDenoiserError(f"malformed denoiser output: {exc}") from exc
            if out.shape != x.shape:
                raise ExternalDenoiserError(
                    f"denoiser returned shape {out.shape}, expected {x.shape}"
                )
            return out
        finally:
            shutil.rmtree(workspace, ignore_errors=True)


def make_denoiser(spec: str, prior: WienerPrior):
    """Build a denoiser from a CLI-style spec string.

    Accepted forms: "identity", "wiener" (``WienerMMSE(prior)``), "gauss",
    "gauss:<kappa>", "external:<command line>".
    """
    if spec == "identity":
        return Identity()
    if spec == "wiener":
        return WienerMMSE(prior)
    if spec == "gauss":
        return GaussianSmooth()
    if spec.startswith("gauss:"):
        return GaussianSmooth(kappa=float(spec.split(":", 1)[1]))
    if spec.startswith("external:"):
        return ExternalDenoiser(spec.split(":", 1)[1])
    raise ValueError(f"unknown denoiser spec {spec!r}")
