"""Linear observation operators with FFT fast paths.

Every operator ``A`` maps an image-shaped array to a measurement-shaped
array and exposes the primitives that the guidance and restoration code
builds on:

    apply(x)               -> A x
    apply_adjoint(r)       -> A^T r
    solve_gram(r, eta)     -> (A A^T + eta I)^-1 r
    apply_reg_pinv(z, eta) -> A^T (A A^T + eta I)^-1 z

Downsample+convolution inverts its Gram operator with a closed-form
frequency-domain division; circular convolution is its stride-1 case.
Masks are tight frames (A A^T = I, so the Gram solve is a scaling), and
dense matrices use direct solves and exist for oracle-scale testing.

``fourier_filter(x, response)`` holds the package's FFT convention (images
are real: ``rfft2``/``irfft2`` over the last two axes, responses on the
half spectrum of ``w//2 + 1`` columns); the primitives and denoisers use it.
Each operator builds a run's guided step, ``guided_step(y, eta, c)``, the
step of :func:`pgrestore.guidance.guide` for one measurement (the base class
calls ``guide``). ``DownsampleConvolution`` forms it on the coarse half
spectrum with one rfft2 and one irfft2; ``Mask`` on the image grid, with a
scalar weighting and no transform.

Boundary handling is circular everywhere. Operators act channel-wise on
(channels, height, width) arrays, are immutable after construction, and
never mutate their inputs, so instances can be shared across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "SingularOperatorError",
    "LinearOperator",
    "CircularConvolution",
    "DownsampleConvolution",
    "Mask",
    "DenseOperator",
    "fourier_filter",
    "as_image",
    "SPECTRAL_ZERO_TOL",
    "DENSE_SIZE_CAP",
]

# Gram-spectrum values at or below this fraction of their largest value
# are treated as exact zeros when inverting with eta = 0 (double-precision
# noise floor). Relative, so scaling a kernel does not change the verdict.
SPECTRAL_ZERO_TOL = 1e-12

# Dense operators exist for oracle-scale tests only.
DENSE_SIZE_CAP = 4096


class ShapeMismatchError(ValueError):
    """An array does not match the shape the operator expects."""


class SingularOperatorError(ValueError):
    """The Gram operator A A^T cannot be inverted with eta = 0."""


def as_image(x) -> np.ndarray:
    """Coerce to a float (channels, height, width) array and validate it.

    Checks the invariants every image-shaped array must satisfy: three
    strictly positive dimensions and no NaN/Inf entries.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise ShapeMismatchError(
            f"expected a (channels, height, width) array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("image contains non-finite entries")
    return arr


def _check_shape(name: str, arr: np.ndarray, expected) -> None:
    if tuple(arr.shape) != tuple(expected):
        raise ShapeMismatchError(
            f"{name} has shape {tuple(arr.shape)}, expected {tuple(expected)}"
        )


def _kernel_response(kernel: np.ndarray, grid_shape) -> np.ndarray:
    """Frequency response of circular convolution with ``kernel``.

    The tap at the floor of the kernel's geometric center is circularly
    shifted to index (0, 0) before the FFT, so a centered delta kernel
    has an exactly flat unit response.
    """
    kh, kw = kernel.shape
    h, w = grid_shape
    if kh > h or kw > w:
        raise ValueError(f"kernel {kernel.shape} larger than grid {tuple(grid_shape)}")
    padded = np.zeros((h, w))
    padded[:kh, :kw] = kernel
    padded = np.roll(padded, ((-((kh - 1) // 2)), (-((kw - 1) // 2))), axis=(0, 1))
    return np.fft.rfft2(padded)


def fourier_filter(x: np.ndarray, response: np.ndarray) -> np.ndarray:
    """irfft2(rfft2(x) * response) over the last two axes.

    The one place the package applies a Fourier-domain filter: ``response``
    is given on the rfft2 half spectrum of ``x`` (``w//2 + 1`` columns).
    Returns a fresh C-contiguous real array.
    """
    spectrum = np.fft.rfft2(x, axes=(-2, -1))
    spectrum *= response
    return np.fft.irfft2(spectrum, s=x.shape[-2:], axes=(-2, -1))


def _full_width(half: np.ndarray, width: int) -> np.ndarray:
    """A real image's spectrum on all ``width`` columns, from its rfft2 half.

    Hermitian symmetry, X[u, v] = conj X[-u mod h, width - v], gives the
    missing columns: the half's columns (width - 1) // 2 .. 1 with rows
    0, h - 1, .., 1, conjugated.
    """
    k = half.shape[-1]
    full = np.empty(half.shape[:-1] + (width,), dtype=half.dtype)
    full[..., :k] = half
    tail = half[..., (width + 1) // 2 - 1:0:-1]
    np.conjugate(tail[..., :1, :], out=full[..., :1, k:])
    np.conjugate(tail[..., :0:-1, :], out=full[..., 1:, k:])
    return full


def _half_sum(a: np.ndarray, width: int) -> float:
    """Full-grid sum of a Hermitian-symmetric array given on its rfft2 half.

    Columns 1 .. (width - 1) // 2 stand for two frequencies each, the rest for one.
    """
    return float(a.sum() + a[..., 1:(width + 1) // 2].sum())


def _check_invertible(gram_spectrum: np.ndarray, eta: float) -> None:
    """Reject eta = 0 when the Gram spectrum vanishes relative to its peak."""
    if eta == 0.0:
        bad = int(np.count_nonzero(
            gram_spectrum <= SPECTRAL_ZERO_TOL * gram_spectrum.max()))
        if bad:
            raise SingularOperatorError(
                f"cannot invert with eta=0: Gram spectrum vanishes at "
                f"{bad} of {gram_spectrum.size} frequencies of its half spectrum"
            )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class LinearOperator:
    """Base class: a linear map with adjoint and regularized pseudoinverse.

    Subclasses set ``input_shape``/``output_shape``, provide ``norm``
    (the spectral norm ||A||, exact) and implement ``_apply``,
    ``_apply_adjoint`` and ``_solve_gram``; the public methods add shape
    validation; ``guided_step`` may be overridden with a faster form.
    """

    input_shape: tuple
    output_shape: tuple
    norm: float

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward map A x."""
        x = np.asarray(x, dtype=float)
        _check_shape("input", x, self.input_shape)
        return self._apply(x)

    def apply_adjoint(self, r: np.ndarray) -> np.ndarray:
        """Adjoint map A^T r, satisfying <A u, v> = <u, A^T v>."""
        r = np.asarray(r, dtype=float)
        _check_shape("measurement", r, self.output_shape)
        return self._apply_adjoint(r)

    def solve_gram(self, r: np.ndarray, eta: float) -> np.ndarray:
        """Measurement-space solve (A A^T + eta I)^-1 r."""
        r = np.asarray(r, dtype=float)
        _check_shape("measurement", r, self.output_shape)
        if eta < 0:
            raise ValueError(f"eta must be nonnegative, got {eta}")
        return self._solve_gram(r, float(eta))

    def apply_reg_pinv(self, z: np.ndarray, eta: float) -> np.ndarray:
        """Regularized pseudoinverse A^T (A A^T + eta I)^-1 z."""
        return self.apply_adjoint(self.solve_gram(z, eta))

    def guided_step(self, y, eta, c):
        """``step(x0, delta, mu)``, which returns ``guide(self, x0, y, delta, eta, c, mu)``.

        Nothing is checked here: ``guidance.make_guided_step`` checks y and
        eta and supplies c; a run's ``SchemeConfig`` holds delta in [0, 1].
        """
        from .guidance import guide  # guidance imports this module

        return lambda x0, delta, mu: guide(self, x0, y, delta, eta, c, mu)

    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, r):
        raise NotImplementedError

    def _solve_gram(self, r, eta):
        raise NotImplementedError


class DownsampleConvolution(LinearOperator):
    """Anti-aliasing convolution followed by subsampling with stride ``scale``.

    Keeps pixels at indices (0, s, 2s, ...) after circularly convolving
    with ``kernel``. The Gram operator A A^T is a circular convolution on
    the coarse grid whose spectrum G is the mean of |F(k)|^2 over the
    s x s fine-grid frequencies that alias to each coarse frequency, which
    makes the regularized pseudoinverse a coarse-grid division followed by
    zero-fill upsampling and adjoint filtering, and ||A||^2 = max G. With
    s = 1, G is |F(k)|^2 itself and the operator is plain circular
    convolution. Both spectra are kept on the rfft2 half grid.
    """

    def __init__(self, kernel, scale, image_shape):
        kernel = np.array(kernel, dtype=float)
        if kernel.ndim != 2:
            raise ValueError("kernel must be 2-D")
        if not np.isfinite(kernel).all():
            raise ValueError("kernel contains non-finite entries")
        if not kernel.any():
            raise ValueError(f"kernel {kernel.shape} has no nonzero tap, so A = 0")
        scale = int(scale)
        if scale < 1:
            raise ValueError(f"scale must be a positive integer, got {scale}")
        if len(image_shape) != 3:
            raise ValueError("image_shape must be (channels, height, width)")
        c, h, w = (int(s) for s in image_shape)
        if h % scale or w % scale:
            raise ValueError(
                f"image sides {(h, w)} must be divisible by scale {scale}"
            )
        self.input_shape = (c, h, w)
        self.output_shape = (c, h // scale, w // scale)
        self.scale = scale
        self.kernel = _freeze(kernel)
        self._response = _freeze(_kernel_response(kernel, (h, w)))
        power = _full_width(np.abs(self._response) ** 2, w)
        gram = power.reshape(scale, h // scale, scale, w // scale).sum(axis=(0, 2)) / scale**2
        self._gram_response = _freeze(np.ascontiguousarray(gram[:, : w // scale // 2 + 1]))

    @property
    def frequency_response(self) -> np.ndarray:
        """The kernel's frequency response on the rfft2 half grid, (h, w//2 + 1)."""
        return self._response

    @property
    def norm(self) -> float:
        return float(np.sqrt(self._gram_response.max()))

    def _apply(self, x):
        s = self.scale  # a copy for s > 1: a view would keep the fine grid alive
        return np.ascontiguousarray(fourier_filter(x, self._response)[..., ::s, ::s])

    def _apply_adjoint(self, r):
        up = np.zeros(r.shape[:-2] + self.input_shape[1:])
        up[..., :: self.scale, :: self.scale] = r
        return fourier_filter(up, np.conj(self._response))

    def _solve_gram(self, r, eta):
        _check_invertible(self._gram_response, eta)
        return fourier_filter(r, 1.0 / (self._gram_response + eta))

    def guided_step(self, y, eta, c):
        """``guidance.guide`` in the Fourier domain, for this operator and a fixed y.

        Returns ``step(x0, delta, mu) -> (x, objective, residual,
        objective_after, residual_after)``, equal to ``guide(self, x0, y,
        delta, eta, c, mu)`` up to rounding. With R = fold(H F(x0)) / s^2
        - F(y), where fold sums each alias group, the weighting W is the
        per-frequency weight (1 - delta)/(G + eta) + delta c, the residual
        after the step is R - mu G W R, and both objectives and residuals
        follow by Parseval. Everything lives on the rfft2 half grid, so a
        call takes one rfft2 and one irfft2; for s > 1 the fold and its
        adjoint pass through the full coarse width by Hermitian symmetry.
        Nothing is checked here, as in ``LinearOperator.guided_step``.
        """
        s = self.scale
        channels, h, w = self.input_shape
        hc, wc = h // s, w // s
        size = hc * wc
        response, gram = self._response, self._gram_response
        y_hat = np.fft.rfft2(y, axes=(-2, -1))
        inverse = None

        def weight(delta):
            # Exactly c at delta = 1, so a vanishing G + eta never meets 0 * inf.
            nonlocal inverse
            if delta == 1.0:
                return c
            if inverse is None:
                _check_invertible(gram, eta)
                inverse = 1.0 / (gram + eta)
            if delta == 0.0:
                return inverse
            return (1.0 - delta) * inverse + delta * c

        def data_term(r, weights):
            power = r.real**2
            power += r.imag**2
            residual = float(np.sqrt(_half_sum(power, wc) / size))
            power *= weights
            return [0.5 * _half_sum(power, wc) / size, residual]

        def step(x0, delta, mu):
            r = np.fft.rfft2(x0, axes=(-2, -1))
            r *= response
            if s > 1:  # fold: rows by a reshape-sum, columns once extended to full width
                r = r.reshape(channels, s, hc, -1).sum(axis=1)
                r = _full_width(r, w).reshape(channels, hc, s, wc).sum(axis=2)[..., : wc // 2 + 1]
                r /= s * s
            r -= y_hat
            weights = weight(delta)
            w_r = weights * r
            numbers = data_term(r, weights)
            r *= 1.0 - mu * gram * weights  # R - mu G W R: the residual after the step
            numbers += data_term(r, weights)
            # Each buffer is freed once used: the transforms set the peak memory.
            del r
            if s > 1:  # the adjoint of the fold: tile s x s, keep the fine half grid
                w_r = np.tile(_full_width(w_r, wc), (s, s // 2 + 1))[..., : w // 2 + 1]
            w_r *= np.conj(response)
            x = np.fft.irfft2(w_r, s=(h, w), axes=(-2, -1))
            x *= -mu
            x += x0
            return (x, *numbers)

        return step


class CircularConvolution(DownsampleConvolution):
    """Circular convolution with a 2-D kernel of odd side lengths.

    The stride-1 case of :class:`DownsampleConvolution`: measurements have
    the image's shape and the Gram solve is a per-frequency division by
    |F(k)|^2 + eta.
    """

    def __init__(self, kernel, image_shape):
        if any(side % 2 == 0 for side in np.shape(kernel)):
            raise ValueError(f"kernel sides must be odd, got {np.shape(kernel)}")
        super().__init__(kernel, 1, image_shape)


class Mask(LinearOperator):
    """Pixel-subset sampling. A tight frame: A A^T = I, so A^+ = A^T.

    The same 2-D boolean mask is applied to every channel; measurements
    are (channels, kept) arrays in row-major pixel order.
    """

    def __init__(self, mask, image_shape):
        mask = np.array(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("mask must be 2-D")
        c, h, w = (int(s) for s in image_shape)
        if mask.shape != (h, w):
            raise ValueError(f"mask shape {mask.shape} does not match image {(h, w)}")
        kept = int(mask.sum())
        if kept == 0:
            raise ValueError("mask keeps no pixels")
        self.mask = _freeze(mask)
        self.kept = kept
        self.input_shape = (c, h, w)
        self.output_shape = (c, kept)

    norm = 1.0

    def _apply(self, x):
        return x[:, self.mask]

    def _apply_adjoint(self, r):
        out = np.zeros(self.input_shape)
        out[:, self.mask] = r
        return out

    def _solve_gram(self, r, eta):
        return r / (1.0 + eta)

    def guided_step(self, y, eta, c):
        """``guidance.guide`` on the image grid, equal to it up to rounding.

        A A^T = I makes W the scalar (1 - delta)/(1 + eta) + delta c, exactly
        c at delta = 1. With r = mask x0 - A^T y (zero off the mask), x = x0 -
        mu W r and the residual after the step is (1 - mu W) r. Nothing is
        checked here, as in ``LinearOperator.guided_step``.
        """
        y_full = self._apply_adjoint(y)
        mask = self.mask.astype(float)

        def step(x0, delta, mu):
            weight = c if delta == 1.0 else (1.0 - delta) / (1.0 + eta) + delta * c
            r = np.multiply(x0, mask)
            r -= y_full
            # Not np.vdot: OpenBLAS's threaded dot spins a core that DDPG's draw-ahead needs.
            power, shrink = float(np.einsum("ijk,ijk->", r, r)), 1.0 - mu * weight
            r *= -mu * weight  # x = x0 - mu W r, in r's buffer
            r += x0
            return (r, 0.5 * weight * power, np.sqrt(power),
                    0.5 * weight * shrink**2 * power, abs(shrink) * np.sqrt(power))

        return step


class DenseOperator(LinearOperator):
    """Explicit m x n matrix, for small instances and test oracles.

    ``input_shape``/``output_shape`` default to flat vectors but can be
    any shapes with matching element counts.
    """

    def __init__(self, matrix, input_shape=None, output_shape=None):
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix contains non-finite entries")
        m, n = matrix.shape
        if n > DENSE_SIZE_CAP:
            raise ValueError(f"dense operators are capped at n <= {DENSE_SIZE_CAP}")
        self.matrix = _freeze(matrix)
        self.input_shape = (n,) if input_shape is None else tuple(input_shape)
        self.output_shape = (m,) if output_shape is None else tuple(output_shape)
        if int(np.prod(self.input_shape)) != n or int(np.prod(self.output_shape)) != m:
            raise ValueError("shapes do not match the matrix dimensions")
        self._gram_matrix = None

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def _apply(self, x):
        return (self.matrix @ x.ravel()).reshape(self.output_shape)

    def _apply_adjoint(self, r):
        return (self.matrix.T @ r.ravel()).reshape(self.input_shape)

    def _gram(self):
        # Lazy and idempotent; safe under the GIL.
        if self._gram_matrix is None:
            self._gram_matrix = self.matrix @ self.matrix.T
        return self._gram_matrix

    def _solve_gram(self, r, eta):
        g = self._gram() + eta * np.eye(self.matrix.shape[0])
        if eta == 0.0:
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise SingularOperatorError(
                    "A A^T is not positive definite; eta=0 inversion is singular"
                ) from None
        return np.linalg.solve(g, r.ravel()).reshape(self.output_shape)

