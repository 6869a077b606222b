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
are real: the 2-D real FFT and its inverse over the last two axes,
responses on the half spectrum of ``w//2 + 1`` columns); the primitives
and denoisers use it. Every 2-D transform is ``rfft2_into`` or
``irfft2_into``: the two 1-D passes of ``rfft2`` or ``irfft2``, written
into a given array without the n-D functions' temporaries. Each pass calls
the pocketfft ufunc that ``numpy.fft`` itself calls (from the private
``numpy.fft._pocketfft_umath``, which ``numpy.fft`` uses from numpy 2.0 on)
with numpy's own arguments, so the results are bit-identical to
``numpy.fft``'s without its per-call argument handling; the tests pin the
equality.
Each operator builds a run's guided step, ``guided_step(y, eta, c)``, the
step of :func:`pgrestore.guidance.guide` for one measurement (the base class
calls ``guide``). ``DownsampleConvolution`` forms it on the coarse half
spectrum with one transform each way, in work arrays that the step owns
for the run (the fine spectrum, the fold arrays, the weights, |R|^2 and
the residual factor), so that a call allocates only the image it returns;
``Mask`` on the image grid, with a scalar weighting and no transform.

Boundary handling is circular everywhere. Operators act channel-wise on
(channels, height, width) arrays, are immutable after construction, and
never mutate their inputs, so instances can be shared across threads; a
guided step, which writes into its own arrays, serves one run in one thread.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

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


# Each domain: low, high, both ends open, the step of a count (a count must be a Python
# or numpy integer, so no float is truncated, and not a bool) or None, and what a value
# outside must do.
# NaN and +-inf lie in no domain.
_DOMAINS = {
    "[0, inf)": (0, math.inf, False, None, "be nonnegative and finite"),
    "(0, inf)": (0, math.inf, True, None, "be positive and finite"),
    "[0, 1]": (0, 1, False, None, "lie in [0, 1]"),
    "(0, 1)": (0, 1, True, None, "lie strictly inside (0, 1)"),
    "{0, 1, ...}": (0, math.inf, False, 1, "be nonnegative"),
    "{1, 2, ...}": (1, math.inf, False, 1, "be at least 1"),
    "{1, 3, ...}": (1, math.inf, False, 2, "be a positive odd integer"),
}


def _check_setting(name: str, value, domain: str = "[0, inf)") -> None:
    """The check of every numeric setting: a ValueError ``<name> must ..., got <value>``."""
    low, high, strict, step, requirement = _DOMAINS[domain]
    if step and (not isinstance(value, (int, np.integer)) or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    valid = low < value < high if strict else low <= value <= high
    if not (valid and ((value - low) % step == 0 if step else math.isfinite(value))):
        raise ValueError(f"{name} must {requirement}, got {value}")


def _image_shape(image_shape) -> tuple:
    """An operator's ``image_shape``, three sides each checked as a count."""
    if len(image_shape) != 3:
        raise ValueError("image_shape must be (channels, height, width)")
    for name, side in zip(("channels", "height", "width"), image_shape):
        _check_setting(name, side, "{1, 2, ...}")
    return tuple(image_shape)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")


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
    _check_finite("image", arr)
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
    return rfft2_into(padded)


def fourier_filter(x: np.ndarray, response: np.ndarray, out=None, spectrum=None) -> np.ndarray:
    """irfft2(rfft2(x) * response) over the last two axes.

    The one place the package applies a Fourier-domain filter: ``response``
    is given on the rfft2 half spectrum of ``x`` (``w//2 + 1`` columns).
    Returns ``out``, or a fresh C-contiguous real array. A caller that
    filters often passes its own work arrays: ``out`` (real, x's shape; it
    may be ``x`` itself) and ``spectrum`` (complex, the half spectrum's
    shape), and then the call allocates nothing the size of an image.
    """
    spectrum = rfft2_into(x, spectrum)
    _multiply_spectrum(spectrum, response)
    return irfft2_into(spectrum, np.empty(x.shape) if out is None else out)


# The gufunc ``axes=`` of a 1-D pass over the last axis and over the rows, as
# numpy.fft passes them: the input's core axis, none for the factor, the output's.
_LAST_AXIS = [(-1,), (), (-1,)]
_ROW_AXIS = [(-2,), (), (-2,)]


def rfft2_into(x: np.ndarray, spectrum=None) -> np.ndarray:
    """``rfft2(x, axes=(-2, -1))`` bit for bit, written into ``spectrum`` (or a fresh array).

    ``rfft2``'s own 1-D passes, an ``rfft`` over the last axis, then an
    ``fft`` along the rows in place, as direct calls of the pocketfft ufuncs
    with the factor 1 that ``numpy.fft`` passes; its Python layer costs more
    than the transforms on 32^2.
    """
    w = x.shape[-1]
    if spectrum is None:
        spectrum = np.empty(x.shape[:-1] + (w // 2 + 1,), dtype=complex)
    rfft = _pocketfft.rfft_n_even if w % 2 == 0 else _pocketfft.rfft_n_odd
    rfft(x, 1, axes=_LAST_AXIS, out=spectrum)
    return _pocketfft.fft(spectrum, 1, axes=_ROW_AXIS, out=spectrum)


def irfft2_into(spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``irfft2(spectrum, s=out.shape[-2:], axes=(-2, -1))`` bit for bit, written into ``out``.

    The same two passes as ``irfft2``, an ``ifft`` along the rows with the
    factor 1/h, then an ``irfft`` along the columns with the factor 1/w,
    as direct calls of the pocketfft ufuncs with ``numpy.fft``'s factors.
    The row pass runs in place, so ``spectrum`` is overwritten. ``irfft2``
    itself cannot write into ``out``: its row pass always makes a complex
    temporary, and numpy 2.4's ``irfft2`` hands ``out=None`` on to ``irfftn``.
    """
    h, w = out.shape[-2:]
    _pocketfft.ifft(spectrum, 1 / h, axes=_ROW_AXIS, out=spectrum)
    return _pocketfft.irfft(spectrum, 1 / w, axes=_LAST_AXIS, out=out)


def _multiply_spectrum(spectrum: np.ndarray, factor) -> None:
    """``spectrum *= factor`` in place.

    A real ``factor`` multiplies the real and the imaginary part in turn,
    which gives the complex product's values (a zero's sign aside): numpy
    would otherwise cast it to complex through a buffer of up to 128 KiB.
    """
    if np.iscomplexobj(factor):
        spectrum *= factor
    else:
        for part in (spectrum.real, spectrum.imag):
            np.multiply(part, factor, out=part)


def _full_width(half: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Fill ``full`` with a real image's spectrum on all its columns, from its rfft2 half.

    Hermitian symmetry, X[u, v] = conj X[-u mod h, width - v], gives the
    missing columns: the half's columns (width - 1) // 2 .. 1 with rows
    0, h - 1, .., 1, conjugated. They are copied from ``half`` conjugated in
    place, and ``half`` is then conjugated back, bit for bit, so the caller
    gets it as it was. Copies and a ufunc on a contiguous array make numpy
    allocate no buffer, where a ufunc on a strided view, such as ``full``'s
    tail, allocates buffers as large as the view.
    """
    k, width = half.shape[-1], full.shape[-1]
    full[..., :k] = half
    np.conjugate(half, out=half)
    tail = half[..., (width + 1) // 2 - 1:0:-1]
    full[..., :1, k:] = tail[..., :1, :]
    full[..., 1:, k:] = tail[..., :0:-1, :]
    np.conjugate(half, out=half)
    return full


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
        _check_setting("eta", eta)
        return self._solve_gram(r, float(eta))

    def apply_reg_pinv(self, z: np.ndarray, eta: float) -> np.ndarray:
        """Regularized pseudoinverse A^T (A A^T + eta I)^-1 z."""
        return self.apply_adjoint(self.solve_gram(z, eta))

    def guided_step(self, y, eta, c):
        """``step(x0, delta, mu)``, which returns ``guide(self, x0, y, delta, eta, c, mu)``.

        Nothing is checked here: ``guidance.make_guided_step`` checks y and
        eta and supplies c; a run's ``SchemeConfig`` derives delta in [0, 1].
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
        _check_finite("kernel", kernel)
        if not kernel.any():
            raise ValueError(f"kernel {kernel.shape} has no nonzero tap, so A = 0")
        _check_setting("scale", scale, "{1, 2, ...}")
        c, h, w = _image_shape(image_shape)
        if h % scale or w % scale:
            raise ValueError(
                f"image sides {(h, w)} must be divisible by scale {scale}"
            )
        self.input_shape = (c, h, w)
        self.output_shape = (c, h // scale, w // scale)
        self.scale = scale
        self._response = _freeze(_kernel_response(kernel, (h, w)))
        power = _full_width(np.abs(self._response) ** 2, np.empty((h, w)))
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
        after the step is (1 - mu G W) R, and both objectives and residuals
        follow by Parseval: |R|^2, weighted once by each half-grid column's
        multiplicity over the coarse grid size, gives each of the four
        numbers as one sum, the two after the step with (1 - mu G W)^2
        applied to it. Everything lives on the rfft2 half grid, so a call
        takes ``rfft2_into`` and ``irfft2_into`` once each; for s > 1 the
        fold and its adjoint pass through the full coarse width by
        Hermitian symmetry.

        The step owns its work arrays, made here once per run, so that a
        call allocates only the x it returns: the fine half spectrum; for
        s > 1 the row fold, its full-width extension (whose first coarse
        width also holds the unfold) and the coarse residual; the mixed
        weights, the column multiplicities, |R|^2 and the residual factor.
        A step therefore serves one run in one thread. Nothing is checked
        here, as in ``LinearOperator.guided_step``.
        """
        s = self.scale
        channels, h, w = self.input_shape
        hc, wc = h // s, w // s
        half, coarse_half = w // 2 + 1, wc // 2 + 1
        response, gram = self._response, self._gram_response
        y_hat = rfft2_into(y)
        spectrum = np.empty((channels, h, half), dtype=complex)
        if s > 1:
            rows = np.empty((channels, hc, half), dtype=complex)
            fold = np.empty((channels, hc, w), dtype=complex)
            residual = np.empty((channels, hc, coarse_half), dtype=complex)
        else:
            residual = spectrum
        power, factor = np.empty(residual.shape), np.empty(residual.shape)
        # Parseval's weights: half-grid columns 1 .. (wc - 1) // 2 stand for two frequencies.
        multiplicity = np.full(coarse_half, 1.0 / (hc * wc))
        multiplicity[1:(wc + 1) // 2] *= 2.0
        inverse = mixed = None

        def weight(delta):
            # Exactly c at delta = 1, so a vanishing G + eta never meets 0 * inf.
            nonlocal inverse, mixed
            if delta == 1.0:
                return c
            if inverse is None:
                _check_invertible(gram, eta)
                inverse, mixed = 1.0 / (gram + eta), np.empty(gram.shape)
            if delta == 0.0:
                return inverse
            np.multiply(inverse, 1.0 - delta, out=mixed)
            mixed += delta * c
            return mixed

        def step(x0, delta, mu):
            rfft2_into(x0, spectrum)
            np.multiply(spectrum, response, out=spectrum)
            if s > 1:  # fold: rows by a sum over s, columns once extended to full width
                spectrum.reshape(channels, s, hc, half).sum(axis=1, out=rows)
                _full_width(rows, fold)
                fold.reshape(channels, hc, s, wc)[..., :coarse_half].sum(axis=2, out=residual)
                np.divide(residual, s * s, out=residual)
            np.subtract(residual, y_hat, out=residual)
            weights = weight(delta)
            np.square(residual.real, out=power)
            np.square(residual.imag, out=factor)
            np.add(power, factor, out=power)
            np.multiply(power, multiplicity, out=power)
            np.multiply(power, weights, out=factor)
            objective, residual_sq = float(factor.sum()), float(power.sum())
            # |R - mu G W R|^2 = (1 - mu G W)^2 |R|^2, the residual after the step
            np.multiply(gram, mu, out=factor)
            np.multiply(factor, weights, out=factor)
            np.subtract(1.0, factor, out=factor)
            np.square(factor, out=factor)
            np.multiply(power, factor, out=power)
            after_sq = float(power.sum())
            objective_after = float(np.multiply(power, weights, out=power).sum())
            _multiply_spectrum(residual, weights)  # W R
            if s > 1:  # the adjoint of the fold: tile the full coarse width s x s
                coarse = _full_width(residual, fold[..., :wc])
                tiles = spectrum.reshape(channels, s, hc, half)
                for start in range(0, half, wc):
                    tiles[..., start:start + wc] = coarse[:, None, :, :half - start]
            # Times conj(H) as conj(conj(.) H), equal bit for bit, with no conj(H) array.
            np.conjugate(spectrum, out=spectrum)
            np.multiply(spectrum, response, out=spectrum)
            np.conjugate(spectrum, out=spectrum)
            x = irfft2_into(spectrum, np.empty(self.input_shape))
            x *= -mu
            x += x0
            return (x, 0.5 * objective, float(np.sqrt(residual_sq)),
                    0.5 * objective_after, float(np.sqrt(after_sq)))

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
        c, h, w = _image_shape(image_shape)
        if mask.shape != (h, w):
            raise ValueError(f"mask shape {mask.shape} does not match image {(h, w)}")
        kept = int(mask.sum())
        if kept == 0:
            raise ValueError("mask keeps no pixels")
        self.mask = _freeze(mask)
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
        _check_finite("matrix", matrix)
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

