"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive (loops, dense SVD/eigendecompositions,
finite differences) and touches only the operators' public apply methods,
so it stays independent of the FFT fast paths it validates.
"""

import tracemalloc

import numpy as np


def operator_matrix(op) -> np.ndarray:
    """Materialize an operator column by column from basis vectors."""
    n = int(np.prod(op.input_shape))
    m = int(np.prod(op.output_shape))
    matrix = np.zeros((m, n))
    for j in range(n):
        basis = np.zeros(n)
        basis[j] = 1.0
        matrix[:, j] = op.apply(basis.reshape(op.input_shape)).ravel()
    return matrix


def posterior_mean(op, prior, y, sigma_e) -> np.ndarray:
    """E[x | y] for x ~ N(mean, Sigma), the ``prior``, and y = A x + N(0, sigma_e^2 I).

    mean + Sigma A^T (A Sigma A^T + sigma_e^2 I)^-1 (y - A mean), all dense:
    A column by column from ``op.apply``, and each channel's Sigma the
    circulant Sigma[p, q] = c[p - q] of the prior's autocovariance c, the
    inverse DFT of its spectrum (numpy's). Sized for 32^2 and below. ``y``
    may also stack measurements along a new first axis, one solve for all.
    """
    channels, h, w = op.input_shape
    autocov = np.fft.ifft2(prior.spectrum).real
    rows, cols = np.divmod(np.arange(h * w), w)
    circulant = autocov[(rows[:, None] - rows) % h, (cols[:, None] - cols) % w]
    sigma = np.kron(np.eye(channels), circulant)
    mean = np.broadcast_to(prior.mean, op.input_shape).reshape(-1, 1)
    a = operator_matrix(op)
    gram = a @ sigma @ a.T + sigma_e**2 * np.eye(a.shape[0])
    residuals = np.reshape(y, (-1, a.shape[0])).T - a @ mean
    x = mean + sigma @ a.T @ np.linalg.solve(gram, residuals)
    stack = np.shape(y)[:np.ndim(y) - len(op.output_shape)]
    return x.T.reshape(stack + op.input_shape)


def kernel_center(kernel):
    return (kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2


def naive_circular_conv(x, kernel) -> np.ndarray:
    """Direct-sum circular convolution of a 2-D array with a centered kernel."""
    h, w = x.shape
    kh, kw = kernel.shape
    cy, cx = kernel_center(kernel)
    out = np.zeros_like(x, dtype=float)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    acc += kernel[a, b] * x[(i - (a - cy)) % h, (j - (b - cx)) % w]
            out[i, j] = acc
    return out


def naive_circular_corr(x, kernel) -> np.ndarray:
    """Direct-sum circular correlation (adjoint of the convolution above)."""
    h, w = x.shape
    kh, kw = kernel.shape
    cy, cx = kernel_center(kernel)
    out = np.zeros_like(x, dtype=float)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    acc += kernel[a, b] * x[(i + (a - cy)) % h, (j + (b - cx)) % w]
            out[i, j] = acc
    return out


def reg_pinv_svd(matrix, z, eta) -> np.ndarray:
    """A^T (A A^T + eta I)^-1 z for a dense matrix, through an explicit SVD."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return vt.T @ (s / (s**2 + eta) * (u.T @ z))


def wls_objective_dense(matrix, x, y, delta, eta, c) -> float:
    """(1/2)||W^(1/2) r||^2 with W^(1/2) from an explicit eigendecomposition."""
    m = matrix.shape[0]
    gram_inv = np.linalg.inv(matrix @ matrix.T + eta * np.eye(m))
    weight = (1.0 - delta) * gram_inv + delta * c * np.eye(m)
    eigvals, eigvecs = np.linalg.eigh(weight)
    w_half = eigvecs @ np.diag(np.sqrt(eigvals)) @ eigvecs.T
    r = matrix @ np.ravel(x) - np.ravel(y)
    return 0.5 * float(np.sum((w_half @ r) ** 2))


def directional_derivative(fun, x, direction, step=1e-5) -> float:
    """Central finite difference of a scalar function along a direction."""
    return (fun(x + step * direction) - fun(x - step * direction)) / (2.0 * step)


def gradient_descent_minimize(grad, x0, lipschitz, tol=1e-12, max_iters=200000):
    """Plain gradient descent with step 1/L, iterated to stationarity."""
    x = np.array(x0, dtype=float)
    step = 1.0 / lipschitz
    for _ in range(max_iters):
        g = grad(x)
        x = x - step * g
        if np.linalg.norm(g) <= tol:
            break
    return x


def peak_traced_bytes(call):
    """Peak bytes that ``call()`` allocates (numpy data included), after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
