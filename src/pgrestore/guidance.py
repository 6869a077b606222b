"""Data-fidelity guidance directions and their schedules.

The restoration loops steer each denoised estimate with a direction that
is a convex combination of two endpoints, back-projection
A^T (A A^T + eta I)^-1 (A x - y) and least squares c A^T (A x - y):

    g_delta(x) = A^T W (A x - y),  W = (1 - delta)(A A^T + eta I)^-1 + delta c I

``delta`` moves from ~0 early in a run (BP: strong data consistency,
fast progress) to ~1 at the end (LS: robust to measurement noise).
``g_delta`` is the exact gradient of a weighted least-squares term whose
weight interpolates between the Gram inverse and a scaled identity;
``wls_objective`` evaluates that term without forming matrix square
roots. ``guide`` takes one guided step and returns the objective and
residual before and after it, computing each residual and Gram solve
once; it is the reference for every faster form.

``make_guided_step`` derives c = min(1, 1/||A||^2) from ``op.norm`` and
asks the operator for the step a run takes T times (``guided_step``):
blur and downsampling take a Fourier-domain form (one transform each
way per step), masks a full-grid form with no transform, both equal
to ``guide`` up to rounding; every other operator calls ``guide``. With
c ||A||^2 <= 1 and mu in [0, 1] (as ``SchemeConfig`` derives it), each
mode's residual factor 1 - mu lambda^2 w lies in [0, 1]: no step raises
the data term.

The schedules (``delta_schedule``, ``eta_from_noise``) return plain
numbers and arrays; :class:`pgrestore.schemes.SchemeConfig` builds a
run's schedules from its settings, the step sizes mu among them.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

from .linops import LinearOperator, _check_setting, _check_shape

__all__ = [
    "ETA_FLOOR",
    "g_delta",
    "wls_objective",
    "guide",
    "make_guided_step",
    "delta_schedule",
    "eta_from_noise",
]

# Lower bound applied to the BP regularizer derived from the noise level.
ETA_FLOOR = 1e-4


def _weighted_residual(op: LinearOperator, x, y, delta: float, eta: float, c: float):
    """r = A x - y and W r, with W = (1 - delta)(A A^T + eta I)^-1 + delta c I.

    The endpoints skip the unused term, so at delta = 0 W r is exactly the
    Gram solve and at delta = 1 exactly c r. Rejects delta outside [0, 1]
    and c outside (0, inf), for which W is not a valid weighting.
    """
    _check_setting("delta", delta, "[0, 1]")
    _check_setting("c", c, "(0, inf)")
    r = op.apply(x) - np.asarray(y, dtype=float)
    if delta == 0.0:
        return r, op.solve_gram(r, eta)
    if delta == 1.0:
        return r, c * r
    return r, (1.0 - delta) * op.solve_gram(r, eta) + delta * c * r


def g_delta(op: LinearOperator, x, y, delta: float, eta: float, c: float) -> np.ndarray:
    """Guidance direction A^T W (A x - y): back-projection at delta = 0, c A^T (A x - y) at 1."""
    return op.apply_adjoint(_weighted_residual(op, x, y, delta, eta, c)[1])


def wls_objective(op: LinearOperator, x, y, delta: float, eta: float, c: float) -> float:
    """Weighted least-squares data term whose gradient is ``g_delta``.

    With r = A x - y and W = (1 - delta)(A A^T + eta I)^-1 + delta c I,
    returns (1/2) r^T W r, evaluated as an inner product rather than
    through a matrix square root.
    """
    r, w_r = _weighted_residual(op, x, y, delta, eta, c)
    return 0.5 * float(np.vdot(r, w_r))


def guide(op: LinearOperator, x0, y, delta: float, eta: float, c: float, mu: float):
    """One guided step x = x0 - mu g_delta(x0) and the data-term numbers around it.

    Returns (x, objective, residual, objective_after, residual_after):
    ``wls_objective`` and ||A x - y|| at x0, then at x. Each residual and
    each Gram solve is computed once.
    """
    r, w_r = _weighted_residual(op, x0, y, delta, eta, c)
    x = x0 - mu * op.apply_adjoint(w_r)
    r_after, w_r_after = _weighted_residual(op, x, y, delta, eta, c)
    return (x, 0.5 * float(np.vdot(r, w_r)), float(np.linalg.norm(r)),
            0.5 * float(np.vdot(r_after, w_r_after)), float(np.linalg.norm(r_after)))


def make_guided_step(op: LinearOperator, y, eta: float):
    """Build the guided step of one run, for a fixed y.

    Checks y's shape and that eta is nonnegative and finite, and returns
    ``op.guided_step(y, eta, c)``: ``step(x0, delta, mu)``, which returns
    what ``guide(op, x0, y, delta, eta, c, mu)`` does, up to rounding. The
    LS scale c = min(1, 1/||A||^2), so c ||A||^2 <= 1 and an LS step
    descends. delta and x0 are not checked per call: ``SchemeConfig``
    derives delta in [0, 1], and the loop checks the denoiser's output shape.
    """
    y = np.asarray(y, dtype=float)
    _check_shape("measurement", y, op.output_shape)
    _check_setting("eta", eta)
    norm_sq = op.norm**2
    # Exactly 1 while ||A||^2 <= 1 + 1e-12: a unit-sum kernel's norm can round above 1.
    return op.guided_step(y, eta, 1.0 if norm_sq <= 1.0 + 1e-12 else 1.0 / norm_sq)


def delta_schedule(alpha_bar, gamma: float, sigma_e: float):
    """BP-to-LS mixing weights and noise-injection weights per iteration.

    For noisy observations, delta_t = alpha_bar_t ** gamma and the
    effective-noise weight w_t equals delta_t; without observation noise
    the mix stays at pure BP (delta = 0) and w = 1. The power is clamped
    to [0, 1] to absorb floating-point drift.
    """
    alpha_bar = np.asarray(alpha_bar, dtype=float)
    if not np.all((alpha_bar > 0) & (alpha_bar <= 1)):
        raise ValueError("alpha_bar values must lie in (0, 1]")
    if np.any(np.diff(alpha_bar) > 0):
        raise ValueError("alpha_bar must be non-increasing in t")
    _check_setting("gamma", gamma)
    _check_setting("sigma_e", sigma_e)
    if sigma_e > 0:
        delta = np.clip(alpha_bar**gamma, 0.0, 1.0)
        return delta, delta.copy()
    return np.zeros_like(alpha_bar), np.ones_like(alpha_bar)


def eta_from_noise(sigma_e: float, eta_tilde: float) -> float:
    """BP regularizer scaled by the observation noise: max(1e-4, (2 sigma_e)^2 eta_tilde)."""
    _check_setting("sigma_e", sigma_e)
    _check_setting("eta_tilde", eta_tilde)
    return max(ETA_FLOOR, (2.0 * sigma_e) ** 2 * eta_tilde)
