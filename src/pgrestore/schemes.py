"""The restore loop: deterministic IDPG and its sampling variant DDPG.

One loop alternates a Gaussian denoiser with a guidance step whose
direction moves from back-projection to least squares as iterations
proceed (see :mod:`pgrestore.guidance`), and takes a re-noising hook.
Each run builds its step once, with ``make_guided_step``, in the
operator's own form: two FFTs per iteration besides the denoiser's for
blur and downsampling, none for masks. IDPG runs the loop without the
hook and is fully deterministic; its endpoint configurations reproduce
IDBP (pure BP, delta = 0) and a plain proximal-gradient LS scheme (delta
= 1). DDPG's hook re-noises each guided estimate with a seeded mix of the
effective predicted noise and fresh Gaussian noise.

Conventions baked in here and surfaced in the docstrings:

* Iterations count t = T, ..., 1; schedule arrays of length T are
  indexed by t - 1 and ``alpha_bar`` has length T + 1 with entry 0
  equal to exactly 1.
* IDPG starts from the regularized back-projection of the measurement
  and hands the denoiser noise levels sqrt(1 - abar_t) / sqrt(abar_t)
  (the schedule's noise-to-signal ratio, keeping it scale-free).
* DDPG calls the denoiser on x_t / sqrt(abar_t) at that same level,
  which matches estimating the injected noise and converting it to a
  clean-image estimate.
* Intermediate estimates are never clamped; clamping to [0, 1] is left
  to image export. The effective predicted noise is likewise computed
  from the unclamped guided estimate.
* One seeded random stream per run, consumed in a fixed order: the
  initial draw first, then one fresh-noise draw per iteration (drawn
  even when its weight is zero), so runs are reproducible bit for bit.
* A denoiser output that is non-finite or not of the image's shape, or
  an objective or residual that the guided step makes non-finite or raises,
  raises RuntimeError naming t and the stage (denoise or guide).

A DDPG run on a large image makes its fresh draws in one worker thread,
one iteration ahead, into two buffers of its own, and joins it before it
returns or raises. The operators' own guided steps and the denoisers make
no BLAS call, so the draw gets a core of its own. Concurrent runs still
share nothing mutable.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .guidance import delta_schedule, eta_from_noise, make_guided_step, mu_schedule
# Unused here; perfbench/spans.py patches both names on this module and fails without them.
from .guidance import g_delta, wls_objective  # noqa: F401
from .linops import LinearOperator, _check_setting

__all__ = [
    "DiffusionSchedule",
    "make_ddpm_schedule",
    "eps_effective",
    "SchemeConfig",
    "make_scheme_config",
    "RunTrace",
    "idpg_run",
    "ddpg_run",
    "run_scheme",
    "METHODS",
    "Denoiser",
]

METHODS = ("idpg", "idbp", "pgm_ls", "ddpg")

# A denoiser is any callable D(x, sigma) -> estimate of the clean image. It must not
# keep or write its input after it returns: DDPG reuses that array on the next iteration.
Denoiser = Callable[[np.ndarray, float], np.ndarray]

# No guided step raises the data term (see ``guidance``), but near a solution the
# rounding of ``guide`` can, by more than the term itself. So the loop allows a rise of
# this share of the term's largest value in the run or at x = 0 (with W = I).
_DESCENT_SLACK = 1e-9

# Fresh draws of at least this many values are made one iteration ahead in a
# worker thread; a smaller draw costs less than the handoff and stays inline.
# On a 2-CPU host a 64^2 DDPG inpaint run is 14 % slower threaded, 96^2 20 % faster.
_DRAW_AHEAD_MIN_SIZE = 2**13


@dataclass(frozen=True)
class DiffusionSchedule:
    """Noise schedule: per-step beta and the cumulative products alpha_bar.

    ``beta[i]`` is the step-t = i + 1 variance increment and must lie in
    (0, 1), so that every alpha_bar is positive; ``alpha_bar[t]`` is
    derived as prod_{s<=t}(1 - beta_s) with alpha_bar[0] = 1.
    """

    beta: np.ndarray
    alpha_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 1 or len(beta) < 1:
            raise ValueError("beta must be a non-empty 1-D array")
        keep = 1.0 - beta
        # Checked on 1 - beta: a beta too small to change it is rejected too.
        if not np.all((keep > 0) & (keep < 1)):
            raise ValueError("beta values must lie in (0, 1)")
        if np.any(np.diff(beta) < 0):
            raise ValueError("beta must be non-decreasing")
        object.__setattr__(self, "alpha_bar", np.concatenate(([1.0], np.cumprod(keep))))

    @property
    def T(self) -> int:
        return len(self.beta)


def make_ddpm_schedule(T: int) -> DiffusionSchedule:
    """DDPM's T linearly spaced betas, 1e-4 to 0.02; build others with ``DiffusionSchedule``."""
    _check_setting("T", T, "{1, 2, ...}")
    return DiffusionSchedule(beta=np.linspace(1e-4, 0.02, T))


def eps_effective(x_t: np.ndarray, x_clean: np.ndarray, alpha_bar_t: float) -> np.ndarray:
    """Noise implied by a clean estimate: (x_t - sqrt(abar) x_clean) / sqrt(1 - abar)."""
    _check_setting("alpha_bar_t", alpha_bar_t, "(0, 1)")
    out = np.multiply(np.sqrt(alpha_bar_t), x_clean)
    np.subtract(x_t, out, out=out)
    return np.divide(out, np.sqrt(1.0 - alpha_bar_t), out=out)


@dataclass(frozen=True)
class SchemeConfig:
    """The settings of a restoration run besides the operator and denoiser, and what they imply.

    ``eta`` is the BP regularizer; the LS scale c is derived per run from
    ||A|| (``guidance.make_guided_step``). ``zeta`` is DDPG's share of fresh
    noise and ``seed`` its random stream. Every setting is checked, whatever
    the method. The three arrays of length T, entry i applying at iteration
    t = i + 1, are derived once from the settings and cannot be given:
    ``mu`` (step sizes) by ``mu_schedule`` from ``step_size_policy``;
    ``delta`` (BP-to-LS mix) and ``w`` (DDPG effective-noise weights) by
    ``delta_schedule`` from ``gamma`` and ``sigma_e`` for idpg and ddpg,
    while idbp pins delta = 0, pgm_ls pins delta = 1 and both take w = 1.
    So each entry lies in [0, 1], and delta does not increase along t: the
    mix moves from BP toward LS as t decreases.
    """

    method: str
    schedule: DiffusionSchedule
    sigma_e: float
    eta: float
    gamma: float
    zeta: float
    seed: int
    step_size_policy: str
    mu: np.ndarray = field(init=False)
    delta: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("sigma_e", "eta", "gamma"):
            _check_setting(name, getattr(self, name))
        _check_setting("zeta", self.zeta, "[0, 1]")
        _check_setting("seed", self.seed, "{0, 1, ...}")
        alpha_bar, T = self.schedule.alpha_bar, self.T
        if self.method in ("idpg", "ddpg"):
            delta, w = delta_schedule(alpha_bar[1:], self.gamma, self.sigma_e)
        else:
            delta, w = np.full(T, float(self.method == "pgm_ls")), np.ones(T)
        object.__setattr__(self, "mu", mu_schedule(alpha_bar, self.step_size_policy))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "w", w)

    @property
    def T(self) -> int:
        return self.schedule.T


def make_scheme_config(
    method: str,
    schedule: DiffusionSchedule,
    sigma_e: float,
    *,
    gamma: float = 8.0,
    eta_tilde: float = 0.7,
    zeta: float = 0.5,
    seed: int = 0,
    step_size_policy: str = "unit",
) -> SchemeConfig:
    """A SchemeConfig with the BP regularizer of the noise, max(1e-4, (2 sigma_e)^2 eta_tilde).

    idpg and ddpg mix BP and LS with delta_t = alpha_bar_t ** gamma when
    sigma_e > 0 (delta = 0, w = 1 otherwise); see ``SchemeConfig``.
    """
    return SchemeConfig(method=method, schedule=schedule, sigma_e=sigma_e,
                        eta=float(eta_from_noise(sigma_e, eta_tilde)), gamma=gamma, zeta=zeta,
                        seed=seed, step_size_policy=step_size_policy)


@dataclass
class RunTrace:
    """Per-iteration diagnostics, recorded in loop order t = T, ..., 1.

    ``objective``/``residual`` are evaluated at the denoised estimate
    x_{0|t}; the ``*_after`` fields at the guided estimate that follows.
    """

    t: np.ndarray
    delta: np.ndarray
    objective: np.ndarray
    residual: np.ndarray
    objective_after: np.ndarray
    residual_after: np.ndarray

    def save(self, path) -> None:
        """Write one "t delta objective residual" line per iteration."""
        # Python numbers format faster than numpy scalars, to the same text.
        rows = zip(*(col.tolist() for col in (self.t, self.delta, self.objective, self.residual)))
        Path(path).write_text("".join(f"{int(t)} {d:.12g} {o:.12g} {r:.12g}\n"
                                      for t, d, o, r in rows))


def _loop(denoiser, step, cfg: SchemeConfig, x, y, renoise=None):
    """Denoise, guide, record and re-noise for t = T, ..., 1, from x, for measurement y.

    Without ``renoise`` (IDPG) the denoiser sees x and the guided estimate
    is the next iterate; with it (DDPG) the denoiser sees x_t / sqrt(abar_t),
    in one array that the run reuses, and ``renoise(x, x_guided, t)``
    overwrites x with x_{t-1}.
    """
    alpha_bar = cfg.schedule.alpha_bar
    # Python floats, read once per run: indexing the arrays costs more per iteration.
    sigmas = np.sqrt((1.0 - alpha_bar) / alpha_bar).tolist()
    sqrt_abar, deltas, mus = np.sqrt(alpha_bar).tolist(), cfg.delta.tolist(), cfg.mu.tolist()
    flat = np.ravel(y)  # a view, summed by einsum: no temporary and no BLAS call
    y_sq = float(np.einsum("i,i->", flat, flat))
    rows, peak_obj, peak_res = [], 0.5 * y_sq, math.sqrt(y_sq)
    scaled = None if renoise is None else np.empty_like(x)
    for t in range(cfg.T, 0, -1):
        try:
            x_in = x if renoise is None else np.divide(x, sqrt_abar[t], out=scaled)
            x0 = np.asarray(denoiser(x_in, sigmas[t]), dtype=float)
        except Exception as exc:
            raise RuntimeError(f"denoiser failed at iteration t={t}: {exc}") from exc
        if x0.shape != x.shape:
            raise RuntimeError(f"denoiser returned shape {x0.shape}, expected {x.shape}, "
                               f"at iteration t={t}, stage denoise")
        if not np.isfinite(x0).all():
            raise RuntimeError(f"non-finite iterate at iteration t={t}, stage denoise")
        delta_t = deltas[t - 1]
        x_guided, *numbers = step(x0, delta_t, mus[t - 1])
        objective, residual, objective_after, residual_after = numbers
        peak_obj, peak_res = max(peak_obj, objective), max(peak_res, residual)
        if not all(map(math.isfinite, numbers)) or (
                objective_after - objective > _DESCENT_SLACK * peak_obj
                or residual_after - residual > _DESCENT_SLACK * peak_res):
            raise RuntimeError(
                f"non-finite or rising data term at iteration t={t}, stage guide "
                f"(objective, residual before and after: {numbers})")
        rows.append((t, delta_t, *numbers))
        if renoise is None:
            x = x_guided
        else:
            renoise(x, x_guided, t)
    return x, RunTrace(*(np.array(col) for col in zip(*rows)))


def idpg_run(denoiser: Denoiser, op: LinearOperator, y, cfg: SchemeConfig):
    """Deterministic denoise-then-guide loop; also runs idbp and pgm_ls.

    Starts from the regularized back-projection of ``y`` and returns the
    guided estimate produced by the final (t = 1) iteration, together
    with the run trace. Deterministic given its arguments.
    """
    y = np.asarray(y, dtype=float)
    step = make_guided_step(op, y, cfg.eta)
    return _loop(denoiser, step, cfg, op.apply_reg_pinv(y, cfg.eta), y)


@contextmanager
def _fresh_noise(rng, shape, scales):
    """Yield ``draw()``, which returns fresh draw i of ``shape`` times ``scales[i]``.

    The ``len(scales)`` draws keep ``rng``'s stream order, and each is
    scaled in place; a draw stays valid until the next ``draw()`` call. A
    large draw is made and scaled in one worker thread, one iteration ahead,
    into one of two buffers made here, while the caller uses the other (the
    Generator, pocketfft and the ufuncs release the GIL); only the worker
    touches ``rng`` then, and it is joined when the block exits. A small
    draw costs less than the handoff and is made inline, into a fresh array
    (with the two buffers, a 32^2 CLI restore ran 1.7 % slower).
    """
    if math.prod(shape) < _DRAW_AHEAD_MIN_SIZE:
        scale = iter(scales)

        def draw_inline():
            eps = rng.standard_normal(shape)
            eps *= next(scale)
            return eps

        yield draw_inline
        return
    from concurrent.futures import ThreadPoolExecutor  # imports logging: only here

    buffers = (np.empty(shape), np.empty(shape))

    def fill(i):
        eps = buffers[i % 2]
        rng.standard_normal(out=eps)
        eps *= scales[i]
        return eps

    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead, made = worker.submit(fill, 0), 1

        def draw():
            nonlocal ahead, made
            eps = ahead.result()
            if made < len(scales):
                ahead, made = worker.submit(fill, made), made + 1
            return eps

        yield draw


def ddpg_run(denoiser: Denoiser, op: LinearOperator, y, cfg: SchemeConfig):
    """Sampling loop: guided denoising with seeded re-noising.

    Per iteration, the clean estimate from the denoiser is guided as in
    IDPG, the effective predicted noise is recomputed from the guided
    estimate, and the next iterate blends signal and a
    w_t sqrt(1 - zeta) / sqrt(zeta) mix of effective and fresh noise.
    The random stream (initial draw, then one draw per iteration) is the
    only source of randomness, so equal seeds give bit-identical runs.
    Re-noising works in place, with each term's coefficients folded into
    one scalar per iteration and built once per run, so it equals the
    out-of-place form up to rounding. On a large image the fresh draws come
    from a worker thread (see ``_fresh_noise``), which is joined before this
    returns or raises.
    """
    step = make_guided_step(op, y, cfg.eta)
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal(op.input_shape)
    alpha_bar = cfg.schedule.alpha_bar
    # Python floats indexed by t - 1: x_{t-1} = s_prev x_guided + k_eff eps_hat + k_fresh eps.
    sqrt_rest = np.sqrt(1.0 - alpha_bar[:-1])
    k_eff = (sqrt_rest * cfg.w * np.sqrt(1.0 - cfg.zeta)).tolist()
    k_fresh = (sqrt_rest * np.sqrt(cfg.zeta)).tolist()
    s_prev, abar = np.sqrt(alpha_bar[:-1]).tolist(), alpha_bar[1:].tolist()
    with _fresh_noise(rng, op.input_shape, k_fresh[::-1]) as draw:
        def renoise(x, x_guided, t):
            noise = eps_effective(x, x_guided, abar[t - 1])
            noise *= k_eff[t - 1]
            noise += draw()
            np.multiply(x_guided, s_prev[t - 1], out=x)
            x += noise

        return _loop(denoiser, step, cfg, x, y, renoise)


def run_scheme(denoiser: Denoiser, op: LinearOperator, y, cfg: SchemeConfig):
    """Dispatch on cfg.method; idbp and pgm_ls are IDPG endpoint configs."""
    if cfg.method == "ddpg":
        return ddpg_run(denoiser, op, y, cfg)
    return idpg_run(denoiser, op, y, cfg)
