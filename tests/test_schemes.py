import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgrestore.linops as linops
import pgrestore.schemes as schemes
from pgrestore.denoisers import Identity, WienerMMSE, WienerPrior
from pgrestore.guidance import make_guided_step
from pgrestore.kernels import bicubic_kernel, delta_kernel, gaussian_kernel
from pgrestore.linops import CircularConvolution, DenseOperator, DownsampleConvolution, Mask
from pgrestore.metrics import NoiseSpec, degrade, psnr
from pgrestore.schemes import (
    DiffusionSchedule,
    RunTrace,
    SchemeConfig,
    ddpg_run,
    eps_effective,
    idpg_run,
    make_ddpm_schedule,
    make_scheme_config,
    run_scheme,
)
from oracles import peak_traced_bytes

SHAPE = (1, 16, 16)


def blur_setup(seed=0, sigma_e=0.05, shape=SHAPE, amplitude=1.0):
    rng = np.random.default_rng(seed)
    prior = WienerPrior.smooth_default(shape[1:], amplitude=amplitude)
    x_star = prior.sample(rng)
    op = CircularConvolution(gaussian_kernel(5, 10.0), shape)
    y = degrade(op, x_star, NoiseSpec(sigma_e, seed=seed + 1))
    return op, prior, x_star, y


class TestSchedule:
    def test_single_step(self):
        sched = make_ddpm_schedule(1)  # linspace's one value is the first beta
        np.testing.assert_allclose(sched.alpha_bar, [1.0, 1.0 - 1e-4], atol=1e-15)

    def test_defaults_strictly_decreasing(self):
        sched = make_ddpm_schedule(100)
        assert sched.T == 100
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert sched.alpha_bar[-1] < sched.alpha_bar[1]
        assert sched.beta[0] == pytest.approx(1e-4) and sched.beta[-1] == pytest.approx(0.02)

    def test_constant_beta_products(self):
        sched = DiffusionSchedule(beta=[0.5, 0.5])
        np.testing.assert_allclose(sched.alpha_bar, [1.0, 0.5, 0.25], atol=1e-15)

    def test_invalid_ranges(self):
        for T in (0, -3):
            with pytest.raises(ValueError, match="T must be at least 1"):
                make_ddpm_schedule(T)
        with pytest.raises(ValueError, match="T must be an integer, got 2.5"):
            make_ddpm_schedule(2.5)

    def test_alpha_bar_derived_from_beta(self):
        beta = np.array([0.1, 0.2])
        sched = DiffusionSchedule(beta=beta)
        np.testing.assert_array_equal(sched.alpha_bar, [1.0, 0.9, 0.9 * 0.8])
        with pytest.raises(TypeError):
            DiffusionSchedule(beta=beta, alpha_bar=np.array([1.0, 0.9, 0.8]))

    @pytest.mark.parametrize("beta", [[0.1, 1.0], [0.0, 0.1], [1e-17, 0.1]])
    def test_beta_outside_open_unit_interval_rejected(self, beta):
        # beta = 1 would make alpha_bar_T = 0 and the denoiser's sigma_T infinite
        with pytest.raises(ValueError, match="beta"):
            DiffusionSchedule(beta=np.array(beta))


class TestPointwiseFormulas:
    def test_eps_effective_examples(self, rng):
        x_clean = rng.standard_normal(SHAPE)
        abar = 0.36
        np.testing.assert_allclose(
            eps_effective(np.sqrt(abar) * x_clean, x_clean, abar),
            np.zeros(SHAPE),
            atol=1e-12,
        )
        x_t = rng.standard_normal(SHAPE)
        np.testing.assert_allclose(
            eps_effective(x_t, np.zeros(SHAPE), abar), x_t / np.sqrt(1 - abar), atol=1e-14
        )

    def test_eps_effective_leaves_inputs_alone(self, rng):
        x_t, x_clean = rng.standard_normal(SHAPE), rng.standard_normal(SHAPE)
        copies = x_t.copy(), x_clean.copy()
        out = eps_effective(x_t, x_clean, 0.4)
        assert np.array_equal(x_t, copies[0]) and np.array_equal(x_clean, copies[1])
        assert not np.shares_memory(out, x_t) and not np.shares_memory(out, x_clean)

    def test_eps_effective_guards_alpha_one(self, rng):
        with pytest.raises(ValueError):
            eps_effective(rng.standard_normal(SHAPE), rng.standard_normal(SHAPE), 1.0)

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, abar):
        rng = np.random.default_rng(11)
        x_t = rng.standard_normal(SHAPE)
        eps = rng.standard_normal(SHAPE)
        x0 = (x_t - np.sqrt(1.0 - abar) * eps) / np.sqrt(abar)
        np.testing.assert_allclose(eps_effective(x_t, x0, abar), eps, atol=1e-12)


class TestSchemeConfig:
    def test_method_endpoint_pins(self):
        sched = make_ddpm_schedule(10)
        idbp = make_scheme_config("idbp", sched, 0.05)
        assert np.all(idbp.delta == 0.0)
        pgm = make_scheme_config("pgm_ls", sched, 0.05)
        assert np.all(pgm.delta == 1.0)

    def test_idpg_noisy_schedule(self):
        sched = make_ddpm_schedule(10)
        cfg = make_scheme_config("idpg", sched, 0.05, gamma=8.0)
        np.testing.assert_array_equal(cfg.delta, sched.alpha_bar[1:] ** 8.0)
        assert cfg.eta == pytest.approx(max(1e-4, 4 * 0.05**2 * 0.7))

    def test_noiseless_idpg_is_pure_bp(self):
        sched = make_ddpm_schedule(10)
        cfg = make_scheme_config("idpg", sched, 0.0)
        assert np.all(cfg.delta == 0.0)
        assert np.all(cfg.w == 1.0)

    def test_zeta_range_checked(self):
        sched = make_ddpm_schedule(5)
        with pytest.raises(ValueError):
            make_scheme_config("ddpg", sched, 0.05, zeta=1.5)

    @pytest.mark.parametrize("seed", [2.7, math.nan])
    def test_fractional_seed_rejected(self, seed):
        # a seed is not truncated: 2.7 would otherwise seed the run with 2
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
            make_scheme_config("ddpg", make_ddpm_schedule(5), 0.05, seed=seed)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            make_scheme_config("magic", make_ddpm_schedule(5), 0.0)

    @staticmethod
    def given_settings(method, **changes):
        return {**dict(method=method, schedule=make_ddpm_schedule(3), sigma_e=0.05, eta=0.1,
                       gamma=8.0, zeta=0.5, seed=0, step_size_policy="unit"), **changes}

    def test_config_validation(self):
        for method in schemes.METHODS:
            assert SchemeConfig(**self.given_settings(method)).T == 3
            for bad, message in (
                (dict(eta=-1.0), "eta must be nonnegative"),
                (dict(seed=-1), "seed must be nonnegative"),
                (dict(gamma=-1.0), "gamma must be nonnegative"),
                (dict(sigma_e=-0.1), "sigma_e must be nonnegative"),
                (dict(zeta=1.5), r"zeta must lie in \[0, 1\]"),
                (dict(step_size_policy="cosine"), "unknown step-size policy 'cosine'"),
            ):
                with pytest.raises(ValueError, match=message):
                    SchemeConfig(**self.given_settings(method, **bad))
        with pytest.raises(ValueError, match="method must be one of"):
            SchemeConfig(**self.given_settings("magic"))

    @pytest.mark.parametrize("bad,message", [
        (dict(eta=math.nan), "eta must be nonnegative and finite"),
        (dict(eta=math.inf), "eta must be nonnegative and finite"),
        (dict(gamma=math.nan), "gamma must be nonnegative and finite"),
        (dict(gamma=math.inf), "gamma must be nonnegative and finite"),
        (dict(sigma_e=math.nan), "sigma_e must be nonnegative and finite"),
        (dict(sigma_e=math.inf), "sigma_e must be nonnegative and finite"),
        (dict(zeta=math.nan), r"zeta must lie in \[0, 1\]"),
        (dict(seed=2.7), "seed must be an integer, got 2.7"),
        (dict(seed=math.nan), "seed must be an integer, got nan"),
    ], ids=["eta-nan", "eta-inf", "gamma-nan", "gamma-inf", "sigma_e-nan", "sigma_e-inf",
            "zeta-nan", "seed-fraction", "seed-nan"])
    def test_config_rejects_non_finite_values(self, bad, message):
        # every setting is checked whatever the method, so a NaN gamma fails for idbp too
        for method in schemes.METHODS:
            with pytest.raises(ValueError, match=message):
                SchemeConfig(**self.given_settings(method, **bad))

    @pytest.mark.parametrize("name", ["mu", "delta", "w"])
    def test_schedules_cannot_be_given(self, name):
        with pytest.raises(TypeError):
            SchemeConfig(**self.given_settings("idpg"), **{name: np.ones(3)})
        cfg = SchemeConfig(**self.given_settings("idpg"))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cfg, **{name: np.ones(3)})

    def test_replace_derives_the_schedules_again(self):
        cfg = dataclasses.replace(SchemeConfig(**self.given_settings("idbp")), method="pgm_ls")
        assert np.all(cfg.delta == 1.0) and np.all(cfg.w == 1.0)

    @given(T=st.integers(1, 300), gamma=st.floats(0.0, 50.0),
           sigma_e=st.just(0.0) | st.floats(1e-6, 1.0), method=st.sampled_from(schemes.METHODS),
           policy=st.sampled_from(["unit", "ddim-ratio"]))
    @settings(max_examples=200, deadline=None)
    def test_derived_schedules_meet_their_contract(self, T, gamma, sigma_e, method, policy):
        cfg = make_scheme_config(method, make_ddpm_schedule(T), sigma_e, gamma=gamma,
                                 step_size_policy=policy)
        for values in (cfg.mu, cfg.delta, cfg.w):
            assert values.shape == (T,)
            assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(cfg.delta) <= 1e-12)  # non-increasing along t
        if method == "idbp":
            assert np.all(cfg.delta == 0.0)
        if method == "pgm_ls":
            assert np.all(cfg.delta == 1.0)
        if policy == "ddim-ratio":
            assert cfg.mu[0] == 0.0


class TestIDPG:
    def test_identity_operator_projects_onto_measurement(self, rng):
        # A = I, delta = 0, eta = 0: the BP step lands on y at every iteration
        op = CircularConvolution(delta_kernel(1), SHAPE)
        y = rng.standard_normal(SHAPE)
        cfg = dataclasses.replace(make_scheme_config("idbp", make_ddpm_schedule(6), 0.0), eta=0.0)
        x, trace = idpg_run(Identity(), op, y, cfg)
        np.testing.assert_allclose(x, y, atol=1e-12)
        # after the first step every denoised iterate already satisfies Ax = y
        assert np.all(trace.residual[1:] <= 1e-12)
        assert np.all(trace.residual_after <= 1e-12)

    def test_oracle_denoiser_returns_truth(self):
        op, _, x_star, y = blur_setup(seed=3, sigma_e=0.0)
        cfg = dataclasses.replace(make_scheme_config("idpg", make_ddpm_schedule(8), 0.0), eta=0.0)
        x, trace = idpg_run(lambda x, sigma: x_star, op, y, cfg)
        np.testing.assert_allclose(x, x_star, atol=1e-10)
        assert np.all(trace.residual <= 1e-10)

    def test_wiener_denoiser_beats_observation_psnr(self):
        # threshold frozen from a 10-seed calibration run of this exact
        # setup: per-seed gains 1.76..4.02 dB, mean 3.15 dB
        sched = make_ddpm_schedule(100)
        gains = []
        for seed in range(5):
            op, prior, x_star, y = blur_setup(seed=seed, sigma_e=0.05, amplitude=16.0)
            cfg = make_scheme_config("idpg", sched, 0.05, gamma=8.0, eta_tilde=0.7)
            x, _ = idpg_run(WienerMMSE(prior), op, y, cfg)
            gains.append(psnr(x, x_star) - psnr(y, x_star))
        assert min(gains) > 1.0
        assert float(np.mean(gains)) > 2.0

    def test_idbp_reference_equivalence(self):
        # step-for-step against an independent pure-BP loop
        op, prior, _, y = blur_setup(seed=7, sigma_e=0.05)
        denoiser = WienerMMSE(prior)
        sched = make_ddpm_schedule(12)
        cfg = make_scheme_config("idbp", sched, 0.05, eta_tilde=0.7)
        x, _ = idpg_run(denoiser, op, y, cfg)

        eta = cfg.eta
        ref = op.apply_reg_pinv(y, eta)
        for t in range(sched.T, 0, -1):
            abar = sched.alpha_bar[t]
            x0 = denoiser(ref, float(np.sqrt((1 - abar) / abar)))
            ref = x0 - op.apply_reg_pinv(op.apply(x0) - y, eta)
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)

    def test_pgm_ls_reference_equivalence(self):
        op, prior, _, y = blur_setup(seed=9, sigma_e=0.05)
        denoiser = WienerMMSE(prior)
        sched = make_ddpm_schedule(12)
        cfg = make_scheme_config("pgm_ls", sched, 0.05)
        x, _ = idpg_run(denoiser, op, y, cfg)

        ref = op.apply_reg_pinv(y, cfg.eta)
        for t in range(sched.T, 0, -1):
            abar = sched.alpha_bar[t]
            x0 = denoiser(ref, float(np.sqrt((1 - abar) / abar)))
            ref = x0 - op.apply_adjoint(op.apply(x0) - y)
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)

    def test_noiseless_bp_consistency_along_run(self):
        # full-rank square operator, eta = 0: every guided iterate fits y
        op, prior, x_star, _ = blur_setup(seed=11, sigma_e=0.0)
        y = op.apply(x_star)
        cfg = dataclasses.replace(make_scheme_config("idbp", make_ddpm_schedule(10), 0.0),
                                  eta=0.0)
        _, trace = idpg_run(WienerMMSE(prior), op, y, cfg)
        assert np.all(trace.residual_after <= 1e-8 * np.linalg.norm(y))

    def test_trace_delta_monotone_and_descent(self):
        op, prior, _, y = blur_setup(seed=13, sigma_e=0.05)
        cfg = make_scheme_config("idpg", make_ddpm_schedule(30), 0.05, gamma=6.0)
        _, trace = idpg_run(WienerMMSE(prior), op, y, cfg)
        assert len(trace.t) == 30
        assert np.all(np.diff(trace.delta) >= 0)  # loop order is t = T..1
        # normalized blur has spectral norm 1, so c = 1 satisfies the descent bound
        assert np.all(trace.objective_after <= trace.objective + 1e-12)

    def test_denoiser_failure_reports_iteration(self):
        op, _, _, y = blur_setup(seed=15, sigma_e=0.0)

        def broken(x, sigma):
            raise RuntimeError("boom")

        cfg = make_scheme_config("idpg", make_ddpm_schedule(4), 0.0)
        with pytest.raises(RuntimeError, match=r"iteration t=4"):
            idpg_run(broken, op, y, cfg)


class TestNonFinite:
    @staticmethod
    def nan_on_third_call(prior):
        denoiser = WienerMMSE(prior)
        calls = []

        def flaky(x, sigma):
            calls.append(sigma)
            out = denoiser(x, sigma)
            if len(calls) == 3:
                out = out.copy()
                out[0, 0, 0] = np.nan
            return out

        return flaky

    @pytest.mark.parametrize("method", ["idpg", "ddpg"])
    def test_nan_from_denoiser_names_iteration_and_stage(self, method):
        op, prior, _, y = blur_setup(seed=25, sigma_e=0.05)
        cfg = make_scheme_config(method, make_ddpm_schedule(6), 0.05)
        with pytest.raises(RuntimeError, match=r"t=4, stage denoise"):
            run_scheme(self.nan_on_third_call(prior), op, y, cfg)

    @pytest.mark.parametrize("method", ["idpg", "ddpg"])
    def test_wrong_shape_from_denoiser_names_iteration_and_stage(self, method):
        # a runtime fault of the denoiser, not a validation error
        op, prior, _, y = blur_setup(seed=25, sigma_e=0.05)
        cfg = make_scheme_config(method, make_ddpm_schedule(6), 0.05)
        with pytest.raises(RuntimeError, match=r"shape \(16, 16\).*t=6, stage denoise"):
            run_scheme(lambda x, sigma: x[0], op, y, cfg)

    @pytest.mark.parametrize("method", ["idpg", "ddpg"])
    def test_overflowing_data_term_names_iteration_and_stage(self, method):
        # finite denoiser output whose squared residual overflows
        op, _, _, y = blur_setup(seed=27, sigma_e=0.05)
        cfg = make_scheme_config(method, make_ddpm_schedule(6), 0.05)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=r"t=6, stage guide"):
            run_scheme(lambda x, sigma: np.full(SHAPE, 1e200), op, y, cfg)


@given(
    kind=st.sampled_from(["blur", "sr2"]),
    gain=st.floats(min_value=0.2, max_value=5.0),
    method=st.sampled_from(schemes.METHODS),
    policy=st.sampled_from(["unit", "ddim-ratio"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_no_guided_step_raises_the_data_term(kind, gain, method, policy, seed):
    # The LS scale c = min(1, 1/||A||^2) and mu in [0, 1] keep every mode's
    # residual factor 1 - mu lambda^2 w in [0, 1], whatever the gain on A.
    shape = SHAPE
    if kind == "blur":
        op = CircularConvolution(gain * gaussian_kernel(5, 1.0), shape)
    else:
        op = DownsampleConvolution(gain * bicubic_kernel(2), 2, shape)
    prior = WienerPrior.smooth_default(shape[1:], amplitude=16.0)
    rng = np.random.default_rng(seed)
    y = degrade(op, prior.sample(rng), NoiseSpec(0.05, seed=seed))
    cfg = make_scheme_config(method, make_ddpm_schedule(20), 0.05, seed=seed,
                             step_size_policy=policy)
    x, trace = run_scheme(WienerMMSE(prior), op, y, cfg)
    assert np.isfinite(x).all()
    slack = 1.0 + 1e-12
    assert np.all(trace.objective_after <= trace.objective * slack)
    assert np.all(trace.residual_after <= trace.residual * slack)


def test_step_that_raises_the_data_term_names_iteration_and_stage():
    # A norm half the true ||A|| makes c four times too large: with A = 4 I
    # each LS step (the generic guide path) triples the residual.
    class HalfNorm(DenseOperator):
        @property
        def norm(self):
            return 0.5 * super().norm

    op = HalfNorm(4.0 * np.eye(16), input_shape=(1, 4, 4), output_shape=(16,))
    y = np.random.default_rng(0).standard_normal(16)
    cfg = make_scheme_config("pgm_ls", make_ddpm_schedule(5), 0.0)
    with pytest.raises(RuntimeError, match=r"rising data term at iteration t=5, stage guide"):
        run_scheme(Identity(), op, y, cfg)


@pytest.mark.parametrize("method", ["idpg", "ddpg"])
@pytest.mark.parametrize("task,per_iteration", [
    ("deblur", 4), ("sr2", 4), ("inpaint", 2), ("sr4", 4)])
def test_fft_calls_per_iteration(monkeypatch, method, task, per_iteration):
    # Exact counts from the first denoiser call on: the Fourier-domain
    # guided step of the spectral operators makes one forward transform and
    # one inverse (F(y) is taken once per run, before counting starts), a
    # mask's step none; the Wiener denoiser makes 2. linops.rfft2_into and
    # linops.irfft2_into are each one 2-D transform made of two 1-D passes,
    # so each counts once.
    shape = (1, 32, 32)
    prior = WienerPrior.smooth_default(shape[1:], amplitude=16.0)
    x_star = prior.sample(np.random.default_rng(0))
    if task == "deblur":
        op = CircularConvolution(gaussian_kernel(5, 10.0), shape)
    elif task in ("sr2", "sr4"):
        scale = int(task[2])
        op = DownsampleConvolution(bicubic_kernel(scale), scale, shape)
    else:
        op = Mask(np.random.default_rng(1).random(shape[1:]) < 0.5, shape)
    y = degrade(op, x_star, NoiseSpec(0.05, seed=2))
    cfg = make_scheme_config(method, make_ddpm_schedule(10), 0.05, seed=3)

    calls = []
    transforms = [(np.fft, name) for name in ("fft2", "ifft2", "rfft2", "irfft2")]
    for owner, name in transforms + [(linops, "rfft2_into"), (linops, "irfft2_into")]:
        def counted(*args, _fn=getattr(owner, name), **kwargs):
            if calls:
                calls[0] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    denoiser = WienerMMSE(prior)

    def start_counting(x, sigma):
        if not calls:
            calls.append(0)
        return denoiser(x, sigma)

    run_scheme(start_counting, op, y, cfg)
    assert calls[0] == per_iteration * cfg.T


@pytest.mark.parametrize("method", ["idpg", "ddpg"])
@pytest.mark.parametrize("task", ["deblur", "sr2", "inpaint"])
def test_no_numpy_fft_transform_in_a_run(monkeypatch, method, task):
    # Every transform, from the operator's construction to the last step,
    # goes through linops.rfft2_into and linops.irfft2_into, which call the
    # pocketfft ufuncs directly: no numpy.fft transform function, 2-D or 1-D.
    def forbidden(*args, **kwargs):
        raise AssertionError("a numpy.fft transform function called")

    for name in ("fft2", "ifft2", "rfft2", "irfft2", "rfft", "fft", "ifft", "irfft"):
        monkeypatch.setattr(np.fft, name, forbidden)
    shape = (1, 32, 32)
    prior = WienerPrior.smooth_default(shape[1:], amplitude=16.0)
    if task == "deblur":
        op = CircularConvolution(gaussian_kernel(5, 10.0), shape)
    elif task == "sr2":
        op = DownsampleConvolution(bicubic_kernel(2), 2, shape)
    else:
        op = Mask(np.random.default_rng(1).random(shape[1:]) < 0.5, shape)
    y = degrade(op, prior.sample(np.random.default_rng(0)), NoiseSpec(0.05, seed=2))
    cfg = make_scheme_config(method, make_ddpm_schedule(10), 0.05, seed=3)
    x, _ = run_scheme(WienerMMSE(prior), op, y, cfg)
    assert np.isfinite(x).all()


def ddpg_out_of_place(denoiser, op, y, cfg):
    """ddpg_run with every re-noising product in a fresh array."""
    step = make_guided_step(op, y, cfg.eta)
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal(op.input_shape)
    abar_full = cfg.schedule.alpha_bar
    for t in range(cfg.T, 0, -1):
        abar, abar_prev = abar_full[t], abar_full[t - 1]
        x0 = denoiser(x / np.sqrt(abar), float(np.sqrt((1.0 - abar) / abar)))
        x_guided = step(x0, float(cfg.delta[t - 1]), cfg.mu[t - 1])[0]
        eps_hat = (x - np.sqrt(abar) * x_guided) / np.sqrt(1.0 - abar)
        eps = rng.standard_normal(op.input_shape)
        noise = cfg.w[t - 1] * np.sqrt(1.0 - cfg.zeta) * eps_hat + np.sqrt(cfg.zeta) * eps
        x = np.sqrt(abar_prev) * x_guided + np.sqrt(1.0 - abar_prev) * noise
    return x


# 16^2 draws are made inline, 128^2 draws one iteration ahead in a worker thread.
INLINE, AHEAD = 16, 128


def mask_setup(size, seed=23):
    _, prior, x_star, _ = blur_setup(seed=seed, sigma_e=0.05, shape=(1, size, size))
    op = Mask(np.random.default_rng(3).random((size, size)) < 0.5, x_star.shape)
    return op, prior, degrade(op, x_star, NoiseSpec(0.05, seed=4))


def task_setup(task, size):
    if task == "inpaint":
        return mask_setup(size)
    shape = (1, size, size)
    _, prior, x_star, _ = blur_setup(seed=29, shape=shape)
    op = (CircularConvolution(gaussian_kernel(5, 2.0), shape) if task == "deblur"
          else DownsampleConvolution(bicubic_kernel(2), 2, shape))
    return op, prior, degrade(op, x_star, NoiseSpec(0.05, seed=30))


def idpg_out_of_place(denoiser, op, y, cfg):
    """idpg_run as a plain loop over make_guided_step: x and the six trace columns."""
    step = make_guided_step(op, y, cfg.eta)
    x = op.apply_reg_pinv(y, cfg.eta)
    rows = []
    for t in range(cfg.T, 0, -1):
        abar = cfg.schedule.alpha_bar[t]
        x0 = denoiser(x, float(np.sqrt((1.0 - abar) / abar)))
        x, *numbers = step(x0, float(cfg.delta[t - 1]), cfg.mu[t - 1])
        rows.append((t, float(cfg.delta[t - 1]), *numbers))
    return x, [np.array(column) for column in zip(*rows)]


def test_draw_sizes_straddle_the_threshold():
    assert INLINE**2 < schemes._DRAW_AHEAD_MIN_SIZE <= AHEAD**2


@pytest.mark.parametrize("size", [INLINE, AHEAD])
@pytest.mark.parametrize("task", ["deblur", "sr2", "inpaint"])
def test_idpg_matches_a_plain_loop(task, size):
    op, prior, y = task_setup(task, size)
    cfg = make_scheme_config("idpg", make_ddpm_schedule(12), 0.05, step_size_policy="ddim-ratio")
    assert 0.0 < cfg.delta.min() and cfg.delta.max() < 1.0  # BP and LS mixed throughout
    denoiser = WienerMMSE(prior)
    x, trace = idpg_run(denoiser, op, y, cfg)
    x_ref, columns = idpg_out_of_place(denoiser, op, y, cfg)
    assert np.array_equal(x, x_ref)
    names = ("t", "delta", "objective", "residual", "objective_after", "residual_after")
    for name, column in zip(names, columns, strict=True):
        assert np.array_equal(getattr(trace, name), column), name


@pytest.mark.parametrize("size", [INLINE, AHEAD])
def test_fresh_noise_makes_exactly_count_draws(size):
    # one draw per scale, each scaled in place: draw i is scales[i] times serial draw i
    shape, scales = (1, size, size), [0.5, 0.0, 1.0, 2.0, 0.3]
    rng, serial = np.random.default_rng(31), np.random.default_rng(31)
    with schemes._fresh_noise(rng, shape, scales) as draw:
        for scale in scales:
            assert np.array_equal(draw(), scale * serial.standard_normal(shape))
    assert rng.bit_generator.state == serial.bit_generator.state


def test_a_held_draw_survives_the_next_fill():
    shape = (1, AHEAD, AHEAD)
    rng, serial = np.random.default_rng(37), np.random.default_rng(37)
    with schemes._fresh_noise(rng, shape, [0.5, 2.0]) as draw:
        held = draw()
    # leaving the block joins the worker, which has filled the other buffer by then
    assert np.array_equal(held, 0.5 * serial.standard_normal(shape))
    serial.standard_normal(shape)
    assert rng.bit_generator.state == serial.bit_generator.state


def test_draw_ahead_allocates_no_image():
    # the worker draws into two buffers made on entry, not into a fresh array per draw
    shape, per_call = (1, AHEAD, AHEAD), 4
    with schemes._fresh_noise(np.random.default_rng(41), shape, [0.5] * (2 * per_call)) as draw:
        peak = peak_traced_bytes(lambda: [draw() for _ in range(per_call)])
    assert peak < math.prod(shape) * 8


class TestDDPG:
    @pytest.mark.parametrize("task", ["mask", "blur", "mask-128", "mask-128-identity"])
    def test_in_place_renoising_matches_out_of_place(self, task):
        # also compares the worker thread's draws with the serial stream; the identity
        # denoiser returns the array that the run reuses for x_t / sqrt(abar_t)
        if task == "blur":
            op, prior, _, y = blur_setup(seed=23, sigma_e=0.05)
        else:
            op, prior, y = mask_setup(AHEAD if task.startswith("mask-128") else INLINE)
        cfg = make_scheme_config("ddpg", make_ddpm_schedule(12), 0.05, zeta=0.3, seed=8,
                                 step_size_policy="ddim-ratio")
        denoiser = Identity() if task.endswith("identity") else WienerMMSE(prior)
        x, _ = ddpg_run(denoiser, op, y, cfg)
        x_ref = ddpg_out_of_place(denoiser, op, y, cfg)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_denoiser_fault_joins_the_draw_worker(self):
        op, prior, y = mask_setup(AHEAD)
        cfg = make_scheme_config("ddpg", make_ddpm_schedule(12), 0.05, seed=8)
        denoiser = WienerMMSE(prior)
        calls = []

        def failing_at_t10(x, sigma):
            calls.append(sigma)
            if len(calls) == 3:  # t = T - 2
                raise ValueError("boom")
            return denoiser(x, sigma)

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=r"iteration t=10: boom"):
            ddpg_run(failing_at_t10, op, y, cfg)
        assert threading.active_count() == threads

    def test_identity_noiseless_returns_measurement(self, rng):
        op = CircularConvolution(delta_kernel(1), SHAPE)
        y = rng.standard_normal(SHAPE)
        cfg = dataclasses.replace(make_scheme_config("ddpg", make_ddpm_schedule(6), 0.0, seed=4),
                                  eta=0.0)
        x, _ = ddpg_run(Identity(), op, y, cfg)
        np.testing.assert_allclose(x, y, atol=1e-12)

    def test_zeta_one_ignores_effective_noise(self, monkeypatch):
        op, prior, _, y = blur_setup(seed=17, sigma_e=0.05)
        cfg = make_scheme_config("ddpg", make_ddpm_schedule(10), 0.05, zeta=1.0, seed=2)
        denoiser = WienerMMSE(prior)
        baseline, _ = ddpg_run(denoiser, op, y, cfg)

        true_eps = schemes.eps_effective

        def perturbed(x_t, x_clean, abar):
            return true_eps(x_t, x_clean, abar) + 1000.0

        monkeypatch.setattr(schemes, "eps_effective", perturbed)
        shifted, _ = ddpg_run(denoiser, op, y, cfg)
        np.testing.assert_array_equal(baseline, shifted)

    def test_zeta_zero_depends_on_effective_noise(self, monkeypatch):
        op, prior, _, y = blur_setup(seed=17, sigma_e=0.05)
        cfg = make_scheme_config("ddpg", make_ddpm_schedule(10), 0.05, zeta=0.0, seed=2)
        denoiser = WienerMMSE(prior)
        baseline, _ = ddpg_run(denoiser, op, y, cfg)
        true_eps = schemes.eps_effective
        monkeypatch.setattr(
            schemes, "eps_effective", lambda x_t, x_clean, abar: true_eps(x_t, x_clean, abar) + 1.0
        )
        shifted, _ = ddpg_run(denoiser, op, y, cfg)
        assert not np.array_equal(baseline, shifted)

    def test_seed_determinism(self):
        op, prior, _, y = blur_setup(seed=19, sigma_e=0.05)
        for op, prior, y in [(op, prior, y), mask_setup(AHEAD, seed=19)]:
            cfg = make_scheme_config("ddpg", make_ddpm_schedule(15), 0.05, seed=42)
            denoiser = WienerMMSE(prior)
            first, _ = ddpg_run(denoiser, op, y, cfg)
            second, _ = ddpg_run(denoiser, op, y, cfg)
            assert np.array_equal(first, second)
            other_cfg = make_scheme_config("ddpg", make_ddpm_schedule(15), 0.05, seed=43)
            third, _ = ddpg_run(denoiser, op, y, other_cfg)
            assert not np.array_equal(first, third)

    def test_run_scheme_dispatch(self):
        op, prior, _, y = blur_setup(seed=21, sigma_e=0.05)
        denoiser = WienerMMSE(prior)
        ddpg_cfg = make_scheme_config("ddpg", make_ddpm_schedule(5), 0.05, seed=1)
        via_dispatch, _ = run_scheme(denoiser, op, y, ddpg_cfg)
        direct, _ = ddpg_run(denoiser, op, y, ddpg_cfg)
        assert np.array_equal(via_dispatch, direct)
        idbp_cfg = make_scheme_config("idbp", make_ddpm_schedule(5), 0.05)
        via_dispatch, _ = run_scheme(denoiser, op, y, idbp_cfg)
        direct, _ = idpg_run(denoiser, op, y, idbp_cfg)
        assert np.array_equal(via_dispatch, direct)

    def test_ddim_ratio_policy_zero_final_step(self):
        sched = make_ddpm_schedule(10)
        cfg = make_scheme_config("ddpg", sched, 0.05, step_size_policy="ddim-ratio")
        assert cfg.mu[0] == 0.0
        assert np.all(cfg.mu[1:] > 0)


@pytest.mark.parametrize("method", ["idpg", "ddpg"])
@pytest.mark.parametrize("task", ["inpaint", "deblur", "sr2"])
def test_restore_loop_makes_no_blas_call(monkeypatch, method, task):
    # OpenBLAS's threaded reductions spin a core that DDPG's draw-ahead needs.
    op, prior, y = task_setup(task, AHEAD)
    cfg = make_scheme_config(method, make_ddpm_schedule(4), 0.05, seed=3)
    denoiser = WienerMMSE(prior)

    def no_blas(*args, **kwargs):
        raise AssertionError("BLAS call in the restore loop")

    for owner, name in [(np, "vdot"), (np, "dot"), (np, "inner"), (np.linalg, "norm")]:
        monkeypatch.setattr(owner, name, no_blas)
    x, _ = run_scheme(denoiser, op, y, cfg)
    assert np.isfinite(x).all()


def test_trace_export_format(tmp_path):
    op, prior, _, y = blur_setup(seed=23, sigma_e=0.05)
    cfg = make_scheme_config("idpg", make_ddpm_schedule(5), 0.05)
    _, trace = idpg_run(WienerMMSE(prior), op, y, cfg)
    path = tmp_path / "run.trace"
    trace.save(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    first = lines[0].split()
    assert len(first) == 4
    assert int(first[0]) == 5  # loop starts at t = T
    float(first[1]), float(first[2]), float(first[3])


def test_trace_file_bytes_are_pinned(tmp_path):
    # Awkward values: an underflow-scale float, a sum that is not 0.3, a
    # negative zero, and an integer t held as a float.
    trace = RunTrace(t=np.array([3, 2.0, 1]), delta=np.array([0.0, 0.1 + 0.2, 1.0]),
                     objective=np.array([1e-300, -0.0, 12345678901234.5]),
                     residual=np.array([5e-324, 1 / 3, 2.5e17]),
                     objective_after=np.zeros(3), residual_after=np.zeros(3))
    trace.save(tmp_path / "run.trace")
    assert (tmp_path / "run.trace").read_bytes() == (
        b"3 0 1e-300 4.94065645841e-324\n"
        b"2 0.3 -0 0.333333333333\n"
        b"1 1 1.23456789012e+13 2.5e+17\n"
    )
