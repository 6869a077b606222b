import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgrestore.guidance import (
    ETA_FLOOR,
    delta_schedule,
    eta_from_noise,
    g_delta,
    guide,
    make_guided_step,
    wls_objective,
)
from pgrestore.denoisers import WienerMMSE, WienerPrior
from pgrestore.kernels import bicubic_kernel, delta_kernel, gaussian_kernel
from pgrestore.linops import (
    CircularConvolution,
    DenseOperator,
    DownsampleConvolution,
    Mask,
    ShapeMismatchError,
    SingularOperatorError,
)
from pgrestore.schemes import make_ddpm_schedule, make_scheme_config, run_scheme
from oracles import (
    directional_derivative,
    operator_matrix,
    peak_traced_bytes,
    reg_pinv_svd,
    wls_objective_dense,
)


def dense_instance(rng, m=5, n=8):
    op = DenseOperator(rng.standard_normal((m, n)))
    x = rng.standard_normal(n)
    y = rng.standard_normal(m)
    return op, x, y


def g_bp(op, x, y, eta):
    """Back-projection direction: g_delta at delta = 0."""
    return g_delta(op, x, y, 0.0, eta, 1.0)


def g_ls(op, x, y, c):
    """Scaled least-squares gradient: g_delta at delta = 1."""
    return g_delta(op, x, y, 1.0, 0.0, c)


class TestDirections:
    def test_zero_residual_gives_zero_bp(self, rng):
        op, x, _ = dense_instance(rng)
        y = op.apply(x)
        assert np.all(g_bp(op, x, y, 0.1) == 0)
        assert np.all(g_ls(op, x, y, 1.0) == 0)

    def test_mask_bp_equals_ls(self, rng):
        # tight frame: A A^T = I, so the two directions coincide at eta=0, c=1
        mask = rng.random((8, 8)) < 0.5
        mask[0, 0] = True
        op = Mask(mask, (1, 8, 8))
        x = rng.standard_normal((1, 8, 8))
        y = rng.standard_normal(op.output_shape)
        assert np.array_equal(g_bp(op, x, y, 0.0), g_ls(op, x, y, 1.0))

    def test_bp_matches_dense_oracle(self, rng):
        op = CircularConvolution(gaussian_kernel(3, 1.0), (1, 8, 8))
        x = rng.standard_normal((1, 8, 8))
        y = rng.standard_normal((1, 8, 8))
        matrix = operator_matrix(op)
        residual = matrix @ x.ravel() - y.ravel()
        expected = reg_pinv_svd(matrix, residual, 0.05)
        got = g_bp(op, x, y, 0.05).ravel()
        assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_ls_identity_operator(self, rng):
        op = DenseOperator(np.eye(6))
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        np.testing.assert_allclose(g_ls(op, x, y, 1.0), x - y, atol=1e-14)

    def test_ls_is_gradient_of_half_squared_residual(self, rng):
        op, x, y = dense_instance(rng)
        direction = rng.standard_normal(x.shape)
        direction /= np.linalg.norm(direction)

        def objective(pt):
            r = op.apply(pt) - y
            return 0.5 * float(np.vdot(r, r))

        fd = directional_derivative(objective, x, direction, step=1e-5)
        analytic = float(np.vdot(g_ls(op, x, y, 2.0) / 2.0, direction))
        assert abs(fd - analytic) <= 1e-5 * (1.0 + abs(fd))


class TestGDelta:
    def test_endpoints_bitwise(self, rng):
        # delta = 0 is the dense BP formula and ignores c; delta = 1 is
        # c A^T r and ignores eta (theory.claim1_check relies on that)
        op, x, y = dense_instance(rng)
        a = op.matrix
        r = a @ x - y
        bp = a.T @ np.linalg.solve(a @ a.T + 0.1 * np.eye(len(y)), r)
        assert np.array_equal(g_delta(op, x, y, 0.0, 0.1, 1.0), bp)
        assert np.array_equal(g_delta(op, x, y, 0.0, 0.1, 2.0), bp)
        assert np.array_equal(g_delta(op, x, y, 1.0, 0.1, 2.0), a.T @ (2.0 * r))
        assert np.array_equal(g_delta(op, x, y, 1.0, 0.1, 2.0), g_ls(op, x, y, 2.0))

    def test_midpoint_average(self, rng):
        op, x, y = dense_instance(rng)
        mid = g_delta(op, x, y, 0.5, 0.1, 1.0)
        a = op.matrix
        r = a @ x - y
        bp = a.T @ np.linalg.solve(a @ a.T + 0.1 * np.eye(len(y)), r)
        np.testing.assert_allclose(mid, 0.5 * (bp + a.T @ r), rtol=0, atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_in_delta(self, delta):
        rng = np.random.default_rng(7)
        op, x, y = dense_instance(rng)
        low = g_delta(op, x, y, 0.0, 0.2, 1.0)
        high = g_delta(op, x, y, 1.0, 0.2, 1.0)
        np.testing.assert_allclose(
            g_delta(op, x, y, delta, 0.2, 1.0),
            (1.0 - delta) * low + delta * high,
            atol=1e-12,
        )

    def test_tight_frame_collapse(self, rng):
        mask = rng.random((8, 8)) < 0.5
        mask[0, 0] = True
        op = Mask(mask, (1, 8, 8))
        x = rng.standard_normal((1, 8, 8))
        y = rng.standard_normal(op.output_shape)
        base = g_delta(op, x, y, 0.0, 0.0, 1.0)
        for delta in (0.25, 0.5, 0.75, 1.0):
            np.testing.assert_allclose(
                g_delta(op, x, y, delta, 0.0, 1.0), base, atol=1e-14
            )

    def test_delta_out_of_range_rejected(self, rng):
        op, x, y = dense_instance(rng)
        with pytest.raises(ValueError):
            g_delta(op, x, y, 1.5, 0.0, 1.0)


class TestWLSObjective:
    def test_zero_residual_is_zero(self, rng):
        op, x, _ = dense_instance(rng)
        y = op.apply(x)
        assert wls_objective(op, x, y, 0.3, 0.1, 1.0) == 0.0

    def test_delta_one_is_half_squared_residual(self, rng):
        op, x, y = dense_instance(rng)
        r = op.apply(x) - y
        assert wls_objective(op, x, y, 1.0, 0.0, 1.0) == pytest.approx(
            0.5 * float(np.vdot(r, r)), rel=1e-12
        )

    def test_matches_eigendecomposition_oracle(self, rng):
        op, x, y = dense_instance(rng)
        for delta in (0.0, 0.3, 0.8):
            expected = wls_objective_dense(op.matrix, x, y, delta, 0.05, 1.3)
            got = wls_objective(op, x, y, delta, 0.05, 1.3)
            assert got == pytest.approx(expected, rel=1e-8)
        assert wls_objective(op, x, y, 0.5, 0.05, 1.3) >= 0.0

    def test_descent_after_one_step(self, rng):
        # one g_delta step with mu = 1, c = 1/lambda_1^2 strictly decreases
        for i in range(50):
            inst = np.random.default_rng(900 + i)
            m = int(inst.integers(2, 7))
            n = int(inst.integers(m, 11))
            op = DenseOperator(inst.standard_normal((m, n)))
            lam1 = np.linalg.svd(op.matrix, compute_uv=False).max()
            c = 1.0 / lam1**2
            eta = float(inst.uniform(0.0, 0.5))
            x = inst.standard_normal(n)
            y = inst.standard_normal(m)
            for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
                before = wls_objective(op, x, y, delta, eta, c)
                after = wls_objective(
                    op, x - g_delta(op, x, y, delta, eta, c), y, delta, eta, c
                )
                assert after < before

    def test_stationarity_equivalence(self, rng):
        # g_delta and g_ls vanish together on full-rank instances
        for i in range(25):
            inst = np.random.default_rng(300 + i)
            m = int(inst.integers(2, 7))
            n = int(inst.integers(m, 11))
            op = DenseOperator(inst.standard_normal((m, n)))
            delta = float(inst.uniform(0.05, 0.95))
            x_sol = inst.standard_normal(n)
            y = op.apply(x_sol)
            assert np.linalg.norm(g_delta(op, x_sol, y, delta, 0.0, 1.0)) <= 1e-10
            assert np.linalg.norm(g_ls(op, x_sol, y, 1.0)) <= 1e-10
            x_off = x_sol + inst.standard_normal(n)
            assert np.linalg.norm(g_delta(op, x_off, y, delta, 0.0, 1.0)) > 1e-10
            assert np.linalg.norm(g_ls(op, x_off, y, 1.0)) > 1e-10


def _guide_operator(kind, rng):
    shape = (2, 16, 16)
    if kind == "dense":
        return DenseOperator(rng.standard_normal((6, 10)))
    if kind == "conv":
        return CircularConvolution(gaussian_kernel(5, 1.5), shape)
    if kind.startswith("sr"):
        scale = int(kind[2:])
        return DownsampleConvolution(bicubic_kernel(scale), scale, shape)
    mask = rng.random(shape[1:]) < 0.5
    mask[0, 0] = True
    return Mask(mask, shape)


class TestGuide:
    @given(
        kind=st.sampled_from(["dense", "conv", "sr2", "sr4", "mask"]),
        delta=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        eta=st.floats(min_value=1e-4, max_value=1.0),
        c=st.floats(min_value=0.1, max_value=2.0),
        mu=st.floats(min_value=0.0, max_value=1.5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_functions(self, kind, delta, eta, c, mu, seed):
        rng = np.random.default_rng(seed)
        op = _guide_operator(kind, rng)
        x0 = rng.standard_normal(op.input_shape)
        y = rng.standard_normal(op.output_shape)
        x, objective, residual, objective_after, residual_after = guide(
            op, x0, y, delta, eta, c, mu)

        expected_x = x0 - mu * g_delta(op, x0, y, delta, eta, c)
        assert np.linalg.norm(x - expected_x) <= 1e-10 * np.linalg.norm(expected_x)
        expected = [
            wls_objective(op, x0, y, delta, eta, c),
            np.linalg.norm(op.apply(x0) - y),
            wls_objective(op, x, y, delta, eta, c),
            np.linalg.norm(op.apply(x) - y),
        ]
        got = [objective, residual, objective_after, residual_after]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)

    def test_delta_out_of_range_rejected(self, rng):
        op, x, y = dense_instance(rng)
        with pytest.raises(ValueError):
            guide(op, x, y, -0.1, 0.1, 1.0, 1.0)


def _spectral_operator(kind, channels):
    if kind == "conv":
        return CircularConvolution(gaussian_kernel(5, 1.5), (channels, 16, 16))
    if kind == "conv-odd":
        return CircularConvolution(gaussian_kernel(3, 0.8), (channels, 15, 17))
    if kind == "conv-even-odd":
        return CircularConvolution(gaussian_kernel(3, 0.8), (channels, 16, 15))
    if kind == "sr2-odd":  # coarse 9 x 15
        return DownsampleConvolution(bicubic_kernel(2), 2, (channels, 18, 30))
    if kind == "sr4-odd":  # coarse 5 x 9
        return DownsampleConvolution(bicubic_kernel(4), 4, (channels, 20, 36))
    scale = int(kind[2:])
    return DownsampleConvolution(bicubic_kernel(scale), scale, (channels, 16, 32))


def _box_blur(shape):
    # A 3-tap box has a zero in its frequency response on sides divisible by 3.
    return CircularConvolution(np.full((3, 3), 1.0 / 9.0), shape)


class TestGuidedStep:
    @given(
        kind=st.sampled_from(["conv", "conv-odd", "conv-even-odd", "sr2", "sr4",
                              "sr2-odd", "sr4-odd"]),
        channels=st.sampled_from([1, 3]),
        delta=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        eta=st.floats(min_value=1e-4, max_value=1.0),
        c=st.floats(min_value=0.1, max_value=2.0),
        mu=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.5)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_fourier_step_matches_guide(self, kind, channels, delta, eta, c, mu, seed):
        rng = np.random.default_rng(seed)
        op = _spectral_operator(kind, channels)
        x0 = rng.standard_normal(op.input_shape)
        y = rng.standard_normal(op.output_shape)
        x, *numbers = op.guided_step(y, eta, c)(x0, delta, mu)
        expected_x, *expected = guide(op, x0, y, delta, eta, c, mu)
        assert np.linalg.norm(x - expected_x) <= 1e-10 * np.linalg.norm(expected_x)
        np.testing.assert_allclose(numbers, expected, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("kind", ["conv-odd", "sr2-odd", "sr4-odd"])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_fourier_step_with_mu_zero_changes_nothing(self, rng, kind, delta):
        # Exact: the numbers after the step weight the same |R|^2 by (1 - 0)^2.
        op = _spectral_operator(kind, 3)
        x0 = rng.standard_normal(op.input_shape)
        x, objective, residual, objective_after, residual_after = op.guided_step(
            rng.standard_normal(op.output_shape), 0.1, 0.7)(x0, delta, 0.0)
        assert np.array_equal(x, x0)
        assert objective_after == objective and residual_after == residual

    @given(
        channels=st.sampled_from([1, 3]),
        grid=st.sampled_from([(16, 16), (15, 17)]),
        delta=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        eta=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        c=st.floats(min_value=0.1, max_value=2.0),
        mu=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.5)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_mask_step_matches_guide(self, channels, grid, delta, eta, c, mu, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(grid) < 0.5
        mask[0, 0] = True
        op = Mask(mask, (channels, *grid))
        x0 = rng.standard_normal(op.input_shape)
        y = rng.standard_normal(op.output_shape)
        x, *numbers = op.guided_step(y, eta, c)(x0, delta, mu)
        expected_x, *expected = guide(op, x0, y, delta, eta, c, mu)
        assert np.linalg.norm(x - expected_x) <= 1e-10 * np.linalg.norm(expected_x)
        np.testing.assert_allclose(numbers[:2], expected[:2], rtol=1e-10, atol=0)
        # 1 - mu W can be exactly 0 here, where guide leaves rounding noise
        np.testing.assert_allclose(numbers[2:], expected[2:], rtol=1e-10,
                                   atol=1e-12 * expected[1])

    def test_dense_step_is_guide(self, rng):
        op, x0, y = dense_instance(rng)
        step = op.guided_step(y, 0.1, 1.3)
        for delta in (0.0, 0.4, 1.0):
            got_x, *got = step(x0, delta, 0.8)
            expected_x, *expected = guide(op, x0, y, delta, 0.1, 1.3, 0.8)
            assert np.array_equal(got_x, expected_x)
            assert got == expected

    def test_vanishing_gram_spectrum_at_eta_zero(self, rng):
        # Taps 2 rows apart null frequency rows h/4 and 3h/4, a whole s = 2
        # alias group, so the sr Gram spectrum vanishes on coarse row h/4.
        comb = np.array([[0.5], [0.0], [0.5]])
        for op in (_box_blur((2, 12, 12)), DownsampleConvolution(comb, 2, (2, 12, 16))):
            x0 = rng.standard_normal(op.input_shape)
            y = rng.standard_normal(op.output_shape)
            step = op.guided_step(y, 0.0, 1.0)
            x, *numbers = step(x0, 1.0, 1.0)
            expected_x, *expected = guide(op, x0, y, 1.0, 0.0, 1.0, 1.0)
            assert np.linalg.norm(x - expected_x) <= 1e-10 * np.linalg.norm(expected_x)
            np.testing.assert_allclose(numbers, expected, rtol=1e-10, atol=0)
            for delta in (0.0, 0.5):
                with pytest.raises(SingularOperatorError):
                    step(x0, delta, 1.0)

    def test_pure_ls_run_at_eta_zero_matches_generic_path(self):
        # ddpg with gamma = 0 has delta = 1 throughout, so eta = 0 never
        # inverts the singular Gram spectrum; a dense copy of the operator
        # takes the generic guide.
        op = _box_blur((1, 12, 12))
        dense = DenseOperator(operator_matrix(op), op.input_shape, op.output_shape)
        prior = WienerPrior.smooth_default((12, 12), amplitude=16.0)
        y = op.apply(prior.sample(np.random.default_rng(5)))
        cfg = dataclasses.replace(
            make_scheme_config("ddpg", make_ddpm_schedule(8), 0.05, gamma=0.0, seed=6), eta=0.0)
        assert np.all(cfg.delta == 1.0)
        x, trace = run_scheme(WienerMMSE(prior), op, y, cfg)
        expected_x, expected_trace = run_scheme(WienerMMSE(prior), dense, y, cfg)
        assert np.linalg.norm(x - expected_x) <= 1e-10 * np.linalg.norm(expected_x)
        np.testing.assert_allclose(trace.residual_after, expected_trace.residual_after, rtol=1e-10)

    @pytest.mark.parametrize("kind,images", [("conv", 1), ("sr2", 2), ("sr4", 2)])
    def test_step_call_allocates_little_besides_its_output(self, rng, kind, images):
        # At 128^2 a call writes into the arrays its run's step owns: it may
        # allocate its output (one image), and the sr steps one more image of
        # numpy buffers, plus 16 KiB.
        shape = (1, 128, 128)
        if kind == "conv":
            op = CircularConvolution(gaussian_kernel(5, 10.0), shape)
        else:
            op = DownsampleConvolution(bicubic_kernel(int(kind[2])), int(kind[2]), shape)
        x0 = rng.standard_normal(shape)
        step = make_guided_step(op, rng.standard_normal(op.output_shape), 0.01)
        first = step(x0, 0.5, 1.0)[0]
        kept = first.copy()
        peak = peak_traced_bytes(lambda: step(x0, 0.5, 1.0))
        assert peak <= images * first.nbytes + 16 * 1024
        assert np.array_equal(first, kept)  # a later call leaves an earlier x alone

    @pytest.mark.parametrize("kind", ["conv", "sr2", "mask", "dense"])
    def test_bad_arguments_rejected(self, rng, kind):
        op = _guide_operator(kind, rng)
        x0 = rng.standard_normal(op.input_shape)
        y = rng.standard_normal(op.output_shape)
        with pytest.raises(ValueError, match="eta must be nonnegative"):
            make_guided_step(op, y, -0.1)
        with pytest.raises(ShapeMismatchError):
            make_guided_step(op, y[..., :-1], 0.1)
        x, *numbers = make_guided_step(op, y, 0.1)(x0, 0.5, 1.0)
        assert x.shape == x0.shape and np.isfinite(numbers).all()


@pytest.mark.parametrize("c", [0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda op, x, y, c: g_delta(op, x, y, 0.5, 0.1, c),
    lambda op, x, y, c: wls_objective(op, x, y, 0.5, 0.1, c),
    lambda op, x, y, c: guide(op, x, y, 0.5, 0.1, c, 1.0),
], ids=["g_delta", "wls_objective", "guide"])
def test_nonpositive_ls_scale_rejected(rng, call, c):
    # with c <= 0 the weighting W is not positive definite, so the
    # objective could go negative
    op, x, y = dense_instance(rng)
    with pytest.raises(ValueError, match="c must be positive"):
        call(op, x, y, c)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call, name", [
    (lambda op, x, y, bad: g_delta(op, x, y, 0.5, 0.1, bad), "c"),
    (lambda op, x, y, bad: wls_objective(op, x, y, 0.5, 0.1, bad), "c"),
    (lambda op, x, y, bad: guide(op, x, y, 0.5, 0.1, bad, 1.0), "c"),
    (lambda op, x, y, bad: make_guided_step(op, y, bad), "eta"),
], ids=["g_delta", "wls_objective", "guide", "make_guided_step"])
def test_non_finite_setting_rejected(rng, call, name, bad):
    # the comparison checks alone let NaN through, and the result is NaN
    op, x, y = dense_instance(rng)
    with pytest.raises(ValueError, match=f"{name} must be .* finite, got {bad}"):
        call(op, x, y, bad)


class TestSchedules:
    def test_noiseless_forces_pure_bp(self):
        delta, w = delta_schedule(np.array([0.9, 0.5, 0.1]), 7.0, 0.0)
        assert np.all(delta == 0.0) and np.all(w == 1.0)

    def test_gamma_one_returns_alpha_bar(self):
        abar = np.array([0.9, 0.5, 0.1])
        delta, w = delta_schedule(abar, 1.0, 0.05)
        np.testing.assert_array_equal(delta, abar)
        np.testing.assert_array_equal(w, delta)

    def test_power_arithmetic(self):
        delta, _ = delta_schedule(np.array([0.9, 0.5, 0.1]), 2.0, 0.05)
        np.testing.assert_allclose(delta, [0.81, 0.25, 0.01], atol=1e-15)

    def test_alpha_bar_validation(self):
        with pytest.raises(ValueError):
            delta_schedule(np.array([1.2, 0.5]), 1.0, 0.05)
        with pytest.raises(ValueError):
            delta_schedule(np.array([0.5, -0.1]), 1.0, 0.05)

    def test_eta_from_noise(self):
        assert eta_from_noise(0.0, 0.7) == ETA_FLOOR
        assert eta_from_noise(0.05, 0.7) == pytest.approx(0.007, rel=1e-12)
        assert eta_from_noise(0.5, 1.0) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            eta_from_noise(-0.1, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_settings_rejected(self, bad):
        # NaN passes a bare `x < 0` check and would run the noiseless mix
        abar = np.array([0.9, 0.5, 0.1])
        with pytest.raises(ValueError, match="gamma"):
            delta_schedule(abar, bad, 0.05)
        with pytest.raises(ValueError, match="sigma_e"):
            delta_schedule(abar, 1.0, bad)
        with pytest.raises(ValueError, match="alpha_bar"):
            delta_schedule(np.array([0.9, bad, 0.1]), 1.0, 0.05)
        for args in ((bad, 0.7), (0.05, bad)):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                eta_from_noise(*args)

    def test_mu_policies(self):
        # SchemeConfig derives mu from the step-size policy of its settings
        schedule = make_ddpm_schedule(6)
        abar = schedule.alpha_bar
        for method in ("idpg", "idbp", "pgm_ls", "ddpg"):
            unit = make_scheme_config(method, schedule, 0.05, step_size_policy="unit")
            assert np.array_equal(unit.mu, np.ones(6))
            ratio = make_scheme_config(method, schedule, 0.05, step_size_policy="ddim-ratio")
            assert np.array_equal(ratio.mu, (1.0 - abar[:-1]) / (1.0 - abar[1:]))
            assert ratio.mu[0] == 0.0
            with pytest.raises(ValueError, match="unknown step-size policy 'nope'"):
                make_scheme_config(method, schedule, 0.05, step_size_policy="nope")


def test_default_ls_scale(monkeypatch):
    # the LS scale c = min(1, 1/||A||^2) that make_guided_step hands to op.guided_step
    def scale_of(op):
        handed = []
        monkeypatch.setattr(op, "guided_step", lambda y, eta, c: handed.append(c))
        make_guided_step(op, np.zeros(op.output_shape), 0.1)
        return handed[0]

    assert scale_of(CircularConvolution(gaussian_kernel(5, 10.0), (1, 16, 16))) == 1.0
    # unit-sum taps whose computed norm is 1 + 2.2e-16: still exactly 1
    blur = CircularConvolution(gaussian_kernel(5, 2.0), (1, 16, 16))
    assert blur.norm > 1.0 and scale_of(blur) == 1.0
    for scale in (2, 4):  # matched bicubic: ||A|| = 1/s
        assert scale_of(DownsampleConvolution(bicubic_kernel(scale), scale, (1, 16, 16))) == 1.0
    for big in (DenseOperator(3.0 * np.eye(8)),
                CircularConvolution(3.0 * delta_kernel(1), (1, 16, 16))):  # ||A|| = 3
        assert scale_of(big) == pytest.approx(1.0 / 9.0, rel=1e-12)
