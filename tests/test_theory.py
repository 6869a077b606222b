import dataclasses
import math

import numpy as np
import pytest

from pgrestore.theory import (
    TikhonovProblem,
    bias_variance_closed_form,
    claim1_check,
    claim2_check,
    claim3_check,
    claim4_check,
    data_weight_matrix,
    mc_bias_variance,
    random_conforming_problem,
    run_verifier_battery,
    tikhonov_estimate,
    verify_theorem1,
)
from oracles import gradient_descent_minimize


def small_problem(seed=0, **changes):
    """A conforming instance, with ``changes`` applied through ``dataclasses.replace``."""
    return dataclasses.replace(random_conforming_problem(np.random.default_rng(seed)), **changes)


def skewed_prior():
    p = small_problem(4)
    skewed = p.d_matrix.copy()
    skewed[0, -1] += 1.0
    return p.a_matrix, skewed


def prior_turned_between_near_equal_singular_values():
    # The singular values 0.5 and 0.5 - 1e-8 differ, so their singular vectors are fixed,
    # and D's eigenvectors are turned 45 degrees in their plane. A^T A and D^T D share no
    # eigenbasis, though their commutator is within 1e-8 of their norms' product.
    turn = np.eye(3)
    turn[1:, 1:] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    return np.diag([0.9, 0.5, 0.5 - 1e-8]), turn @ np.diag([1.0, 1.0, 2.0]) @ turn.T


class TestTikhonovEstimate:
    def test_huge_prior_weight_shrinks_to_zero(self, rng):
        p = small_problem(1)
        p = TikhonovProblem(
            a_matrix=p.a_matrix, d_matrix=p.d_matrix, beta_prior=1e8,
            sigma_e=p.sigma_e, x_star=p.x_star, delta=p.delta,
        )
        y = rng.standard_normal(p.shape[0])
        assert np.linalg.norm(tikhonov_estimate(p, "wls", y)) <= 1e-3

    def test_identity_ls_closed_form(self, rng):
        n = 5
        beta = 0.7
        p = TikhonovProblem(
            a_matrix=np.eye(n), d_matrix=np.eye(n), beta_prior=beta,
            sigma_e=0.1, x_star=np.zeros(n), delta=0.5,
        )
        y = rng.standard_normal(n)
        np.testing.assert_allclose(
            tikhonov_estimate(p, "ls", y), y / (1.0 + beta), atol=1e-12
        )

    def test_matches_gradient_descent_oracle(self, rng):
        p = small_problem(2)
        m, n = p.shape
        y = rng.standard_normal(m)
        for mode in ("ls", "bp", "wls"):
            w = data_weight_matrix(p, mode)
            hess = p.a_matrix.T @ w @ p.a_matrix + p.beta_prior * p.d_matrix.T @ p.d_matrix

            def grad(x, w=w):
                return p.a_matrix.T @ w @ (p.a_matrix @ x - y) + \
                    p.beta_prior * p.d_matrix.T @ p.d_matrix @ x

            oracle = gradient_descent_minimize(
                grad, np.zeros(n), np.linalg.eigvalsh(hess).max()
            )
            got = tikhonov_estimate(p, mode, y)
            assert np.linalg.norm(got - oracle) <= 1e-6 * (1 + np.linalg.norm(oracle))

    def test_stationarity(self, rng):
        p = small_problem(3)
        y = rng.standard_normal(p.shape[0])
        for mode in ("ls", "bp", "wls"):
            x_hat = tikhonov_estimate(p, mode, y)
            w = data_weight_matrix(p, mode)
            grad = p.a_matrix.T @ w @ (p.a_matrix @ x_hat - y) + \
                p.beta_prior * p.d_matrix.T @ p.d_matrix @ x_hat
            assert np.linalg.norm(grad) <= 1e-8

    @pytest.mark.parametrize("make_matrices", [
        skewed_prior, prior_turned_between_near_equal_singular_values,
    ], ids=["skewed-prior", "near-equal-singular-values"])
    def test_eigenbasis_violation_rejected(self, make_matrices):
        a, d = make_matrices()
        with pytest.raises(ValueError, match="eigenbasis"):
            TikhonovProblem(a_matrix=a, d_matrix=d, beta_prior=0.5, sigma_e=0.1,
                            x_star=np.ones(a.shape[1]), delta=0.5)


class TestBiasVariance:
    def test_zero_noise_zero_variance(self):
        p = small_problem(5, sigma_e=0.0)
        for mode in ("ls", "bp", "wls"):
            _, v = bias_variance_closed_form(p, mode)
            assert v == 0.0

    def test_unit_singular_values_collapse_modes(self, rng):
        # orthonormal rows: all three weights act identically
        m, n = 4, 7
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = u @ np.eye(m, n) @ v.T
        d = v @ np.diag(rng.uniform(0.5, 2.0, n)) @ v.T
        p = TikhonovProblem(
            a_matrix=a, d_matrix=d, beta_prior=0.4, sigma_e=0.1,
            x_star=rng.standard_normal(n), delta=0.5,
        )
        results = [bias_variance_closed_form(p, mode) for mode in ("ls", "bp", "wls")]
        for b2, v_ in results[1:]:
            assert b2 == pytest.approx(results[0][0], rel=1e-10)
            assert v_ == pytest.approx(results[0][1], rel=1e-10)

    def test_monte_carlo_agreement(self):
        p = small_problem(6)
        for mode in ("ls", "bp", "wls"):
            closed_b2, closed_v = bias_variance_closed_form(p, mode)
            mc = mc_bias_variance(p, mode, seed=99)
            assert abs(mc.bias_sq - closed_b2) <= 3.0 * mc.se_bias_sq
            assert abs(mc.var - closed_v) <= 3.0 * mc.se_var
            assert abs(mc.mse - (closed_b2 + closed_v)) <= 3.0 * mc.se_mse

    @pytest.mark.parametrize("seed, message", [
        (2.7, "seed must be an integer, got 2.7"),
        (math.nan, "seed must be an integer, got nan"),
        (-1, "seed must be nonnegative, got -1"),
    ], ids=["fraction", "nan", "negative"])
    def test_bad_monte_carlo_seed_rejected(self, seed, message):
        with pytest.raises(ValueError, match=message):
            mc_bias_variance(small_problem(5), "ls", seed)

    def test_mse_is_bias_plus_variance(self):
        p = small_problem(7)
        b2, v = bias_variance_closed_form(p, "wls")
        mc = mc_bias_variance(p, "wls", seed=5)
        assert mc.mse == pytest.approx(b2 + v, rel=0.05)


class TestTheorem1:
    def test_conforming_instance_orders_strictly(self):
        report = verify_theorem1(small_problem(8))
        assert report.passed
        b2, v = report.bias_sq, report.var
        assert b2["bp"] < b2["wls"] < b2["ls"]
        assert v["ls"] < v["wls"] < v["bp"]
        for mode in ("ls", "bp", "wls"):
            assert (b2[mode], v[mode]) == bias_variance_closed_form(small_problem(8), mode)

    def test_delta_near_one_collapses_wls_to_ls(self):
        p = small_problem(9, delta=1.0 - 1e-9)
        report = verify_theorem1(p)
        assert abs(report.var["wls"] - report.var["ls"]) <= 1e-6 * report.var["ls"]

    def test_equal_singular_values_rejected(self, rng):
        m, n = 3, 5
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = 0.5 * (u @ np.eye(m, n) @ v.T)
        d = v @ np.diag(rng.uniform(0.5, 2.0, n)) @ v.T
        p = TikhonovProblem(
            a_matrix=a, d_matrix=d, beta_prior=0.3, sigma_e=0.1,
            x_star=rng.standard_normal(n), delta=0.5,
        )
        with pytest.raises(ValueError, match=r"assumption \(b\)"):
            verify_theorem1(p)

    def test_out_of_range_singular_values_rejected(self):
        p = small_problem(10)
        scaled = TikhonovProblem(
            a_matrix=2.0 * p.a_matrix, d_matrix=p.d_matrix, beta_prior=p.beta_prior,
            sigma_e=p.sigma_e, x_star=p.x_star, delta=p.delta,
        )
        with pytest.raises(ValueError, match=r"assumption \(b\)"):
            verify_theorem1(scaled)

    def test_hundred_random_instances(self):
        for i in range(100):
            report = verify_theorem1(small_problem(4000 + i))
            assert report.passed


class TestBattery:
    def test_individual_checks_pass(self):
        assert claim1_check().passed
        assert claim2_check().passed
        assert claim3_check().passed
        assert claim4_check().passed

    def test_battery_selection(self):
        results = run_verifier_battery(["claim4"])
        assert [r.name for r in results] == ["claim4"]
        with pytest.raises(ValueError, match="unknown check"):
            run_verifier_battery(["claim9"])

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_claim2_needs_a_pair(self, n_pairs):
        # no pairs would print PASS (0/0 pairs)
        with pytest.raises(ValueError, match=f"n_pairs must be at least 1, got {n_pairs}"):
            claim2_check(n_pairs)

    def test_report_line_format(self):
        line = claim4_check().line()
        assert line.startswith("claim4: PASS (50/50 instances, ")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build, name", [
    (lambda bad: small_problem(12, beta_prior=bad), "beta_prior"),
    (lambda bad: small_problem(12, sigma_e=bad), "sigma_e"),
], ids=["TikhonovProblem-beta_prior", "TikhonovProblem-sigma_e"])
def test_non_finite_setting_rejected(build, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be .* finite, got {bad}"):
        build(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["a_matrix", "d_matrix", "x_star"])
def test_non_finite_entry_rejected(name, bad):
    # A NaN x_star would give a NaN bias. A NaN A would stop the SVD with
    # numpy's "SVD did not converge", and an infinite one can stall it.
    problem = small_problem(12)
    changed = getattr(problem, name).copy()
    changed.flat[0] = bad
    with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
        dataclasses.replace(problem, **{name: changed})
