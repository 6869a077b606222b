"""Numerical verification of the mathematical properties the guidance
design rests on.

The individual properties (gradient zero-set equivalence, preconditioner
factorization, single-step descent, Hessian conditioning, and Theorem 1's
bias/variance orderings) form a battery the CLI ``verify`` subcommand and
the test suite both run. Each check draws its own inputs so that the
claim's assumptions hold by construction: claim 2's W commutes with A A^T
and is positive definite, claim 4's singular values are sorted and spread,
with delta and c inside their ranges, and theorem 1 draws each small
Tikhonov problem from its decomposition, A = U diag(lambda) V_m^T and
D = V diag(gamma) V^T. Theorem 1's exact bias and variance are therefore
spectral sums over the drawn factors, and Monte-Carlo runs of the dense
estimator cross-check them. Its setting is eta = 0 and LS scale c = 1;
only claims 1, 3 and 4 vary eta or c. A NaN result fails the check.

All computations are pure; every draw uses an isolated seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .guidance import g_delta, guide
from .linops import DenseOperator, _check_setting

__all__ = [
    "CheckResult",
    "claim1_check",
    "claim2_check",
    "claim3_check",
    "claim4_check",
    "theorem1_check",
    "run_verifier_battery",
    "BATTERY_CHECKS",
]

# The delta values at which claim 3 takes its guided step, BP to LS.
_CLAIM3_DELTAS = (0.0, 0.25, 0.5, 0.75, 1.0)
# A check's instance i uses seed _SEEDS[check] + i, so `pgrestore verify` is reproducible.
_SEEDS = {"claim1": 1100, "claim2": 1200, "claim3": 1300, "claim4": 1400, "theorem1": 200000}


@dataclass(frozen=True)
class CheckResult:
    """One line of the verification report."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.detail})"


def _random_full_rank(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    a = rng.standard_normal((m, n))
    while np.linalg.svd(a, compute_uv=False).min() < 1e-3:
        a = rng.standard_normal((m, n))
    return a


def _instances(check: str, count: int):
    """A claim check's instances: (seed, its generator, m, n) with 2 <= m <= 6, m <= n <= 10."""
    for i in range(count):
        seed = _SEEDS[check] + i
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        yield seed, rng, m, int(rng.integers(m, 11))


def claim1_check() -> CheckResult:
    """Zero sets of the preconditioned and plain gradients coincide."""
    n_instances, tol = 25, 1e-10
    for seed, rng, m, n in _instances("claim1", n_instances):
        op = DenseOperator(_random_full_rank(rng, m, n))
        delta = float(rng.uniform(0.05, 0.95))
        eta = float(rng.choice([0.0, 0.1]))
        x_sol = rng.standard_normal(n)
        y = op.apply(x_sol)
        at_sol = [np.linalg.norm(g_delta(op, x_sol, y, delta, eta, 1.0)),
                  np.linalg.norm(g_delta(op, x_sol, y, 1.0, eta, 1.0))]
        x_off = x_sol + rng.standard_normal(n)
        off_sol = [np.linalg.norm(g_delta(op, x_off, y, delta, eta, 1.0)),
                   np.linalg.norm(g_delta(op, x_off, y, 1.0, eta, 1.0))]
        if max(at_sol) > tol or min(off_sol) <= tol:
            return CheckResult(
                "claim1", False,
                f"zero-set mismatch at instance seed {seed}: "
                f"at-solution norms {at_sol}, perturbed norms {off_sol}",
            )
    return CheckResult(
        "claim1", True,
        f"{n_instances}/{n_instances} instances: both gradients vanish exactly at "
        f"solutions and are nonzero at perturbed points (threshold {tol:g})",
    )


def claim2_check(n_pairs: int = 50) -> CheckResult:
    """P = V diag(W's eigenvalues on A's left singular basis, then n - m ones) V^T
    reproduces A^T W A = P^(1/2) A^T A P^(1/2) to relative 1e-8.

    Each pair draws A full rank and W as one of three positive-definite
    forms that commute with A A^T by construction: U diag(s) U^T with s in
    [0.2, 3], (A A^T)^-1, or 2 I. A NaN residual fails the check.
    """
    _check_setting("n_pairs", n_pairs, "{1, 2, ...}")
    worst = 0.0
    for i, (seed, rng, m, n) in enumerate(_instances("claim2", n_pairs)):
        a = _random_full_rank(rng, m, n)
        u, _, vt = np.linalg.svd(a)
        kind = i % 3
        if kind == 0:
            w = u @ np.diag(rng.uniform(0.2, 3.0, size=m)) @ u.T
        elif kind == 1:
            w = np.linalg.inv(a @ a.T)
        else:
            w = 2.0 * np.eye(m)
        extended = np.concatenate([np.diag(u.T @ w @ u), np.ones(n - m)])
        p_half = vt.T @ np.diag(np.sqrt(extended)) @ vt
        target = a.T @ w @ a
        rel = float(np.linalg.norm(target - p_half @ (a.T @ a) @ p_half) / np.linalg.norm(target))
        worst = max(worst, rel)
        if not rel <= 1e-8:
            return CheckResult(
                "claim2", False,
                f"relative residual {rel:.3e} > 1e-8 at instance seed {seed}",
            )
    return CheckResult(
        "claim2", True, f"{n_pairs}/{n_pairs} pairs, worst relative residual {worst:.3e}"
    )


def claim3_check() -> CheckResult:
    """One guided step with mu = 1, c = 1/l_1^2 strictly reduces the WLS term."""
    n_instances, checked = 50, 0
    for seed, rng, m, n in _instances("claim3", n_instances):
        op = DenseOperator(_random_full_rank(rng, m, n))
        c = 1.0 / op.norm**2
        eta = float(rng.uniform(0.0, 0.5))
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        for delta in _CLAIM3_DELTAS:
            _, before, _, after, _ = guide(op, x, y, delta, eta, c, 1.0)
            checked += 1
            if not after < before:
                return CheckResult(
                    "claim3", False,
                    f"no descent at instance seed {seed}, delta={delta}: "
                    f"{before:.6e} -> {after:.6e}",
                )
    return CheckResult(
        "claim3", True,
        f"strict descent in {checked}/{checked} steps "
        f"({n_instances} instances x {len(_CLAIM3_DELTAS)} delta values)",
    )


def claim4_check() -> CheckResult:
    """The data-term Hessians' condition numbers on A's row range: kappa_BP = 1,
    kappa_LS = l_1^2 / l_m^2 and kappa_WLS = ((1-delta) + delta c l_1^2) /
    ((1-delta) + delta c l_m^2), ordered strictly, and kappa_WLS matches a
    dense eigendecomposition to relative 1e-8.

    Each instance draws its inputs so the formulas apply by construction:
    the singular values sorted and spread by at least 0.05, delta in
    [0.1, 0.9] and c in [0.5, 2]. A NaN formula error fails the check.
    """
    n_instances, worst = 50, 0.0
    for seed, rng, m, n in _instances("claim4", n_instances):
        lam = np.sort(rng.uniform(0.2, 2.0, size=m))[::-1]
        while lam[0] - lam[-1] < 0.05:
            lam = np.sort(rng.uniform(0.2, 2.0, size=m))[::-1]
        delta = float(rng.uniform(0.1, 0.9))
        c = float(rng.uniform(0.5, 2.0))
        k_ls = float(lam[0] ** 2 / lam[-1] ** 2)
        k_wls = float(
            ((1.0 - delta) + delta * c * lam[0] ** 2)
            / ((1.0 - delta) + delta * c * lam[-1] ** 2)
        )
        if not 1.0 < k_wls < k_ls:
            return CheckResult(
                "claim4", False,
                f"ordering violated at instance seed {seed}: (1.0, {k_wls}, {k_ls})",
            )
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = u @ np.diag(lam) @ v[:, :m].T
        w = (1.0 - delta) * np.linalg.inv(a @ a.T) + delta * c * np.eye(m)
        hessian = a.T @ w @ a
        restricted = v[:, :m].T @ hessian @ v[:, :m]
        eigs = np.linalg.eigvalsh(restricted)
        rel = abs(eigs.max() / eigs.min() - k_wls) / k_wls
        worst = max(worst, rel)
        if not rel <= 1e-8:
            return CheckResult(
                "claim4", False,
                f"formula mismatch {rel:.3e} > 1e-8 at instance seed {seed}",
            )
    return CheckResult(
        "claim4", True,
        f"{n_instances}/{n_instances} instances, kappa_BP = 1, ordering strict, "
        f"worst formula error {worst:.3e}",
    )


def theorem1_check() -> CheckResult:
    """Strict orderings b_BP < b_WLS < b_LS and v_LS < v_WLS < v_BP on each of
    100 instances, plus Monte-Carlo agreement of the closed forms within 3
    standard errors (20000 draws).

    Each instance minimizes 0.5 ||W^(1/2)(A x - y)||^2 + (beta / 2) ||D x||^2
    with W = I (ls), (A A^T)^-1 (bp) or their delta convex combination (wls);
    beta is the prior weight, unrelated to the diffusion schedule's beta. A is
    m x n with m uniform in [3, 8] and n in [m, 12]: A = U diag(lambda) V_m^T
    with random orthogonal U and V, V_m the first m columns of V, and lambda
    uniform in [0.1, 1] (resampled until it spreads by at least 0.05); D = V
    diag(gamma) V^T with gamma uniform in [0.5, 2]; beta is uniform in [0.1, 1],
    sigma_e in [0.02, 0.3] and delta in [0.1, 0.9], and x* is standard
    normal. So the theorem's
    assumptions hold by construction, and with s_i the eigenvalues of W on
    U, g_i = gamma_i and z = V^T x*, the exact squared bias and variance are

        b^2 = sum_i (beta g_i^2 / (l_i^2 s_i + beta g_i^2))^2 z_i^2
              + sum_{i > m} z_i^2
        v   = sigma_e^2 sum_i l_i^2 s_i^2 / (l_i^2 s_i + beta g_i^2)^2

    where the second bias term is the energy of x* that no data term can see.
    The Monte-Carlo side runs the dense estimator (A^T W A + beta D^T D)^-1
    A^T W y on one set of draws y = A x* + e per instance, shared by the
    three modes. Its bias^2 estimate subtracts the v/N inflation of the
    sample-mean distance, and its standard errors come from per-draw
    statistics (delta method for the bias term).
    """
    n_instances, n_draws, worst_z = 100, 20000, 0.0
    for i in range(n_instances):
        seed = _SEEDS["theorem1"] + i
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        n = int(rng.integers(m, 13))
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.1, 1.0, size=m)
        while lam.max() - lam.min() < 0.05:
            lam = rng.uniform(0.1, 1.0, size=m)
        gamma = rng.uniform(0.5, 2.0, size=n)
        beta = float(rng.uniform(0.1, 1.0))
        sigma_e = float(rng.uniform(0.02, 0.3))
        x_star = rng.standard_normal(n)
        delta = float(rng.uniform(0.1, 0.9))

        coords = v.T @ x_star
        prior = beta * gamma[:m] ** 2
        weights = {"ls": np.ones(m), "bp": 1.0 / lam**2, "wls": (1.0 - delta) / lam**2 + delta}
        b2, var = {}, {}
        for mode, s in weights.items():
            data = lam**2 * s
            b2[mode] = float(np.sum((prior / (data + prior)) ** 2 * coords[:m] ** 2)
                             + coords[m:] @ coords[m:])
            var[mode] = float(sigma_e**2 * np.sum(data * s / (data + prior) ** 2))
        if not (b2["bp"] < b2["wls"] < b2["ls"] and var["ls"] < var["wls"] < var["bp"]):
            return CheckResult(
                "theorem1", False,
                f"ordering violated at instance seed {seed}: bias^2 {b2}, variance {var}",
            )

        a = u @ np.diag(lam) @ v[:, :m].T
        d = v @ np.diag(gamma) @ v.T
        noise = sigma_e * np.random.default_rng(seed + 7919).standard_normal((n_draws, m))
        y = (a @ x_star + noise).T
        gram_inv = np.linalg.inv(a @ a.T)
        dense_w = {"ls": np.eye(m), "bp": gram_inv,
                   "wls": (1.0 - delta) * gram_inv + delta * np.eye(m)}
        for mode, w in dense_w.items():
            hessian = a.T @ w @ a + beta * d.T @ d
            estimates = (np.linalg.solve(hessian, a.T @ w) @ y).T  # n_draws x n
            center = estimates.mean(axis=0)
            deviations = estimates - center
            dev_sq = np.einsum("ij,ij->i", deviations, deviations)
            var_hat = float(dev_sq.sum() / (n_draws - 1))
            mean_err = center - x_star
            bias_sq_hat = float(mean_err @ mean_err) - var_hat / n_draws
            err = estimates - x_star
            err_sq = np.einsum("ij,ij->i", err, err)
            root_n = np.sqrt(n_draws)
            z_b = abs(bias_sq_hat - b2[mode]) / (2.0 * (deviations @ mean_err).std(ddof=1) / root_n)
            z_v = abs(var_hat - var[mode]) / (dev_sq.std(ddof=1) / root_n)
            z_mse = abs(err_sq.mean() - (b2[mode] + var[mode])) / (err_sq.std(ddof=1) / root_n)
            worst_z = max(worst_z, z_b, z_v, z_mse)
            if not max(z_b, z_v, z_mse) <= 3.0:
                return CheckResult(
                    "theorem1", False,
                    f"Monte-Carlo disagreement at instance seed {seed} "
                    f"({mode}): z-scores bias {z_b:.2f}, var {z_v:.2f}, "
                    f"mse {z_mse:.2f}",
                )
    return CheckResult(
        "theorem1", True,
        f"orderings {n_instances}/{n_instances}, Monte-Carlo agreement on "
        f"{n_instances} instances x 3 modes "
        f"(worst |z| = {worst_z:.2f}, {n_draws} draws)",
    )


BATTERY_CHECKS = {
    "claim1": claim1_check,
    "claim2": claim2_check,
    "claim3": claim3_check,
    "claim4": claim4_check,
    "theorem1": theorem1_check,
}


def run_verifier_battery(selection=None) -> list[CheckResult]:
    """Run the named checks (all of them by default) with fixed seeds."""
    names = list(BATTERY_CHECKS) if selection is None else list(selection)
    for name in names:
        if name not in BATTERY_CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {sorted(BATTERY_CHECKS)}")
    return [BATTERY_CHECKS[name]() for name in names]
