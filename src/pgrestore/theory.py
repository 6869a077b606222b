"""Closed-form Tikhonov analysis and numerical verification of the
mathematical properties the guidance design rests on.

Small dense problems with a quadratic prior admit exact estimators and
exact bias/variance decompositions in the shared eigenbasis of A^T A and
D^T D, which each ``TikhonovProblem`` finds once, at construction. This
module evaluates those spectral formulas, cross-checks them with
Monte-Carlo draws through the estimator itself, and packages the
individual properties (gradient zero-set equivalence, preconditioner
factorization, single-step descent, Hessian conditioning, and the
bias/variance orderings) as a battery the CLI ``verify`` subcommand and
the test suite both run. The Tikhonov problems fix Theorem 1's setting,
eta = 0 and LS scale c = 1; only claims 1, 3 and 4 vary eta or c.
Each claim check draws its own inputs so that the claim's assumptions
hold by construction: claim 2's W commutes with A A^T and is positive
definite, and claim 4's singular values are sorted and spread, with
delta and c inside their ranges. A NaN result fails the check.

All computations are pure; Monte-Carlo draws use isolated seeded
generators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .guidance import g_delta, guide
from .linops import DenseOperator, _check_finite, _check_setting

__all__ = [
    "TikhonovProblem",
    "random_conforming_problem",
    "data_weight_matrix",
    "tikhonov_estimate",
    "bias_variance_closed_form",
    "MCBiasVariance",
    "mc_bias_variance",
    "TheoremReport",
    "verify_theorem1",
    "CheckResult",
    "claim1_check",
    "claim2_check",
    "claim3_check",
    "claim4_check",
    "theorem1_check",
    "run_verifier_battery",
    "BATTERY_CHECKS",
]

_MODES = ("ls", "bp", "wls")
_MC_DRAWS = 20000
_EIGENBASIS_TOL = 1e-8
# The delta values at which claim 3 takes its guided step, BP to LS.
_CLAIM3_DELTAS = (0.0, 0.25, 0.5, 0.75, 1.0)
# A check's instance i uses seed _SEEDS[check] + i, so `pgrestore verify` is reproducible.
_SEEDS = {"claim1": 1100, "claim2": 1200, "claim3": 1300, "claim4": 1400, "theorem1": 200000}


@dataclass(frozen=True)
class TikhonovProblem:
    """A small dense estimation instance with quadratic prior.

    The estimator minimizes 0.5 ||W^(1/2)(A x - y)||^2 +
    (beta_prior / 2) ||D x||^2, with W chosen per data-fidelity mode.
    The theorem setting is fixed: the BP/WLS weights use the plain Gram
    inverse (A A^T)^-1 (eta = 0) and the LS scale is c = 1; ``delta``
    parameterizes the WLS weight. ``beta_prior`` is the prior weight,
    unrelated to the diffusion schedule's beta.

    Construction takes A's SVD once, rotates each group of (numerically)
    equal singular values to diagonalize D^T D there, and stores D^T D's
    eigenvalue on each of the m right singular vectors (the null-space
    modes need none) for the closed forms. It raises ValueError if D^T D
    is not diagonal on those vectors.
    """

    a_matrix: np.ndarray
    d_matrix: np.ndarray
    beta_prior: float
    sigma_e: float
    x_star: np.ndarray
    delta: float
    # (singular values lambda, paired gamma^2, the m right singular vectors V)
    _decomposition: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        d = np.asarray(self.d_matrix, dtype=float)
        x = np.asarray(self.x_star, dtype=float)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "d_matrix", d)
        object.__setattr__(self, "x_star", x)
        if a.ndim != 2 or a.shape[0] > a.shape[1]:
            raise ValueError("A must be m x n with m <= n")
        m, n = a.shape
        if d.shape != (n, n):
            raise ValueError(f"D must be {n} x {n}, got {d.shape}")
        if x.shape != (n,):
            raise ValueError(f"x_star must have shape ({n},), got {x.shape}")
        for name, arr in (("a_matrix", a), ("d_matrix", d), ("x_star", x)):
            _check_finite(name, arr)
        _check_setting("beta_prior", self.beta_prior, "(0, inf)")
        _check_setting("sigma_e", self.sigma_e)
        _check_setting("delta", self.delta, "[0, 1]")
        dtd = d.T @ d
        if np.linalg.eigvalsh(dtd).min() <= 1e-12:
            raise ValueError("D^T D must be positive definite")
        _, lam, vt = np.linalg.svd(a)
        v = vt[:m].T.copy()
        start = 0
        while start < m:
            stop = start + 1
            while stop < m and abs(lam[stop] - lam[start]) <= 1e-9 * max(1.0, lam[start]):
                stop += 1
            if stop - start > 1:
                block = v[:, start:stop].T @ dtd @ v[:, start:stop]
                _, rotation = np.linalg.eigh(block)
                v[:, start:stop] = v[:, start:stop] @ rotation
            start = stop
        gamma2 = np.einsum("ji,jk,ki->i", v, dtd, v)
        leak = dtd @ v - v * gamma2
        if np.linalg.norm(leak) > _EIGENBASIS_TOL * max(np.linalg.norm(dtd), 1e-30):
            raise ValueError("A^T A and D^T D do not share an eigenbasis: "
                             "D^T D is not diagonal on A's right singular vectors")
        object.__setattr__(self, "_decomposition", (lam, gamma2, v))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a_matrix.shape


def random_conforming_problem(rng: np.random.Generator) -> TikhonovProblem:
    """Draw an instance satisfying the theorem assumptions by construction.

    A is m x n with m uniform in [3, 8] and n in [m, 12]: A = U
    diag(lambda) V^T with random orthogonal factors and singular values
    uniform in [0.1, 1] (resampled until they spread by at least 0.05);
    D = V diag(gamma) V^T with gamma uniform in [0.5, 2], so D^T D shares
    A's right eigenbasis and is positive definite.
    """
    m = int(rng.integers(3, 9))
    n = int(rng.integers(m, 13))
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.1, 1.0, size=m)
    while m > 1 and lam.max() - lam.min() < 0.05:
        lam = rng.uniform(0.1, 1.0, size=m)
    a = u @ np.diag(lam) @ v[:, :m].T
    gamma = rng.uniform(0.5, 2.0, size=n)
    d = v @ np.diag(gamma) @ v.T
    return TikhonovProblem(
        a_matrix=a,
        d_matrix=d,
        beta_prior=float(rng.uniform(0.1, 1.0)),
        sigma_e=float(rng.uniform(0.02, 0.3)),
        x_star=rng.standard_normal(n),
        delta=float(rng.uniform(0.1, 0.9)),
    )


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def data_weight_matrix(p: TikhonovProblem, mode: str) -> np.ndarray:
    """The data-term weight W: I (ls), Gram inverse (bp), or their delta
    convex combination (wls), with eta = 0 and LS scale c = 1."""
    _check_mode(mode)
    m = p.shape[0]
    if mode == "ls":
        return np.eye(m)
    gram_inv = np.linalg.inv(p.a_matrix @ p.a_matrix.T)
    if mode == "bp":
        return gram_inv
    return (1.0 - p.delta) * gram_inv + p.delta * np.eye(m)


def tikhonov_estimate(p: TikhonovProblem, mode: str, y: np.ndarray) -> np.ndarray:
    """Exact minimizer (A^T W A + beta D^T D)^-1 A^T W y.

    ``y`` may hold one measurement per column: the estimator matrix is
    formed once, so a batch of draws costs one matmul.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] != p.shape[0]:
        raise ValueError(f"y must have {p.shape[0]} rows, got shape {y.shape}")
    w = data_weight_matrix(p, mode)
    hessian = p.a_matrix.T @ w @ p.a_matrix + p.beta_prior * p.d_matrix.T @ p.d_matrix
    return np.linalg.solve(hessian, p.a_matrix.T @ w) @ y


def _mode_weights(mode: str, lam: np.ndarray, delta: float) -> np.ndarray:
    """Eigenvalues s_i of W on A's left singular basis."""
    if mode == "ls":
        return np.ones_like(lam)
    if mode == "bp":
        return 1.0 / lam**2
    return (1.0 - delta) / lam**2 + delta


def bias_variance_closed_form(p: TikhonovProblem, mode: str) -> tuple[float, float]:
    """Exact squared bias and variance of the mode's estimator.

    Spectral sums in the shared eigenbasis: with s_i the weight
    eigenvalues and coordinates z = V^T x*,

        b^2 = sum_i (beta g_i^2 / (l_i^2 s_i + beta g_i^2))^2 z_i^2
              + ||null-space part of x*||^2
        v   = sigma_e^2 sum_i l_i^2 s_i^2 / (l_i^2 s_i + beta g_i^2)^2

    The null-space bias term counts the energy of x* that no data term
    can see.
    """
    _check_mode(mode)
    lam, gamma2, v = p._decomposition
    s = _mode_weights(mode, lam, p.delta)
    coeffs = p.beta_prior * gamma2 / (lam**2 * s + p.beta_prior * gamma2)
    z_range = v.T @ p.x_star
    null_energy = float(p.x_star @ p.x_star - z_range @ z_range)
    bias_sq = float(np.sum(coeffs**2 * z_range**2)) + max(null_energy, 0.0)
    var = float(
        p.sigma_e**2
        * np.sum(lam**2 * s**2 / (lam**2 * s + p.beta_prior * gamma2) ** 2)
    )
    return bias_sq, var


@dataclass(frozen=True)
class MCBiasVariance:
    """Monte-Carlo bias/variance estimates with delta-method standard errors."""

    bias_sq: float
    var: float
    mse: float
    se_bias_sq: float
    se_var: float
    se_mse: float


def mc_bias_variance(p: TikhonovProblem, mode: str, seed: int) -> MCBiasVariance:
    """Estimate bias^2 and variance by running the estimator on noisy draws.

    Independent of the closed-form path: estimates come from one batched
    ``tikhonov_estimate`` call on 20000 draws y = A x* + e. The bias^2
    estimate subtracts the v/N inflation of the sample-mean distance,
    and standard errors come from per-draw statistics (delta method for
    the bias term), floored at a small relative value so exact matches
    with sigma_e = 0 remain comparable.
    """
    _check_setting("seed", seed, "{0, 1, ...}")
    rng = np.random.default_rng(seed)
    y_clean = p.a_matrix @ p.x_star
    noise = p.sigma_e * rng.standard_normal((_MC_DRAWS, p.shape[0]))
    estimates = tikhonov_estimate(p, mode, (y_clean + noise).T).T  # _MC_DRAWS x n
    center = estimates.mean(axis=0)
    deviations = estimates - center
    dev_sq = np.einsum("ij,ij->i", deviations, deviations)
    var_hat = float(dev_sq.sum() / (_MC_DRAWS - 1))
    se_var = float(dev_sq.std(ddof=1) / np.sqrt(_MC_DRAWS))
    mean_err = center - p.x_star
    bias_sq_hat = float(mean_err @ mean_err) - var_hat / _MC_DRAWS
    q = deviations @ mean_err
    se_bias = float(2.0 * q.std(ddof=1) / np.sqrt(_MC_DRAWS))
    err = estimates - p.x_star
    err_sq = np.einsum("ij,ij->i", err, err)
    mse_hat = float(err_sq.mean())
    se_mse = float(err_sq.std(ddof=1) / np.sqrt(_MC_DRAWS))
    floor = 1e-9
    return MCBiasVariance(
        bias_sq=bias_sq_hat,
        var=var_hat,
        mse=mse_hat,
        se_bias_sq=max(se_bias, floor * (1.0 + abs(bias_sq_hat))),
        se_var=max(se_var, floor * (1.0 + abs(var_hat))),
        se_mse=max(se_mse, floor * (1.0 + abs(mse_hat))),
    )


@dataclass(frozen=True)
class TheoremReport:
    """Each mode's closed-form squared bias and variance, and the two strict orderings."""

    bias_sq: dict[str, float]
    var: dict[str, float]
    bias_ordering: bool
    var_ordering: bool

    @property
    def passed(self) -> bool:
        return self.bias_ordering and self.var_ordering


def verify_theorem1(p: TikhonovProblem) -> TheoremReport:
    """Evaluate the bias/variance orderings b_BP < b_WLS < b_LS and
    v_LS < v_WLS < v_BP on a conforming instance.

    Assumption (c), eta = 0 and c = 1, holds for every ``TikhonovProblem``.
    Raises ValueError naming the violated assumption when the instance
    does not satisfy the others: (a) shared eigenbasis with D^T D positive
    definite (checked at construction, where A's SVD is taken), (b)
    singular values in (0, 1] and not all equal; delta must lie strictly
    inside (0, 1).
    """
    lam = p._decomposition[0]
    if np.any(lam <= 0) or np.any(lam > 1.0 + 1e-12):
        raise ValueError("assumption (b) violated: singular values must lie in (0, 1]")
    if lam.max() - lam.min() < 1e-12:
        raise ValueError("assumption (b) violated: singular values must not all be equal")
    _check_setting("delta", p.delta, "(0, 1)")
    b2, v = {}, {}
    for mode in _MODES:
        b2[mode], v[mode] = bias_variance_closed_form(p, mode)
    return TheoremReport(
        bias_sq=b2,
        var=v,
        bias_ordering=b2["bp"] < b2["wls"] < b2["ls"],
        var_ordering=v["ls"] < v["wls"] < v["bp"],
    )


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
    """Strict orderings on each of 100 conforming instances, plus Monte-Carlo
    agreement of the closed forms within 3 standard errors (20000 draws)."""
    n_instances, worst_z = 100, 0.0
    start = time.perf_counter()
    for i in range(n_instances):
        seed = _SEEDS["theorem1"] + i
        p = random_conforming_problem(np.random.default_rng(seed))
        report = verify_theorem1(p)
        if not report.passed:
            return CheckResult(
                "theorem1", False,
                f"ordering violated at instance seed {seed}: {report}",
            )
        for mode in _MODES:
            closed_b2, closed_v = report.bias_sq[mode], report.var[mode]
            mc = mc_bias_variance(p, mode, seed=seed + 7919)
            z_b = abs(mc.bias_sq - closed_b2) / mc.se_bias_sq
            z_v = abs(mc.var - closed_v) / mc.se_var
            z_mse = abs(mc.mse - (closed_b2 + closed_v)) / mc.se_mse
            worst_z = max(worst_z, z_b, z_v, z_mse)
            if max(z_b, z_v, z_mse) > 3.0:
                return CheckResult(
                    "theorem1", False,
                    f"Monte-Carlo disagreement at instance seed {seed} "
                    f"({mode}): z-scores bias {z_b:.2f}, var {z_v:.2f}, "
                    f"mse {z_mse:.2f}",
                )
    elapsed = time.perf_counter() - start
    return CheckResult(
        "theorem1", True,
        f"orderings {n_instances}/{n_instances}, Monte-Carlo agreement on "
        f"{n_instances} instances x 3 modes "
        f"(worst |z| = {worst_z:.2f}, {_MC_DRAWS} draws, {elapsed:.1f}s)",
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
