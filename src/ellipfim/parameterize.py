"""Finite-dimensional parameterizations of (mu, Sigma) and adaptivity checks.

A parameterization carries the interest/nuisance split (interest first),
the maps theta -> mu(theta) and theta -> Sigma(theta), and optionally
analytic derivatives: the m x d Jacobian of mu and the (d, m, m) stack of
derivative matrices Sigma_i = d Sigma / d theta_i.  A central-difference
fallback covers the rest.  The paper's example models are the
``*_example`` builders, each returning (param, theta0); the CLI, the
invariant suite and the demos build them only through these.  The
adaptivity condition decides, for a given generator, whether ignorance of
the density generator costs efficiency on the interest block beyond what
the finite-dimensional nuisance already costs.
``verify_adaptivity_by_fim`` gives two verdicts on it from one model
geometry: the condition residual and the gap between the efficient
interest FIMs, both judged against ``ADAPTIVITY_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg import toeplitz

from . import fim as fim_mod
from .generators import DensityGenerator
from .matcalc import ovecs, unvecs, vecs, vecs_basis, vecs_len
from .scale import ScaleFunctional, decompose, jacobian_w, reconstruct_shape

__all__ = [
    "Parameterization",
    "LowRankModel",
    "ConditionReport",
    "AdaptivityReport",
    "fd_jacobian",
    "identity_parameterization",
    "shape_scale_parameterization",
    "split_parameterization",
    "linear_split_parameterization",
    "low_rank_parameterization",
    "breaking_parameterization",
    "sinusoid_steering",
    "split_example",
    "low_rank_example",
    "shape_scale_example",
    "breaking_example",
    "ADAPTIVITY_TOL",
    "condition_check",
    "verify_adaptivity_by_fim",
]


def fd_jacobian(f: Callable, theta):
    """Central-difference Jacobian with step h = 1e-6 max(1, |theta_i|).

    The derivative along theta_i is ``out[..., i]``, so ``out`` has the
    shape of f(theta) followed by d.
    """
    theta = np.asarray(theta, dtype=float)
    f0 = np.asarray(f(theta), dtype=float)
    out = np.empty(f0.shape + (theta.size,))
    for i in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        out[..., i] = (np.asarray(f(up), dtype=float) - np.asarray(f(dn), dtype=float)) / (2 * h)
    return out


@dataclass
class Parameterization:
    """theta = (gamma, xi) with gamma the leading q interest parameters."""

    q: int
    r: int
    mu_fn: Callable
    sigma_fn: Callable
    jac_mu: Optional[Callable] = None
    jac_sigma: Optional[Callable] = None  # theta -> (d, m, m) stack of Sigma_i
    name: str = "custom"

    @property
    def d(self) -> int:
        return self.q + self.r

    def jacobian_mu(self, theta):
        if self.jac_mu is not None:
            return np.asarray(self.jac_mu(theta), dtype=float)
        return fd_jacobian(self.mu_fn, theta)

    def jacobian_sigma(self, theta):
        """The derivative matrices Sigma_i = d Sigma / d theta_i, shape (d, m, m)."""
        if self.jac_sigma is not None:
            return np.asarray(self.jac_sigma(theta), dtype=float)
        return np.moveaxis(fd_jacobian(self.sigma_fn, theta), -1, 0)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def shape_scale_parameterization(scale: ScaleFunctional, m: int) -> Parameterization:
    """theta = (mu, ovecs V, s): interest (mu, shape), nuisance the scale."""
    nh = vecs_len(m)

    def mu_fn(theta):
        return theta[:m]

    def sigma_fn(theta):
        v = reconstruct_shape(scale, theta[m : m + nh - 1], m)
        return theta[-1] * v

    def jac_mu(theta):
        out = np.zeros((m, m + nh))
        out[:, :m] = np.eye(m)
        return out

    def jac_sig(theta):
        v = reconstruct_shape(scale, theta[m : m + nh - 1], m)
        # column i of the vecs Jacobian is vecs(Sigma_i)
        dsig = unvecs(jacobian_w(scale, v, theta[-1]).T, m)
        return np.concatenate([np.zeros((m, m, m)), dsig])

    return Parameterization(
        q=m + nh - 1,
        r=1,
        mu_fn=mu_fn,
        sigma_fn=sigma_fn,
        jac_mu=jac_mu,
        jac_sigma=jac_sig,
        name=f"shape_scale[{scale.kind}]",
    )


def split_parameterization(
    q,
    r,
    mu_of_gamma,
    sigma_of_xi,
    jac_mu_gamma=None,
    jac_sigma_xi=None,
) -> Parameterization:
    """mu depends only on gamma, Sigma only on xi (no parameters in common)."""

    def mu_fn(theta):
        return mu_of_gamma(theta[:q])

    def sigma_fn(theta):
        return sigma_of_xi(theta[q:])

    jac_mu = None
    jac_sig = None
    if jac_mu_gamma is not None:

        def jac_mu(theta):
            block = np.asarray(jac_mu_gamma(theta[:q]), dtype=float)
            return np.hstack([block, np.zeros((block.shape[0], r))])

    if jac_sigma_xi is not None:

        def jac_sig(theta):
            block = np.asarray(jac_sigma_xi(theta[q:]), dtype=float)
            return np.concatenate([np.zeros((q,) + block.shape[1:]), block])

    return Parameterization(
        q=q, r=r, mu_fn=mu_fn, sigma_fn=sigma_fn, jac_mu=jac_mu,
        jac_sigma=jac_sig, name="split",
    )


def linear_split_parameterization(h, m: int) -> Parameterization:
    """Concrete split model: mu = H gamma, Sigma = unvecs(xi)."""
    h = np.asarray(h, dtype=float)
    q = h.shape[1]
    return split_parameterization(
        q=q,
        r=vecs_len(m),
        mu_of_gamma=lambda g: h @ g,
        sigma_of_xi=lambda xi: unvecs(xi, m),
        jac_mu_gamma=lambda g: h,
        jac_sigma_xi=lambda xi: vecs_basis(m),
    )


def identity_parameterization(m: int) -> Parameterization:
    """theta = (mu, vecs Sigma), everything interest: the split model at H = I."""
    param = linear_split_parameterization(np.eye(m), m)
    return replace(param, q=param.d, r=0, name="identity")


@dataclass
class LowRankModel:
    """Signal-plus-noise scatter Sigma = A(gamma) Xi A(gamma)^T + lambda I."""

    a_fn: Callable  # gamma -> (m, p)
    a_jac: Callable  # gamma -> (m, p, q)
    signal_cov: np.ndarray  # (p, p) SPD
    noise_level: float
    q: int

    def theta0(self, gamma0):
        gamma0 = np.asarray(gamma0, dtype=float)
        return np.concatenate(
            [gamma0, vecs(np.asarray(self.signal_cov, dtype=float)), [self.noise_level]]
        )


def low_rank_parameterization(model: LowRankModel) -> Parameterization:
    """theta = (gamma, vecs Xi, lambda) with analytic Jacobians."""
    q = model.q
    p = np.asarray(model.signal_cov).shape[0]
    npp = vecs_len(p)

    def unpack(theta):
        gamma = theta[:q]
        xi = unvecs(theta[q : q + npp], p)
        lam = theta[-1]
        return gamma, xi, lam

    def mu_fn(theta):
        a = np.asarray(model.a_fn(theta[:q]), dtype=float)
        return np.zeros(a.shape[0])

    def sigma_fn(theta):
        gamma, xi, lam = unpack(theta)
        a = np.asarray(model.a_fn(gamma), dtype=float)
        return a @ xi @ a.T + lam * np.eye(a.shape[0])

    def jac_mu(theta):
        a = np.asarray(model.a_fn(theta[:q]), dtype=float)
        return np.zeros((a.shape[0], q + npp + 1))

    def jac_sig(theta):
        gamma, xi, lam = unpack(theta)
        a = np.asarray(model.a_fn(gamma), dtype=float)
        m = a.shape[0]
        if np.linalg.matrix_rank(a, tol=1e-12 * max(1.0, np.linalg.norm(a))) < a.shape[1]:
            raise fim_mod.IdentifiabilityError("factor matrix A is rank deficient")
        da = np.asarray(model.a_jac(gamma), dtype=float)
        # Sigma_k = A_k Xi A^T + (A_k Xi A^T)^T with A_k = dA / d gamma_k
        half = np.einsum("ipk,pr,jr->kij", da, xi, a)
        return np.concatenate(
            [half + np.swapaxes(half, -1, -2), a @ vecs_basis(p) @ a.T, np.eye(m)[None]]
        )

    return Parameterization(
        q=q,
        r=npp + 1,
        mu_fn=mu_fn,
        sigma_fn=sigma_fn,
        jac_mu=jac_mu,
        jac_sigma=jac_sig,
        name="low_rank",
    )


def breaking_parameterization(sigma0) -> Parameterization:
    """Deliberately non-adaptive model: Sigma(gamma) = gamma Sigma0.

    A bare overall-scale interest parameter with no compensating nuisance;
    its condition residual is m / gamma0 analytically.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    m = sigma0.shape[0]

    return Parameterization(
        q=1,
        r=0,
        mu_fn=lambda th: np.zeros(m),
        sigma_fn=lambda th: th[0] * sigma0,
        jac_mu=lambda th: np.zeros((m, 1)),
        jac_sigma=lambda th: sigma0[None],
        name="breaking",
    )


def sinusoid_steering(m: int):
    """Real steering columns a(gamma)_j = cos(j gamma + 0.3), with Jacobian."""

    def a_fn(gamma):
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        j = np.arange(m)[:, None]
        return np.cos(j * gamma[None, :] + 0.3)

    def a_jac(gamma):
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        p = gamma.size
        j = np.arange(m)[:, None]
        out = np.zeros((m, p, p))
        for k in range(p):
            out[:, k, k] = -j[:, 0] * np.sin(j[:, 0] * gamma[k] + 0.3)
        return out

    return a_fn, a_jac


# ---------------------------------------------------------------------------
# the paper's example models, each as (param, theta0)
# ---------------------------------------------------------------------------


def split_example(rng, m, q, rho):
    """mu = H gamma, Sigma = unvecs(xi) at theta0 = (gamma0, vecs Sigma0),
    Sigma0 the Toeplitz rho^|i-j|.  Draws H (m x q), then gamma0 (q), from
    ``rng``."""
    param = linear_split_parameterization(rng.standard_normal((m, q)), m)
    sigma0 = toeplitz(rho ** np.arange(m))
    return param, np.concatenate([rng.standard_normal(q), vecs(sigma0)])


def low_rank_example(rng, m, gamma0, noise):
    """Sigma = A(gamma) Xi A(gamma)^T + noise I with ``sinusoid_steering(m)``.

    p = gamma0.size sources.  Draws B (p x p) from ``rng`` and sets
    Xi = B B^T + p I; theta0 = (gamma0, vecs Xi, noise).
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    p = gamma0.size
    a_fn, a_jac = sinusoid_steering(m)
    b = rng.standard_normal((p, p))
    model = LowRankModel(
        a_fn=a_fn, a_jac=a_jac, signal_cov=b @ b.T + p * np.eye(p), noise_level=noise, q=p
    )
    return low_rank_parameterization(model), model.theta0(gamma0)


def shape_scale_example(scale: ScaleFunctional, m, rho, s):
    """theta0 = (0, ovecs V, s), with V the shape of the Toeplitz rho^|i-j|."""
    v = decompose(scale, toeplitz(rho ** np.arange(m))).v
    theta0 = np.concatenate([np.zeros(m), ovecs(v), [s]])
    return shape_scale_parameterization(scale, m), theta0


def breaking_example(m, rho, gamma0):
    """Sigma = gamma Sigma0 at Sigma0 = Toeplitz rho^|i-j|, theta0 = [gamma0]."""
    sigma0 = toeplitz(rho ** np.arange(m))
    return breaking_parameterization(sigma0), np.array([gamma0], dtype=float)


# ---------------------------------------------------------------------------
# adaptivity condition
# ---------------------------------------------------------------------------


# the bound on each scaled condition residual and on the relative FIM gap
ADAPTIVITY_TOL = 1e-8


@dataclass
class ConditionReport:
    residual: np.ndarray  # r_i, in the units of 1 / theta_i
    interest_term: np.ndarray
    scaled_residual: np.ndarray  # |r_i| / sqrt(I_theta[i, i]), free of units
    tol: float  # the bound on each scaled_residual entry
    satisfied: bool


@dataclass
class AdaptivityReport:
    fim_interest: np.ndarray
    sfim_interest: np.ndarray
    gap: float
    gap_rel: float
    adaptive: bool
    condition: ConditionReport = field(repr=False)


def _condition_report(full_fim, trace, residual) -> ConditionReport:
    q = residual.shape[0]
    scaled = np.abs(residual) / np.sqrt(np.diag(full_fim)[:q])
    return ConditionReport(
        residual=residual,
        interest_term=trace[:q],
        scaled_residual=scaled,
        tol=ADAPTIVITY_TOL,
        satisfied=bool(np.all(scaled <= ADAPTIVITY_TOL)),
    )


def condition_check(param: Parameterization, theta0, gen: DensityGenerator) -> ConditionReport:
    """Evaluate the adaptivity condition residual at theta0.

    The residual r = t_gamma - I_ge I_e^-1 t_e, with t_i = tr(Sigma^-1
    Sigma_i) = J_i^T[vec Sigma] vec(Sigma^-1), vanishes exactly when the
    semiparametric efficient FIM for gamma equals the parametric one (for
    every non-Gaussian generator; for the Gaussian the FIMs agree
    regardless).  Component r_i has the units of 1 / theta_i, as has
    sqrt(I_theta[i, i]) of the parametric FIM, so the condition holds when
    |r_i| <= ADAPTIVITY_TOL sqrt(I_theta[i, i]) for every i, whatever the
    units of theta.
    """
    geometry = fim_mod.model_geometry(param, theta0)
    full = fim_mod._theta_fim(geometry, gen, semiparametric=False)
    _, residual = fim_mod._project_nuisance(full, param.q, geometry.sigma_trace)
    return _condition_report(full, geometry.sigma_trace, residual)


def verify_adaptivity_by_fim(
    param: Parameterization, theta0, gen: DensityGenerator
) -> AdaptivityReport:
    """Compare the efficient interest FIMs of the parametric and semiparametric models.

    The model is adaptive when the relative gap is below ADAPTIVITY_TOL.
    The geometry and the parametric FIM are built once, and each FIM's
    nuisance block is factored once; the parametric factor also gives the
    condition residual.
    """
    q = param.q
    geometry = fim_mod.model_geometry(param, theta0)
    full = fim_mod._theta_fim(geometry, gen, semiparametric=False)
    sfull = fim_mod._theta_fim(geometry, gen, semiparametric=True)
    eff_par, residual = fim_mod._project_nuisance(full, q, geometry.sigma_trace)
    eff_semi, _ = fim_mod._project_nuisance(sfull, q)
    gap = float(np.linalg.norm(eff_par - eff_semi))
    ref = max(float(np.linalg.norm(eff_semi)), np.finfo(float).tiny)
    gap_rel = gap / ref
    return AdaptivityReport(
        fim_interest=eff_par,
        sfim_interest=eff_semi,
        gap=gap,
        gap_rel=gap_rel,
        adaptive=bool(gap_rel < ADAPTIVITY_TOL),
        condition=_condition_report(full, geometry.sigma_trace, residual),
    )
