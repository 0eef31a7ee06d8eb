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
``verify_adaptivity_by_fim`` gives two verdicts on it from one geometry,
FIM and factorization: the condition residual r and the gap kappa r r^T
between the efficient interest FIMs, both judged against ADAPTIVITY_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg import toeplitz

from . import fim as fim_mod
from .generators import DensityGenerator
from .matcalc import _fill_vecs_basis, ovecs, unvecs, vecs, vecs_basis, vecs_len
from .scale import ScaleFunctional, _shape_scale_derivatives, decompose, reconstruct_shape

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
        out = np.empty((m + nh, m, m))
        out[:m] = 0.0
        _shape_scale_derivatives(scale, v, theta[-1], out[m:])
        return out

    return Parameterization(
        q=m + nh - 1,
        r=1,
        mu_fn=mu_fn,
        sigma_fn=sigma_fn,
        jac_mu=jac_mu,
        jac_sigma=jac_sig,
        name=f"shape_scale[{scale.kind}]",
    )


def split_parameterization(q, r, mu_of_gamma, sigma_of_xi, jac_mu_gamma=None) -> Parameterization:
    """mu depends only on gamma, Sigma only on xi (no parameters in common).

    The Sigma_i come from central differences; a builder with analytic
    ones sets ``jac_sigma`` on the result, as the linear split model does.
    """

    def mu_fn(theta):
        return mu_of_gamma(theta[:q])

    def sigma_fn(theta):
        return sigma_of_xi(theta[q:])

    jac_mu = None
    if jac_mu_gamma is not None:

        def jac_mu(theta):
            block = np.asarray(jac_mu_gamma(theta[:q]), dtype=float)
            return np.hstack([block, np.zeros((block.shape[0], r))])

    return Parameterization(
        q=q, r=r, mu_fn=mu_fn, sigma_fn=sigma_fn, jac_mu=jac_mu, name="split"
    )


def linear_split_parameterization(h, m: int) -> Parameterization:
    """Concrete split model: mu = H gamma, Sigma = unvecs(xi).

    The Sigma_i are zero for gamma and the ``vecs_basis(m)`` for xi,
    written straight into the one (q + m(m+1)/2, m, m) stack.
    """
    h = np.asarray(h, dtype=float)
    q = h.shape[1]
    r = vecs_len(m)

    def jac_sig(theta):
        out = np.zeros((q + r, m, m))
        _fill_vecs_basis(out[q:])
        return out

    param = split_parameterization(
        q=q,
        r=r,
        mu_of_gamma=lambda g: h @ g,
        sigma_of_xi=lambda xi: unvecs(xi, m),
        jac_mu_gamma=lambda g: h,
    )
    return replace(param, jac_sigma=jac_sig)


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


def _low_rank_model(q, a_fn, a_jac, basis, embed, name) -> Parameterization:
    """Sigma(theta) = E(A Xi A^H + lambda I), Xi = sum_k xi_k B_k, theta = (gamma, xi, lambda).

    A = a_fn(gamma) is m x p with the (m, p, q) Jacobian a_jac(gamma); basis
    is the (K, p, p) stack of B_k, ``vecs_basis(p)`` for a real Xi and
    ``hermitian_basis(p)`` for a Hermitian one; embed is the linear map E,
    applied to a matrix or a stack of them.  The location is zero.
    """
    d = q + len(basis) + 1

    def factor_and_xi(theta):
        return np.asarray(a_fn(theta[:q])), np.tensordot(theta[q:-1], basis, axes=1)

    def sigma_fn(theta):
        a, xi = factor_and_xi(theta)
        return embed(a @ xi @ a.conj().T + theta[-1] * np.eye(len(a)))

    def jac_sig(theta):
        a, xi = factor_and_xi(theta)
        if np.linalg.matrix_rank(a, tol=1e-12 * max(1.0, np.linalg.norm(a))) < a.shape[1]:
            raise fim_mod.IdentifiabilityError("factor matrix A is rank deficient")
        # Sigma_k = E(A_k Xi A^H + (A_k Xi A^H)^H) with A_k = dA / d gamma_k
        half = np.einsum("ipk,pr,jr->kij", np.asarray(a_jac(theta[:q])), xi, a.conj())
        out = np.empty((d, len(a), len(a)), dtype=np.result_type(half, a, basis))
        np.add(half, np.swapaxes(half, -1, -2).conj(), out=out[:q])
        np.matmul(a @ basis, a.conj().T, out=out[q:-1])
        out[-1] = np.eye(len(a))
        return embed(out)

    return Parameterization(
        q=q, r=d - q, mu_fn=lambda th: np.zeros(len(sigma_fn(th))), sigma_fn=sigma_fn,
        jac_mu=lambda th: np.zeros((len(sigma_fn(th)), d)), jac_sigma=jac_sig, name=name,
    )


def low_rank_parameterization(model: LowRankModel) -> Parameterization:
    """theta = (gamma, vecs Xi, lambda) with analytic Jacobians."""
    basis = vecs_basis(len(model.signal_cov))
    return _low_rank_model(model.q, model.a_fn, model.a_jac, basis, lambda c: c, "low_rank")


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


def _parametric_projection(param, theta0, gen, semiparametric: bool):
    """The parametric efficient interest FIM, s_e = t_e^T I_e^-1 t_e, delta
    (if ``semiparametric``, read before the nuisance block is factored) and
    the condition report, from one geometry, FIM of theta and projection."""
    geometry = fim_mod.model_geometry(param, theta0)
    m, trace = geometry.m, geometry.sigma_trace
    full = fim_mod._theta_fim(geometry, gen, semiparametric=False)
    del geometry
    delta = None
    if semiparametric:
        c_semi, c_par = (fim_mod._trace_coef(gen, m, kind) for kind in (True, False))
        delta = 0.5 * gen.alpha(m) * (c_semi - c_par)
    eff, residual, s_e = fim_mod._project_nuisance(full, param.q, trace)
    return eff, s_e, delta, _condition_report(full, trace, residual)


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
    return _parametric_projection(param, theta0, gen, semiparametric=False)[3]


def verify_adaptivity_by_fim(
    param: Parameterization, theta0, gen: DensityGenerator
) -> AdaptivityReport:
    """Compare the efficient interest FIMs of the parametric and semiparametric models.

    The model is adaptive when the relative gap is below ADAPTIVITY_TOL.
    The SFIM is F + delta t t^T, F the FIM and delta = alpha / 2 (c_semi -
    c_par) = 1 / sigma_q^2 - alpha / (2m) - (alpha - 1) / 4.  With S the
    Schur complement of F and s_e = t_e^T I_e^-1 t_e, the SFIM's is
    S + kappa r r^T, kappa = delta / (1 + delta s_e): at y = -I_e^-1 I_eg x
    + z the form of F + delta t t^T is x^T S x + z^T I_e z + delta (r^T x
    + t_e^T z)^2, with minimum x^T S x + kappa (r^T x)^2 over z.  Where
    1 + delta s_e <= 0 the SFIM's nuisance block is not positive definite.
    """
    eff_par, s_e, delta, condition = _parametric_projection(param, theta0, gen, True)
    if not 1.0 + delta * s_e > 0.0:
        raise fim_mod.IdentifiabilityError("singular nuisance information block")
    # kappa r r^T as root root^T: symmetric to the bit, with no r_i r_j to overflow
    root = np.sqrt(abs(delta / (1.0 + delta * s_e))) * condition.residual
    eff_semi = np.outer(root, root)
    (np.add if delta > 0.0 else np.subtract)(eff_par, eff_semi, out=eff_semi)
    if not np.isfinite(eff_semi).all():
        raise ValueError(f"the FIM of theta under {gen.name} is not finite")
    # both norms in units of 2**e, the largest entry rounded up to a power of
    # two (root_i^2 is a difference of two diagonal entries): nothing overflows
    _, e = np.frexp(max(eff_par.max(), -eff_par.min(), eff_semi.max(), -eff_semi.min()))
    ref = max(float(np.linalg.norm(np.ldexp(eff_semi, -e))), np.finfo(float).tiny)
    gap = float(np.sum((root * 2.0 ** (-e / 2)) ** 2))
    return AdaptivityReport(
        fim_interest=eff_par,
        sfim_interest=eff_semi,
        gap=float(np.ldexp(gap, e)),
        gap_rel=gap / ref,
        adaptive=bool(gap / ref < ADAPTIVITY_TOL),
        condition=condition,
    )
