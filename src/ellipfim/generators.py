"""Constrained elliptical density generators and their scalar functionals.

Three families are provided: Gaussian, Student-t (dof nu > 2) and
Generalized Gaussian (shape s > 0).  Each is normalized so that the
second-order modular variate Q satisfies E{Q} = m, which makes the
scatter matrix of the sampled distribution its ordinary covariance.  The
family shapes therefore depend on the data dimension m, so every
functional below takes m explicitly.

The functionals alpha = E{Q^2 phibar^2}/(m(m+2)), beta = E{Q phibar^2}/m
and sigma_q2 = E{Q^2} - m^2 use closed forms (derived once per family);
the quadrature path in :func:`expect` exists for verification and for the
invariant suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import linalg
from scipy.special import gammaln

__all__ = [
    "DensityGenerator",
    "gaussian",
    "student_t",
    "generalized_gaussian",
    "MomentUndefinedError",
    "Coefficients",
    "coefficients",
    "expect",
    "sample",
    "sample_stack",
    "modular_variate",
    "psd_sqrt",
]


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class MomentUndefinedError(ValueError):
    """A requested moment does not exist for the generator's parameters."""


@dataclass(frozen=True)
class Coefficients:
    alpha: float
    beta: float
    sigma_q2: float


class DensityGenerator:
    """Base class; subclasses implement one constrained generator family."""

    name = "generator"

    def log_gbar(self, t, m):
        raise NotImplementedError

    def phi_bar(self, t, m):
        """-2 d/dt log gbar(t), evaluated analytically."""
        raise NotImplementedError

    def sample_q(self, n, m, rng):
        """Draw n realizations of the modular variate Q (E{Q} = m)."""
        raise NotImplementedError

    def alpha(self, m):
        raise NotImplementedError

    def beta(self, m):
        raise NotImplementedError

    def sigma_q2(self, m):
        raise NotImplementedError

    def q_pdf(self, q, m):
        """Density of Q: q^(m/2-1) gbar(q) normalized by pi^(m/2)/Gamma(m/2)."""
        q = np.asarray(q, dtype=float)
        out = np.zeros_like(q)
        pos = q > 0
        log_norm = 0.5 * m * math.log(math.pi) - gammaln(0.5 * m)
        out[pos] = np.exp(
            log_norm + (0.5 * m - 1.0) * np.log(q[pos]) + self.log_gbar(q[pos], m)
        )
        return out

    def __repr__(self):
        return self.name


class _Gaussian(DensityGenerator):
    name = "gaussian"

    def log_gbar(self, t, m):
        t = np.asarray(t, dtype=float)
        return -0.5 * m * math.log(2.0 * math.pi) - 0.5 * t

    def phi_bar(self, t, m):
        return np.ones_like(np.asarray(t, dtype=float))

    def sample_q(self, n, m, rng):
        return rng.chisquare(m, size=n)

    def alpha(self, m):
        return 1.0

    def beta(self, m):
        return 1.0

    def sigma_q2(self, m):
        return 2.0 * m


class _StudentT(DensityGenerator):
    def __init__(self, nu):
        if not 2.0 < nu <= sys.float_info.max:  # False for NaN and huge ints
            raise ValueError(f"Student-t requires a finite nu > 2 for E{{Q}} = m (nu={nu})")
        self.nu = float(nu)
        self.name = f"t({nu:g})"

    def log_gbar(self, t, m):
        t = np.asarray(t, dtype=float)
        nu = self.nu
        log_c = (
            gammaln(0.5 * (nu + m))
            - gammaln(0.5 * nu)
            - 0.5 * m * math.log(math.pi * (nu - 2.0))
        )
        return log_c - 0.5 * (nu + m) * np.log1p(t / (nu - 2.0))

    def phi_bar(self, t, m):
        t = np.asarray(t, dtype=float)
        return (self.nu + m) / (self.nu - 2.0 + t)

    def sample_q(self, n, m, rng):
        # Q = (nu-2) chi2_m / chi2_nu, a scaled F variate with E{Q} = m.
        num = rng.chisquare(m, size=n)
        den = rng.chisquare(self.nu, size=n)
        if self.nu < 1e290:  # (nu - 2) num would need a chi2_m draw above 1e18 to overflow
            return (self.nu - 2.0) * num / den
        # near the float max, where (nu - 2) / den ~ 1, reorder the products that overflow
        with np.errstate(over="ignore"):
            q = (self.nu - 2.0) * num / den
        return np.where(np.isinf(q), num * ((self.nu - 2.0) / den), q)

    def alpha(self, m):
        return (m + self.nu) / (m + self.nu + 2.0)

    def beta(self, m):
        # two bounded ratios: the product nu (m + nu) overflows for huge nu
        nu = self.nu
        return (nu / (nu - 2.0)) * ((m + nu) / (m + nu + 2.0))

    def sigma_q2(self, m):
        if self.nu <= 4.0:
            raise MomentUndefinedError(
                f"sigma_q2 requires nu > 4 for the t family (nu={self.nu:g})"
            )
        return (2.0 * m / (self.nu - 4.0)) * (m + self.nu - 2.0)


class _GeneralizedGaussian(DensityGenerator):
    def __init__(self, shape):
        if not 0.0 < shape <= sys.float_info.max:  # False for NaN and huge ints
            raise ValueError(f"Generalized Gaussian requires a finite shape > 0 (shape={shape})")
        self.shape = float(shape)
        self.name = f"gg({shape:g})"

    def _log_c(self, m):
        # Scale fixing E{Q} = m: t^s / b = (t / c)^s with c = b^(1/s) =
        # m Gamma(m/2s) / Gamma((m+2)/2s); b itself overflows from s ~ 400.
        s = self.shape
        return math.log(m) + gammaln(0.5 * m / s) - gammaln(0.5 * (m + 2) / s)

    def log_gbar(self, t, m):
        t = np.asarray(t, dtype=float)
        s = self.shape
        log_c = self._log_c(m)
        log_a = (
            math.log(s)
            + gammaln(0.5 * m)
            - 0.5 * m * math.log(math.pi)
            - 0.5 * m * log_c
            - gammaln(0.5 * m / s)
        )
        return log_a - np.power(t / math.exp(log_c), s)

    def phi_bar(self, t, m):
        # 2 s t^(s-1) / b
        t = np.asarray(t, dtype=float)
        s = self.shape
        c = math.exp(self._log_c(m))
        return (2.0 * s / c) * np.power(t / c, s - 1.0)

    def sample_q(self, n, m, rng):
        # Q = c G^(1/s) with G ~ Gamma(a), a = m/2s.  G is drawn as
        # Gamma(a + 1) U^(1/a), equal in law, so Q = c Gamma(a + 1)^(1/s)
        # U^(2/m): a direct Gamma(a) draw underflows to 0 at large s
        a = 0.5 * m / self.shape
        g = np.power(rng.gamma(a + 1.0, size=n), 1.0 / self.shape)
        return math.exp(self._log_c(m)) * g * np.power(rng.random(n), 2.0 / m)

    def alpha(self, m):
        # (m + 2 s) / (m + 2) halved above and below: the same double, but
        # no intermediate 2 s to overflow for a shape near the float maximum
        return (0.5 * m + self.shape) / (0.5 * m + 1.0)

    def beta(self, m):
        s = self.shape
        # log(4 s^2) as log 4 + 2 log s: 4 s^2 overflows from s ~ 1e154
        log_val = (
            math.log(4.0) + 2.0 * math.log(s) - 2.0 * math.log(m)
            + gammaln(0.5 * (m + 2) / s)
            + gammaln(0.5 * (m - 2) / s + 2.0)
            - 2.0 * gammaln(0.5 * m / s)
        )
        return math.exp(self._below_float_max("beta", m, log_val))

    def sigma_q2(self, m):
        s = self.shape
        log_ratio = (
            gammaln(0.5 * (m + 4) / s)
            + gammaln(0.5 * m / s)
            - 2.0 * gammaln(0.5 * (m + 2) / s)
        )
        self._below_float_max("sigma_q2", m, 2.0 * math.log(m) + log_ratio)
        return m * m * (math.exp(log_ratio) - 1.0)

    def _below_float_max(self, functional, m, log_val):
        """log_val, or a ValueError when exp(log_val) is beyond the float range."""
        if not log_val < _LOG_FLOAT_MAX:  # also True for NaN
            raise ValueError(
                f"{functional} of {self.name} at m={m} exceeds the float range "
                f"(log value {log_val:.6g})"
            )
        return log_val


def gaussian() -> DensityGenerator:
    return _Gaussian()


def student_t(nu) -> DensityGenerator:
    return _StudentT(nu)


def generalized_gaussian(shape) -> DensityGenerator:
    return _GeneralizedGaussian(shape)


def coefficients(gen: DensityGenerator, m: int) -> Coefficients:
    """The (alpha, beta, sigma_q2) functionals of the generator at dimension m."""
    return Coefficients(gen.alpha(m), gen.beta(m), gen.sigma_q2(m))


def expect(gen: DensityGenerator, m: int, f: Callable) -> float:
    """E{f(Q)} by adaptive quadrature against the Q density.

    Integrates dyadic pieces [0, T0], [T0, 2 T0], ... (Gauss-Kronrod on
    each), doubling the endpoint until two consecutive pieces contribute
    below 1e-12 relative to the accumulated value.  Handles the slowly
    decaying tails of low-dof t generators without a fixed cutoff.
    """

    from scipy import integrate  # here, so that importing the package does not load it

    def integrand(q):
        return f(q) * gen.q_pdf(q, m)

    t0 = 8.0 * m
    acc, _ = integrate.quad(integrand, 0.0, t0, limit=200)
    lo, hi = t0, 2.0 * t0
    small_pieces = 0
    while small_pieces < 2 and hi < 1e30:
        piece, _ = integrate.quad(integrand, lo, hi, limit=200)
        acc += piece
        if abs(piece) < 1e-12 * max(1.0, abs(acc)):
            small_pieces += 1
        else:
            small_pieces = 0
        lo, hi = hi, 2.0 * hi
    return acc


def psd_sqrt(sigma):
    """Symmetric positive-definite square root via eigendecomposition."""
    sigma = np.asarray(sigma, dtype=float)
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if w[0] <= 0.0:
        raise linalg.LinAlgError("matrix is not positive definite")
    return (v * np.sqrt(w)) @ v.T


def sample_stack(n, mu, sigma, gens, seeds):
    """Draw one dataset of n iid vectors per seed into a (T, n, m) stack.

    Dataset t is ``sample(n, mu, sigma, gens[t], seeds[t])``: it keeps its
    own RNG stream, and Sigma^(1/2) is computed once for the whole stack.
    """
    mu = np.asarray(mu, dtype=float)
    m = mu.shape[0]
    root = psd_sqrt(sigma)
    q = np.empty((len(seeds), n))
    z = np.empty((len(seeds), n, m))
    for t, (gen, seed) in enumerate(zip(gens, seeds, strict=True)):
        rng = np.random.default_rng(seed)
        q[t] = gen.sample_q(n, m, rng)
        z[t] = rng.standard_normal((n, m))
    u = z / np.linalg.norm(z, axis=-1, keepdims=True)
    return mu + np.sqrt(q)[..., None] * (u @ root)


def sample(n, mu, sigma, gen: DensityGenerator, seed):
    """Draw n iid vectors via x = mu + sqrt(Q) Sigma^(1/2) u.

    u is uniform on the unit sphere (normalized Gaussian), Q is drawn per
    family so that E{Q} = m exactly.  Deterministic given the seed.
    """
    return sample_stack(n, mu, sigma, [gen], [seed])[0]


def modular_variate(x, mu, sigma):
    """Quadratic form (x - mu)^T Sigma^(-1) (x - mu); vectorized over rows."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    d = x - mu
    cho = linalg.cho_factor(np.asarray(sigma, dtype=float), lower=True)
    if d.ndim == 1:
        return float(d @ linalg.cho_solve(cho, d))
    return np.einsum("ij,ij->i", d, linalg.cho_solve(cho, d.T).T)
