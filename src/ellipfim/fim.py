"""Score vectors and Fisher information for elliptical models.

Covers the (mu, shape, scale) parameterization, the general scatter
parameterization vecs(Sigma), and finite-dimensional parameterizations
theta -> (mu(theta), Sigma(theta)) with an interest/nuisance split; for
those, one private whitened solve projects the nuisance out of either
FIM of theta (the Schur complement, and the adaptivity residual).  The
semiparametric quantities (efficient scores and FIMs after projecting
out the density generator) are the closed forms; their Monte-Carlo and
Schur-complement counterparts live in the test suite and the invariant
runner.

All four scores are built from one per-sample core, W = Sigma^-1 (x - mu),
Q = (x - mu)^T W and phibar(Q), with Sigma^-1 from the same Cholesky
factor.  Each accepts a single observation (m,) or a batch (n, m) and
returns the matching shape.  At x = mu (Q = 0) phibar is taken as 0: the
location score is zero and every phibar term drops out.

Memory.  Each FIM of the shape or of vecs(Sigma) is one d x d array
(d = m(m+1)/2 or one less), filled a cache-sized row block at a time by
:func:`~ellipfim.matcalc._vecs_fill`, as are the bounds and the stacked
(T, d, d) R-step Gram, so each builder holds one d x d array, symmetric
to the bit, at its peak.  A parameterized model's FIMs (d the number of
coordinates) need the (d, m, m) Jacobian stack, about two d x d arrays
at the paper's sizes (d is about m^2 / 2): ``model_geometry`` whitens it
once, into d x (m + m(m+1)/2) rows (one d x d array's worth), and drops
it; identifiability is decided on those rows, with one scaled copy and
its one LAPACK copy, so at most three d x d arrays' worth are alive, as
in ``verify_adaptivity_by_fim`` after it.  Only the derivative stack of
the current parameterization is built: no structural matrix of size
m^2 x m(m+1)/2 is built or cached on this path.  Each FIM of theta and
each Schur complement of one is symmetric to the bit as built (the Grams
and W^T W are syrk products).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .generators import DensityGenerator
from .matcalc import (
    _dup_gram,
    _dup_t_vec,
    _row_slices,
    _tril_indices_colmajor,
    _vecs_fill,
    vecs_len,
)
from .scale import ScaleFunctional, grad_v11

__all__ = [
    "FimBlocksEta",
    "IdentifiabilityError",
    "score_eta",
    "score_vecs_sigma",
    "fim_eta",
    "efficient_fim_shape",
    "fim_vecs_sigma",
    "ModelGeometry",
    "model_geometry",
    "score_theta",
    "efficient_score_theta",
    "fim_theta",
    "sfim_theta",
    "efficient_fim_interest",
]


class IdentifiabilityError(ValueError):
    """Parameterization Jacobians are rank deficient at the evaluation point."""


def _sample_parts(x, mu, sigma, gen: DensityGenerator):
    """Per-sample W = Sigma^-1 (x - mu), Q and phibar(Q) (0 at Q = 0), and
    the Cholesky factor of Sigma they come from."""
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    d = np.atleast_2d(x) - np.asarray(mu, dtype=float)
    cho = linalg.cho_factor(sigma, lower=True)
    w = linalg.cho_solve(cho, d.T).T
    q = np.einsum("ij,ij->i", d, w)
    phi = np.zeros_like(q)
    pos = q > 0
    phi[pos] = gen.phi_bar(q[pos], m)
    return w, q, phi, cho, x.ndim == 1


def _vecs_score(w, phi, cho):
    """1/2 D_m^T vec(E_l) with E_l = phibar(Q_l) W_l W_l^T - Sigma^-1;
    Sigma^-1 from ``cho``, the Cholesky factor of Sigma."""
    sigma_inv = linalg.cho_solve(cho, np.eye(w.shape[1]))
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    outer = phi[:, None, None] * np.einsum("li,lj->lij", w, w) - sigma_inv
    return 0.5 * _dup_t_vec(outer)


def score_eta(x, mu, v, s, scale: ScaleFunctional, gen: DensityGenerator):
    """Score of (mu, ovecs V, s), concatenated; length m + m(m+1)/2."""
    m = np.asarray(mu).shape[0]
    w, q, phi, cho, single = _sample_parts(x, mu, s * np.asarray(v, dtype=float), gen)
    # d vecs(Sigma) / d ovecs(V) = s K_V, and M_S vec(E_l) = K_V^T D_m^T vec(E_l)
    s_shape = s * _tangent_vec(_vecs_score(w, phi, cho), grad_v11(scale, v))
    s_scale = (q * phi - m)[:, None] / (2.0 * s)
    out = np.concatenate([phi[:, None] * w, s_shape, s_scale], axis=1)
    return out[0] if single else out


def score_vecs_sigma(x, mu, sigma, gen: DensityGenerator):
    """Score of vecs(Sigma) in the scatter parameterization."""
    w, _, phi, cho, single = _sample_parts(x, mu, sigma, gen)
    out = _vecs_score(w, phi, cho)
    return out[0] if single else out


@dataclass(frozen=True)
class FimBlocksEta:
    """FIM blocks of (mu, ovecs V, s); the mu cross blocks are exactly zero."""

    i_mu: np.ndarray
    i_v: np.ndarray
    i_s: float
    i_vs: np.ndarray

    def full(self):
        m = self.i_mu.shape[0]
        k = self.i_v.shape[0]
        out = np.zeros((m + k + 1, m + k + 1))
        out[:m, :m] = self.i_mu
        out[m : m + k, m : m + k] = self.i_v
        out[m : m + k, -1] = self.i_vs
        out[-1, m : m + k] = self.i_vs
        out[-1, -1] = self.i_s
        return out


def _tangent_vec(y, k):
    """K_V^T y over the last axis, with K_V = [k^T; I]."""
    return y[..., 1:] + y[..., :1] * k


def _scale_coef(alpha: float, m: int) -> float:
    """(m + 2) alpha - m, formed so as not to cancel as alpha nears m / (m + 2)."""
    return m * (alpha - 1.0) + 2.0 * alpha


def fim_eta(v, s, scale: ScaleFunctional, gen: DensityGenerator) -> FimBlocksEta:
    """Analytic FIM blocks for (mu, ovecs V, s).

    The shape block is the one m(m+1)/2 - 1 square array built, filled
    row block by row block (:func:`~ellipfim.matcalc._vecs_fill`).
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    alpha = gen.alpha(m)
    beta = gen.beta(m)
    v_inv = np.linalg.inv(v)
    k = grad_v11(scale, v)
    scale_coef = _scale_coef(alpha, m)
    # M_S = K_V^T D_m^T turns D_m^T-weighted vecs quantities into ovecs ones
    i_mu = beta * v_inv / s
    i_v = _vecs_fill(v_inv, 2.0 * alpha, alpha - 1.0, start=1, k=k, coef=0.25)
    i_s = scale_coef / (4.0 * s * s) * m
    i_vs = scale_coef / (4.0 * s) * _tangent_vec(_dup_t_vec(v_inv), k)
    return FimBlocksEta(i_mu=i_mu, i_v=i_v, i_s=i_s, i_vs=i_vs)


def efficient_fim_shape(v, scale: ScaleFunctional, gen: DensityGenerator):
    """Semiparametric efficient FIM for the shape: the scale-projected block.

    One m(m+1)/2 - 1 square array is built (:func:`~ellipfim.matcalc._vecs_fill`).
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    alpha = gen.alpha(m)
    k = grad_v11(scale, v)
    return _vecs_fill(np.linalg.inv(v), 1.0, -1.0 / m, start=1, k=k, coef=0.5 * alpha)


def fim_vecs_sigma(sigma, gen: DensityGenerator):
    """FIM of vecs(Sigma) in the scatter parameterization, built as one
    m(m+1)/2 square array (:func:`~ellipfim.matcalc._vecs_fill`)."""
    sigma = np.asarray(sigma, dtype=float)
    alpha = gen.alpha(sigma.shape[0])
    return _vecs_fill(np.linalg.inv(sigma), 0.5 * alpha, 0.25 * (alpha - 1.0))


# ---------------------------------------------------------------------------
# parameterized models theta -> (mu(theta), Sigma(theta))
# ---------------------------------------------------------------------------


def _jacobians(param, theta0):
    """theta0, Sigma(theta0), the m x d J_mu and the (d, m, m) stack of Sigma_i."""
    theta0 = np.asarray(theta0, dtype=float)
    sigma = np.asarray(param.sigma_fn(theta0), dtype=float)
    j_mu = np.asarray(param.jacobian_mu(theta0), dtype=float)
    j_sig = np.asarray(param.jacobian_sigma(theta0), dtype=float)
    return theta0, sigma, j_mu, j_sig


def _sym_vecs_rows(part):
    """sqrt(F) vecs((S + S^T) / 2) of each S in a stack, one row per S,
    with F = diag(D_m^T D_m).

    For symmetric S and T, tr(S T) is the inner product of these rows,
    since each off-diagonal pair (i, j), (j, i) of S is one vecs entry,
    weighted sqrt(2).
    """
    r, c = _tril_indices_colmajor(part.shape[-1])
    rows = part[:, r, c] + part[:, c, r]
    rows *= 0.5
    rows *= np.sqrt(_dup_gram(part.shape[-1]))
    return rows


def _whitened_rows(sigma, j_mu, j_sig):
    """The whitened Jacobian, one row [(L^-1 J_mu)_i^T | sqrt(F) vecs(G_i)]
    per theta_i (:func:`_sym_vecs_rows`), and the traces tr(G_i).

    The parts' Grams are J_mu^T Sigma^-1 J_mu and tr(G_i G_j).  An overflow
    (theta in extreme units) is left in the rows for the caller to report."""
    m = sigma.shape[0]
    l_inv = linalg.solve_triangular(np.linalg.cholesky(sigma), np.eye(m), lower=True)
    rows = np.empty((len(j_sig), m + vecs_len(m)))
    trace = np.empty(len(j_sig))
    with np.errstate(over="ignore", invalid="ignore"):
        rows[:, :m] = (l_inv @ j_mu).T
        for p in _row_slices(len(j_sig), m * m):
            whitened = l_inv @ j_sig[p] @ l_inv.T
            trace[p] = np.trace(whitened, axis1=1, axis2=2)
            rows[p, m:] = _sym_vecs_rows(whitened)
    return rows, trace


_RANK_CERTIFICATE_MARGIN = 1e3


def _identifiable(rows) -> bool:
    """Full column rank of U = ``rows``^T, each column scaled to unit norm.

    Column i of U, the whitened (mu_i, Sigma_i), is one invertible map, the
    same for every i, of column i of the stacked Jacobian of (mu, vec Sigma),
    so U has that Jacobian's rank.  The rank of a matrix does not change when a
    column is scaled, so the verdict does not depend on the units of theta_i; a
    zero column is a coordinate that moves neither mu nor Sigma.  Full rank of
    this U means no singular value at or below tol = 1e-10 sqrt(d).  With U =
    QR, sigma_min(U) = 1 / ||R^-1||_2 >= 1 / ||R^-1||_F, so 1 / ||R^-1||_F > c
    tol certifies it without an SVD; c = ``_RANK_CERTIFICATE_MARGIN`` covers
    the QR backward error (about d eps sqrt(d)) and the rounding of trtri.  The
    R of U^T = R Q has the singular values of U; LAPACK writes it over one copy
    of the scaled rows, and trtri inverts it in place.  Wherever that bound
    cannot decide, the SVD of ``matrix_rank`` does, and a U with fewer rows
    than d has rank below d.
    """
    if not np.isfinite(rows).all():  # LAPACK would print its error to stdout
        return False
    # no column norm over- or underflows in units of the largest entry
    peak = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    if not peak.all():
        return False
    unit = rows / peak[:, None]
    unit /= np.sqrt(np.einsum("ij,ij->i", unit, unit))[:, None]
    d, n = unit.shape
    if n < d:
        return False
    tol = 1e-10 * np.sqrt(d)
    if d:  # LAPACK would print an error for the empty triangle
        # U^T = R Q, R (d x d) upper triangular in the last d columns; the
        # workspace of 32 d is what LAPACK's query asks for (the default
        # d x 3 runs it about 1.5x slower)
        tri = linalg.lapack.dgerqf(unit, lwork=32 * d)[0][:, n - d :]
        for j in range(d - 1):  # the Householder vectors below R
            tri[j + 1 :, j] = 0.0
        r_inv, info = linalg.lapack.dtrtri(tri, overwrite_c=1)
        if info == 0 and 1.0 / np.linalg.norm(r_inv) > _RANK_CERTIFICATE_MARGIN * tol:
            return True
        del tri, r_inv
    return bool(np.linalg.matrix_rank(unit, tol=tol) == d)


_NOT_IDENTIFIABLE = "stacked Jacobian of (mu, vec Sigma) is rank deficient at theta0"


@dataclass(frozen=True)
class ModelGeometry:
    """What the FIMs of theta and the adaptivity condition need at theta0.

    With L the Cholesky factor of Sigma and Sigma_i = d Sigma / d theta_i
    the derivative matrices of the parameterization, the whitened G_i =
    L^-1 Sigma_i L^-T give the Slepian-Bangs form
    tr(Sigma^-1 Sigma_i Sigma^-1 Sigma_j) = tr(G_i G_j) and
    tr(Sigma^-1 Sigma_i) = tr(G_i).
    """

    m: int
    mu_gram: np.ndarray  # J_mu^T Sigma^-1 J_mu
    sigma_gram: np.ndarray  # [tr(Sigma^-1 Sigma_i Sigma^-1 Sigma_j)]_ij
    sigma_trace: np.ndarray  # [tr(Sigma^-1 Sigma_i)]_i


def model_geometry(param, theta0) -> ModelGeometry:
    """Jacobians and whitened Gram matrices at theta0.

    The Jacobian is whitened once, into the rows of :func:`_whitened_rows`,
    and dropped; identifiability is decided on those rows, and the Grams
    are formed from them.  At the peak the (d, m, m) Jacobian is alive
    beside the rows, or the rows beside their scaled and LAPACK copies.

    Raises ``LinAlgError`` when Sigma(theta0) is not positive definite,
    ``ValueError`` when the Gram matrices are not finite and
    ``IdentifiabilityError`` when the stacked Jacobian of (mu, vec Sigma)
    is rank deficient.
    """
    _, sigma, j_mu, j_sig = _jacobians(param, theta0)
    m = sigma.shape[0]
    rows, trace = _whitened_rows(sigma, j_mu, j_sig)
    del j_sig  # the rest needs only the rows and traces
    identifiable = _identifiable(rows)
    # an overflow is reported once below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        w_mu = np.ascontiguousarray(rows[:, :m].T)  # L^-1 J_mu
        sigma_gram = rows[:, m:] @ rows[:, m:].T
        del rows
        mu_gram = w_mu.T @ w_mu
        # sum_i t_i^2 bounds every entry of the rank-one term t t^T
        finite = all(np.isfinite(x).all() for x in (mu_gram, sigma_gram, trace @ trace))
    if not finite:
        raise ValueError("whitened Gram matrices are not finite at theta0")
    if not identifiable:
        raise IdentifiabilityError(_NOT_IDENTIFIABLE)
    return ModelGeometry(m=m, mu_gram=mu_gram, sigma_gram=sigma_gram, sigma_trace=trace)


def _trace_coef(gen: DensityGenerator, m: int, semiparametric: bool) -> float:
    """The coefficient c of t t^T in the FIM of theta (:func:`_theta_fim`)."""
    if semiparametric:
        return 2.0 / (gen.alpha(m) * gen.sigma_q2(m)) - 1.0 / m
    return 0.5 * (1.0 - 1.0 / gen.alpha(m))


def _theta_fim(geometry: ModelGeometry, gen: DensityGenerator, semiparametric: bool):
    """The FIM of theta; the two kinds differ in the coefficient of t t^T only.

    Built as one d x d array, a cache-sized row block of beta J_mu^T
    Sigma^-1 J_mu + alpha / 2 (Sigma Gram + c t t^T) at a time, with c of
    :func:`_trace_coef`.  The two Grams are exactly symmetric
    (``model_geometry`` forms each as X^T X) and t_i t_j is formed before
    it is scaled, so the result is symmetric to the bit.  Raises
    ``ValueError`` when the FIM is not finite.
    """
    m = geometry.m
    alpha = gen.alpha(m)
    rank1 = _trace_coef(gen, m, semiparametric)
    beta = gen.beta(m)
    t = geometry.sigma_trace
    out = np.empty(geometry.sigma_gram.shape)
    # an overflow is reported once below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_slices(len(t), len(t)):
            blk = t[rows, None] * t
            blk *= rank1
            blk += geometry.sigma_gram[rows]
            blk *= 0.5 * alpha
            blk += beta * geometry.mu_gram[rows]
            out[rows] = blk
    if not np.isfinite(out).all():
        raise ValueError(f"the FIM of theta under {gen.name} is not finite")
    return out


def fim_theta(param, theta0, gen: DensityGenerator):
    """Parametric FIM for theta with the generator fully known."""
    return _theta_fim(model_geometry(param, theta0), gen, semiparametric=False)


def sfim_theta(param, theta0, gen: DensityGenerator):
    """Semiparametric efficient FIM for theta (generator a nuisance function)."""
    return _theta_fim(model_geometry(param, theta0), gen, semiparametric=True)


def _theta_score(x, param, theta0, gen: DensityGenerator, semiparametric: bool):
    """The score of theta; the two kinds differ in the coefficient of
    tr(Sigma^-1 Sigma_i) only."""
    theta0, sigma, j_mu, j_sig = _jacobians(param, theta0)
    rows, trace = _whitened_rows(sigma, j_mu, j_sig)  # trace: tr(Sigma^-1 Sigma_i)
    if not _identifiable(rows):
        raise IdentifiabilityError(_NOT_IDENTIFIABLE)
    m = sigma.shape[0]
    w, q, phi, _, single = _sample_parts(x, param.mu_fn(theta0), sigma, gen)
    coef = (q - m) / gen.sigma_q2(m) - q * phi / (2.0 * m) if semiparametric else -0.5
    # W^T mu_i and W^T Sigma_i W
    quad = np.einsum("li,kij,lj->lk", w, j_sig, w)
    out = phi[:, None] * (w @ j_mu + 0.5 * quad) + np.outer(coef, trace)
    return out[0] if single else out


def score_theta(x, param, theta0, gen: DensityGenerator):
    """Score of theta in the parametric model."""
    return _theta_score(x, param, theta0, gen, semiparametric=False)


def efficient_score_theta(x, param, theta0, gen: DensityGenerator):
    """Efficient (generator-projected) score of theta."""
    return _theta_score(x, param, theta0, gen, semiparametric=True)


def _project_nuisance(fim, q: int, t):
    """Project the nuisance (the trailing block) out of the leading q block.

    Returns the Schur complement I_g - I_ge I_e^-1 I_eg, the residual
    t_g - I_ge I_e^-1 t_e and s_e = t_e^T I_e^-1 t_e, as I_g - W^T W,
    t_g - W^T w_t and |w_t|^2 with [W | w_t] = L^-1 [I_eg | t_e], I_e =
    L L^T: one Cholesky factor, one triangular solve and one syrk, so the
    complement of an exactly symmetric FIM is symmetric to the bit as built.
    """
    d = fim.shape[0]
    if q > d:
        raise ValueError("interest block larger than the matrix")
    if q == d:
        return fim.copy(), t.copy(), 0.0
    try:
        chol, _ = linalg.cho_factor(fim[q:, q:], lower=True)
    except linalg.LinAlgError as exc:
        raise IdentifiabilityError("singular nuisance information block") from exc
    white = linalg.solve_triangular(chol, np.column_stack([fim[:q, q:].T, t[q:]]), lower=True)
    w, w_t = white[:, :q], white[:, q]
    out = w.T @ w
    np.subtract(fim[:q, :q], out, out=out)
    return out, t[:q] - w.T @ w_t, float(w_t @ w_t)


def efficient_fim_interest(fim, q: int):
    """Schur complement I_gamma - I_ge I_e^-1 I_ge^T for the leading q block."""
    return _project_nuisance(np.asarray(fim, dtype=float), q, np.zeros(len(fim)))[0]
