"""Complex elliptical models via the real-embedding correspondence.

A complex m-vector is elliptically distributed when its stacked
real/imaginary representation is a real elliptical 2m-vector.  The
closed-form complex FIMs below work in complex arithmetic; the low-rank
and rectilinear ones share one contraction [tr(A_k^H P A_l H)]_kl =
vec(A_k)^H (H^T (x) P) vec(A_l), formed without the Kronecker product.
The real-embedded models, run through the generic parameterized-FIM
machinery, are the independent cross-check path.

Conventions: x_tilde = (x^T, x^H)^T = sqrt(2) M x_bar with the fixed
unitary M; Sigma_tilde = [[Sigma, Omega], [Omega*, Sigma*]] =
2 M Sigma_bar M^H; generators map by g_c(t) = 2^m g_r(2t), so the
modular variates satisfy Q_c = Q_r / 2 and the complex-convention
functionals (denominators m(m+1) and m, phi with coefficient -1) equal
the real ones of the 2m-dimensional embedding:
alpha_c(m) = alpha_r(2m), beta_c(m) = beta_r(2m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .generators import DensityGenerator, gaussian, student_t
from .matcalc import vecs, vecs_basis
from .parameterize import Parameterization, _low_rank_model

__all__ = [
    "ComplexGenerator",
    "complex_gaussian",
    "complex_student_t",
    "unitary_map",
    "embed_vector",
    "complex_from_real",
    "real_mat",
    "sigma_tilde",
    "sigma_bar_from_complex",
    "sigma_tilde_from_bar",
    "embed",
    "cces_fim_location",
    "ncces_fim_location",
    "cces_lowrank_fim",
    "doa_fim",
    "rectilinear_fim",
    "embedded_location_parameterization",
    "embedded_lowrank_parameterization",
    "embedded_rectilinear_parameterization",
    "hermitian_basis",
]


@dataclass(frozen=True)
class ComplexGenerator:
    """Complex generator defined through its real 2m-dimensional counterpart."""

    real_gen: DensityGenerator

    @property
    def name(self):
        return f"c-{self.real_gen.name}"

    def real(self) -> DensityGenerator:
        return self.real_gen

    def alpha(self, m: int) -> float:
        # E{Q_c^2 phi_c^2} / (m(m+1)) with Q_c = Q_r/2 equals the real
        # alpha of the 2m-dimensional embedding.
        return self.real_gen.alpha(2 * m)

    def beta(self, m: int) -> float:
        return self.real_gen.beta(2 * m)


def complex_gaussian() -> ComplexGenerator:
    return ComplexGenerator(gaussian())


def complex_student_t(nu) -> ComplexGenerator:
    return ComplexGenerator(student_t(nu))


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def unitary_map(m: int):
    """The fixed unitary M with x_tilde = sqrt(2) M x_bar."""
    eye = np.eye(m)
    return np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)


def embed_vector(x):
    """Complex m-vector -> real 2m-vector (Re, Im)."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real, x.imag], axis=-1)


def _re_over_im(c):
    """(Re C; Im C): the rows of the real parts over those of the imaginary parts."""
    c = np.asarray(c, dtype=complex)
    return np.concatenate([c.real, c.imag])


def complex_from_real(x_bar):
    x_bar = np.asarray(x_bar, dtype=float)
    m = x_bar.shape[-1] // 2
    return x_bar[..., :m] + 1j * x_bar[..., m:]


def real_mat(c):
    """Homomorphic real representation [[Re, -Im], [Im, Re]] of a complex matrix.

    A stack of matrices (leading axes) is mapped matrix by matrix.
    """
    c = np.asarray(c, dtype=complex)
    return np.block([[c.real, -c.imag], [c.imag, c.real]])


def sigma_tilde(sigma_c, omega_c=None):
    sigma_c = np.asarray(sigma_c, dtype=complex)
    m = sigma_c.shape[0]
    if omega_c is None:
        omega_c = np.zeros((m, m), dtype=complex)
    omega_c = np.asarray(omega_c, dtype=complex)
    return np.block([[sigma_c, omega_c], [omega_c.conj(), sigma_c.conj()]])


def _check_scatter_pair(sigma_c, omega_c=None):
    """Raise ValueError unless Sigma and Omega are finite, and Sigma = Sigma^H
    and Omega = Omega^T, each to 1e-10 relative to its largest entry."""
    sigma_c = np.asarray(sigma_c, dtype=complex)
    if not np.isfinite(sigma_c).all():  # a NaN passes every comparison below
        raise ValueError("scatter has a non-finite entry")
    if np.abs(sigma_c - sigma_c.conj().T).max() > 1e-10 * np.abs(sigma_c).max():
        raise ValueError("scatter must be Hermitian")
    if omega_c is not None:
        omega_c = np.asarray(omega_c, dtype=complex)
        if not np.isfinite(omega_c).all():
            raise ValueError("pseudo-scatter has a non-finite entry")
        if np.abs(omega_c - omega_c.T).max() > 1e-10 * np.abs(omega_c).max():
            raise ValueError("pseudo-scatter must be symmetric")


def sigma_bar_from_complex(sigma_c, omega_c=None):
    """Real scatter of (Re x, Im x) from the augmented complex scatter."""
    _check_scatter_pair(sigma_c, omega_c)
    st = sigma_tilde(sigma_c, omega_c)
    m = np.asarray(sigma_c).shape[0]
    mm = unitary_map(m)
    bar = 0.5 * mm.conj().T @ st @ mm
    return 0.5 * (bar.real + bar.real.T)


def sigma_tilde_from_bar(sigma_bar):
    sigma_bar = np.asarray(sigma_bar, dtype=float)
    m = sigma_bar.shape[0] // 2
    mm = unitary_map(m)
    return 2.0 * mm @ sigma_bar @ mm.conj().T


def embed(x_c, sigma_c, omega_c, gen_c: ComplexGenerator):
    """Map a complex model to its real representation.

    Returns (x_bar, sigma_bar, gen_r): the stacked observation(s), the
    real scatter with Sigma_tilde = 2 M Sigma_bar M^H, and the real
    2m-dimensional generator.
    """
    sigma_bar = sigma_bar_from_complex(sigma_c, omega_c)
    w = np.linalg.eigvalsh(sigma_bar)
    if w.min() <= 0:
        raise linalg.LinAlgError("embedded scatter is not positive definite")
    return embed_vector(x_c), sigma_bar, gen_c.real()


# ---------------------------------------------------------------------------
# closed-form complex FIMs
# ---------------------------------------------------------------------------


def _real_sym(mat, label):
    mat = np.asarray(mat)
    if np.abs(mat.imag).max() > 1e-8 * max(np.abs(mat.real).max(), 1.0):
        raise ValueError(f"{label}: expected a real-valued information matrix")
    out = mat.real
    return 0.5 * (out + out.T)


def cces_fim_location(jac_mu_c, sigma_c, gen_c: ComplexGenerator):
    """Circular-case location FIM: 2 beta_c Re{J^H Sigma^-1 J}."""
    j = np.asarray(jac_mu_c, dtype=complex)
    _check_scatter_pair(sigma_c)
    sigma_c = np.asarray(sigma_c, dtype=complex)
    m = sigma_c.shape[0]
    sol = np.linalg.solve(sigma_c, j)
    return 2.0 * gen_c.beta(m) * _real_sym((j.conj().T @ sol).real, "location FIM")


def ncces_fim_location(jac_mu_c, sigma_c, omega_c, gen_c: ComplexGenerator):
    """Noncircular location FIM via the augmented representation."""
    j = np.asarray(jac_mu_c, dtype=complex)
    j_tilde = np.vstack([j, j.conj()])
    _check_scatter_pair(sigma_c, omega_c)
    st = sigma_tilde(sigma_c, omega_c)
    m = np.asarray(sigma_c).shape[0]
    sol = np.linalg.solve(st, j_tilde)
    return gen_c.beta(m) * _real_sym(j_tilde.conj().T @ sol, "nc location FIM")


def _lowrank_geometry(a, xi, lam):
    """(H, P) of the low-rank scatter Sigma = A Xi A^H + lam I.

    H = Xi A^H Sigma^-1 A Xi, and P = I - A (A^H A)^-1 A^H projects onto
    the orthogonal complement of the columns of A.
    """
    eye = np.eye(a.shape[0])
    sigma = a @ xi @ a.conj().T + lam * eye
    h = xi @ a.conj().T @ np.linalg.solve(sigma, a) @ xi
    perp = eye - a @ np.linalg.solve(a.conj().T @ a, a.conj().T)
    return h, perp


def _lowrank_contraction(da, h, perp):
    """[tr(A_k^H P A_l H)]_kl for the slices A_k = da[:, :, k].

    This is vec(A_k)^H (H^T (x) P) vec(A_l), since (H^T (x) P) vec(A_l)
    = vec(P A_l H), without forming the Kronecker product.
    """
    slices = np.moveaxis(da, -1, 0)
    return np.einsum("kij,lij->kl", slices.conj(), perp @ slices @ h)


def cces_lowrank_fim(a, a_jac, signal_cov_c, lam, gen_c: ComplexGenerator):
    """Efficient interest FIM for the circular low-rank scatter model.

    a: (m, p) complex factor, a_jac: (m, p, q) derivatives, signal_cov_c:
    Hermitian PD (p, p), lam > 0 noise level.
    """
    a = np.asarray(a, dtype=complex)
    m, p = a.shape
    if np.linalg.matrix_rank(a, tol=1e-12 * max(1.0, np.linalg.norm(a))) < p:
        raise ValueError("factor matrix must have full column rank")
    h, perp = _lowrank_geometry(a, np.asarray(signal_cov_c, dtype=complex), lam)
    gram = _lowrank_contraction(np.asarray(a_jac, dtype=complex), h, perp)
    return _real_sym((2.0 * gen_c.alpha(m) / lam) * gram.real, "low-rank FIM")


def doa_fim(a, d, signal_cov_c, lam, gen_c: ComplexGenerator):
    """One-parameter-per-source specialization: (2 alpha/lam) Re{(D^H P D) o H^T}."""
    a = np.asarray(a, dtype=complex)
    d = np.asarray(d, dtype=complex)
    h, perp = _lowrank_geometry(a, np.asarray(signal_cov_c, dtype=complex), lam)
    # the Hadamard factors are Hermitian, so the entrywise product has a
    # symmetric real part but conjugate-antisymmetric imaginary part
    core = ((d.conj().T @ perp @ d) * h.T).real
    return (2.0 * gen_c.alpha(a.shape[0]) / lam) * 0.5 * (core + core.T)


def rectilinear_fim(a, a_jac, signal_cov_r, lam, gen_c: ComplexGenerator):
    """Efficient interest FIM for the rectilinear low-rank model.

    The low-rank contraction of ``cces_lowrank_fim`` on the augmented
    factor (A; A*) and its derivatives (A_k; A_k*); the signal covariance
    is real SPD.  Requires 2m > p.
    """
    a = np.asarray(a, dtype=complex)
    da = np.asarray(a_jac, dtype=complex)
    m, p = a.shape
    if 2 * m <= p:
        raise ValueError("rectilinear model requires 2m > p")
    xi = np.asarray(signal_cov_r, dtype=float)
    h, perp = _lowrank_geometry(np.vstack([a, a.conj()]), xi, lam)
    gram = _lowrank_contraction(np.concatenate([da, da.conj()]), h, perp)
    return _real_sym((gen_c.alpha(m) / lam) * gram, "rectilinear FIM")


# ---------------------------------------------------------------------------
# real-embedded oracle parameterizations (the independent cross-check path)
# ---------------------------------------------------------------------------


def embedded_location_parameterization(mu_fn_c, jac_mu_c, sigma_c, omega_c, q):
    """Real 2m-model for a complex location parameterization with fixed scatter."""
    sigma_bar = sigma_bar_from_complex(sigma_c, omega_c)
    two_m = sigma_bar.shape[0]
    return Parameterization(
        q=q,
        r=0,
        mu_fn=lambda th: embed_vector(mu_fn_c(th)),
        sigma_fn=lambda th: sigma_bar,
        jac_mu=lambda th: _re_over_im(jac_mu_c(th)),
        jac_sigma=lambda th: np.zeros((q, two_m, two_m)),
        name="embedded_location",
    )


def hermitian_basis(p: int):
    """Real basis of Hermitian p x p matrices as a (p^2, p, p) stack.

    First the p(p+1)/2 symmetric ``vecs_basis(p)``, then the skew
    i(E_ij - E_ji), i > j, in the same column-major order.
    """
    cols, rows = np.triu_indices(p, 1)
    skew = np.zeros((len(rows), p, p), dtype=complex)
    k = np.arange(len(rows))
    skew[k, rows, cols] = 1j
    skew[k, cols, rows] = -1j
    return np.concatenate([vecs_basis(p), skew])


def embedded_lowrank_parameterization(a_fn_c, a_jac_c, p, q):
    """Real 2m-model of the circular low-rank scatter parameterization.

    theta = (gamma, hermitian params of Xi, lambda); Sigma_bar =
    (1/2) R(A Xi A^H + lambda I), using the homomorphism R.  m is read
    from A.
    """
    herm = hermitian_basis(p)
    # the basis is orthogonal under Re tr(E^H X), with squared norms 1 or 2
    norms = np.einsum("kij,kij->k", herm.conj(), herm).real

    def theta0(gamma0, xi0, lam0):
        coords = np.einsum("kij,ij->k", herm.conj(), np.asarray(xi0, dtype=complex)).real / norms
        return np.concatenate([np.asarray(gamma0, dtype=float), coords, [lam0]])

    param = _low_rank_model(
        q, a_fn_c, a_jac_c, herm, lambda c: 0.5 * real_mat(c), "embedded_lowrank"
    )
    return param, theta0


def embedded_rectilinear_parameterization(a_fn_c, a_jac_c, p, q):
    """Real 2m-model of the rectilinear scatter parameterization.

    Sigma_tilde = A_t Xi_r A_t^H + lambda I maps to the real low-rank model
    Sigma_bar = A_bar Xi_r A_bar^T + (lambda/2) I with A_bar = (Re A; Im A),
    so theta = (gamma, vecs Xi_r, lambda/2).  The efficient interest FIM
    does not depend on how the nuisance is coordinatized.
    """

    def theta0(gamma0, xi0, lam0):
        xi_coords = vecs(np.asarray(xi0, dtype=float))
        return np.concatenate([np.asarray(gamma0, dtype=float), xi_coords, [0.5 * lam0]])

    param = _low_rank_model(
        q, lambda g: _re_over_im(a_fn_c(g)), lambda g: _re_over_im(a_jac_c(g)),
        vecs_basis(p), lambda c: c, "embedded_rectilinear",
    )
    return param, theta0
