"""Complex elliptical models via the real-embedding correspondence.

A complex m-vector is elliptically distributed when its stacked
real/imaginary representation is a real elliptical 2m-vector.  The
closed-form complex FIMs below are implemented directly in complex
arithmetic; the real-embedded pipeline (build the 2m-dimensional real
model, run the generic parameterized-FIM machinery) exists independently
as the cross-check path, which is what makes the agreement tests
meaningful.

Conventions: x_tilde = (x^T, x^H)^T = sqrt(2) M x_bar with the fixed
unitary M; Sigma_tilde = [[Sigma, Omega], [Omega*, Sigma*]] =
2 M Sigma_bar M^H; generators map by g_c(t) = 2^m g_r(2t), so the
modular variates satisfy Q_c = Q_r / 2 and the complex-convention
functionals (denominators m(m+1) and m, phi with coefficient -1) equal
the real ones of the 2m-dimensional embedding:
alpha_c(m) = alpha_r(2m), beta_c(m) = beta_r(2m).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .generators import DensityGenerator
from .parameterize import LowRankModel, Parameterization, low_rank_parameterization

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
    from .generators import gaussian

    return ComplexGenerator(gaussian())


def complex_student_t(nu) -> ComplexGenerator:
    from .generators import student_t

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


def sigma_bar_from_complex(sigma_c, omega_c=None):
    """Real scatter of (Re x, Im x) from the augmented complex scatter."""
    st = sigma_tilde(sigma_c, omega_c)
    m = np.asarray(sigma_c).shape[0]
    mm = unitary_map(m)
    bar = 0.5 * mm.conj().T @ st @ mm
    if np.abs(bar.imag).max() > 1e-10 * max(np.abs(bar.real).max(), 1.0):
        raise ValueError("augmented scatter is not a valid complex covariance pair")
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
    sigma_c = np.asarray(sigma_c, dtype=complex)
    if np.abs(sigma_c - sigma_c.conj().T).max() > 1e-10 * np.abs(sigma_c).max():
        raise ValueError("scatter must be Hermitian")
    m = sigma_c.shape[0]
    sol = np.linalg.solve(sigma_c, j)
    return 2.0 * gen_c.beta(m) * _real_sym((j.conj().T @ sol).real, "location FIM")


def ncces_fim_location(jac_mu_c, sigma_c, omega_c, gen_c: ComplexGenerator):
    """Noncircular location FIM via the augmented representation."""
    j = np.asarray(jac_mu_c, dtype=complex)
    j_tilde = np.vstack([j, j.conj()])
    st = sigma_tilde(sigma_c, omega_c)
    m = np.asarray(sigma_c).shape[0]
    sol = np.linalg.solve(st, j_tilde)
    return gen_c.beta(m) * _real_sym(j_tilde.conj().T @ sol, "nc location FIM")


def _perp_projector(a):
    a = np.asarray(a, dtype=complex)
    gram = a.conj().T @ a
    return np.eye(a.shape[0]) - a @ np.linalg.solve(gram, a.conj().T)


def cces_lowrank_fim(a, a_jac, signal_cov_c, lam, gen_c: ComplexGenerator):
    """Efficient interest FIM for the circular low-rank scatter model.

    a: (m, p) complex factor, a_jac: (m, p, q) derivatives, signal_cov_c:
    Hermitian PD (p, p), lam > 0 noise level.
    """
    a = np.asarray(a, dtype=complex)
    da = np.asarray(a_jac, dtype=complex)
    xi = np.asarray(signal_cov_c, dtype=complex)
    m, p = a.shape
    q = da.shape[2]
    if np.linalg.matrix_rank(a, tol=1e-12 * max(1.0, np.linalg.norm(a))) < p:
        raise ValueError("factor matrix must have full column rank")
    sigma_c = a @ xi @ a.conj().T + lam * np.eye(m)
    h0 = xi @ a.conj().T @ np.linalg.solve(sigma_c, a) @ xi
    perp = _perp_projector(a)
    j_vec_a = np.stack([da[:, :, k].reshape(-1, order="F") for k in range(q)], axis=1)
    core = np.kron(h0.T, perp)
    out = (2.0 * gen_c.alpha(m) / lam) * (j_vec_a.conj().T @ core @ j_vec_a).real
    return _real_sym(out, "low-rank FIM")


def doa_fim(a, d, signal_cov_c, lam, gen_c: ComplexGenerator):
    """One-parameter-per-source specialization: (2 alpha/lam) Re{(D^H P D) o H^T}."""
    a = np.asarray(a, dtype=complex)
    d = np.asarray(d, dtype=complex)
    xi = np.asarray(signal_cov_c, dtype=complex)
    m = a.shape[0]
    sigma_c = a @ xi @ a.conj().T + lam * np.eye(m)
    h0 = xi @ a.conj().T @ np.linalg.solve(sigma_c, a) @ xi
    perp = _perp_projector(a)
    # the Hadamard factors are Hermitian, so the entrywise product has a
    # symmetric real part but conjugate-antisymmetric imaginary part
    core = ((d.conj().T @ perp @ d) * h0.T).real
    return (2.0 * gen_c.alpha(m) / lam) * 0.5 * (core + core.T)


def rectilinear_fim(a, a_jac, signal_cov_r, lam, gen_c: ComplexGenerator):
    """Efficient interest FIM for the rectilinear low-rank model.

    The augmented factor stacks A over its conjugate; the signal
    covariance is real SPD.  Requires 2m > p.
    """
    a = np.asarray(a, dtype=complex)
    da = np.asarray(a_jac, dtype=complex)
    xi = np.asarray(signal_cov_r, dtype=float)
    m, p = a.shape
    if 2 * m <= p:
        raise ValueError("rectilinear model requires 2m > p")
    q = da.shape[2]
    a_t = np.vstack([a, a.conj()])
    sig_t = a_t @ xi @ a_t.conj().T + lam * np.eye(2 * m)
    h_t = xi @ a_t.conj().T @ np.linalg.solve(sig_t, a_t) @ xi
    perp = _perp_projector(a_t)
    j_vec = np.stack(
        [np.vstack([da[:, :, k], da[:, :, k].conj()]).reshape(-1, order="F") for k in range(q)],
        axis=1,
    )
    core = np.kron(h_t.T, perp)
    out = (gen_c.alpha(m) / lam) * (j_vec.conj().T @ core @ j_vec)
    return _real_sym(out, "rectilinear FIM")


# ---------------------------------------------------------------------------
# real-embedded oracle parameterizations (the independent cross-check path)
# ---------------------------------------------------------------------------


def embedded_location_parameterization(mu_fn_c, jac_mu_c, sigma_c, omega_c, q):
    """Real 2m-model for a complex location parameterization with fixed scatter."""
    sigma_bar = sigma_bar_from_complex(sigma_c, omega_c)
    two_m = sigma_bar.shape[0]

    def mu_fn(theta):
        return embed_vector(mu_fn_c(theta))

    def jac_mu(theta):
        return np.vstack([np.asarray(jac_mu_c(theta)).real, np.asarray(jac_mu_c(theta)).imag])

    return Parameterization(
        q=q,
        r=0,
        mu_fn=mu_fn,
        sigma_fn=lambda th: sigma_bar,
        jac_mu=jac_mu,
        jac_sigma=lambda th: np.zeros((q, two_m, two_m)),
        name="embedded_location",
    )


def hermitian_basis(p: int):
    """Real basis of Hermitian p x p matrices: p(p+1)/2 symmetric + p(p-1)/2 skew."""
    basis = []
    for j in range(p):
        for i in range(j, p):
            e = np.zeros((p, p), dtype=complex)
            if i == j:
                e[i, i] = 1.0
            else:
                e[i, j] = e[j, i] = 1.0
            basis.append(e)
    for j in range(p):
        for i in range(j + 1, p):
            e = np.zeros((p, p), dtype=complex)
            e[i, j] = 1j
            e[j, i] = -1j
            basis.append(e)
    return basis


def _hermitian_from_params(params, basis):
    out = np.zeros_like(basis[0])
    for c, e in zip(params, basis):
        out = out + c * e
    return out


def _hermitian_params(xi, basis):
    coords = []
    for e in basis:
        # basis elements are orthogonal under Re tr(E^H X) with norms 1 or 2
        norm = np.real(np.vdot(e, e))
        coords.append(np.real(np.vdot(e, xi)) / norm)
    return np.array(coords)


def embedded_lowrank_parameterization(a_fn_c, a_jac_c, p, q, m):
    """Real 2m-model of the circular low-rank scatter parameterization.

    theta = (gamma, hermitian params of Xi, lambda); Sigma_bar =
    (1/2) R(A Xi A^H) + (lambda/2) I, using the homomorphism R.
    """
    basis = hermitian_basis(p)
    herm = np.array(basis)
    r = len(basis) + 1

    def unpack(theta):
        gamma = theta[:q]
        xi = _hermitian_from_params(theta[q : q + len(basis)], basis)
        lam = theta[-1]
        return gamma, xi, lam

    def sigma_fn(theta):
        gamma, xi, lam = unpack(theta)
        a = np.asarray(a_fn_c(gamma), dtype=complex)
        return 0.5 * real_mat(a @ xi @ a.conj().T) + 0.5 * lam * np.eye(2 * m)

    def jac_sig(theta):
        gamma, xi, lam = unpack(theta)
        a = np.asarray(a_fn_c(gamma), dtype=complex)
        da = np.asarray(a_jac_c(gamma), dtype=complex)
        # A_k Xi A^H + (A_k Xi A^H)^H with A_k = dA / d gamma_k
        half = np.einsum("ipk,pr,jr->kij", da, xi, a.conj())
        slices = np.concatenate(
            [half + np.swapaxes(half, -1, -2).conj(), a @ herm @ a.conj().T, np.eye(m)[None]]
        )
        return 0.5 * real_mat(slices)

    def theta0(gamma0, xi0, lam0):
        return np.concatenate(
            [np.asarray(gamma0, dtype=float), _hermitian_params(np.asarray(xi0, dtype=complex), basis), [lam0]]
        )

    param = Parameterization(
        q=q,
        r=r,
        mu_fn=lambda th: np.zeros(2 * m),
        sigma_fn=sigma_fn,
        jac_mu=lambda th: np.zeros((2 * m, q + r)),
        jac_sigma=jac_sig,
        name="embedded_lowrank",
    )
    return param, theta0


def _re_over_im(c):
    """(Re C; Im C): the rows of the real parts over those of the imaginary parts."""
    c = np.asarray(c, dtype=complex)
    return np.concatenate([c.real, c.imag])


def embedded_rectilinear_parameterization(a_fn_c, a_jac_c, p, q, m):
    """Real 2m-model of the rectilinear scatter parameterization.

    Sigma_tilde = A_t Xi_r A_t^H + lambda I maps to the real low-rank model
    Sigma_bar = A_bar Xi_r A_bar^T + (lambda/2) I with A_bar = (Re A; Im A),
    so theta = (gamma, vecs Xi_r, lambda/2).  The efficient interest FIM
    does not depend on how the nuisance is coordinatized.  ``m`` is implied
    by A; it is kept for the signature of the other embedded models.
    """
    model = LowRankModel(
        a_fn=lambda gamma: _re_over_im(a_fn_c(gamma)),
        a_jac=lambda gamma: _re_over_im(a_jac_c(gamma)),
        signal_cov=np.eye(p),  # only its size is read; theta0 sets the values
        noise_level=1.0,
        q=q,
    )

    def theta0(gamma0, xi0, lam0):
        at = replace(model, signal_cov=np.asarray(xi0, dtype=float), noise_level=0.5 * lam0)
        return at.theta0(gamma0)

    param = replace(low_rank_parameterization(model), name="embedded_rectilinear")
    return param, theta0
