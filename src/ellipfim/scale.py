"""Scale functionals, the scatter -> (shape, scale) split and its geometry.

A scale functional S is 1-homogeneous, differentiable and has S(I) = 1;
the three concrete choices are the (1,1) entry, the normalized trace and
the m-th root of the determinant.  The shape matrix V = Sigma / S(Sigma)
lives on the manifold S(V) = 1, and the arrays built here (the gradient of
[V]_11, U and the Jacobian of (ovecs V, s) -> vecs(Sigma)) encode that
manifold's geometry in half-vectorized coordinates.

Inputs claimed to sit on the manifold are checked against |S(V) - 1| <=
1e-8 and rejected otherwise; renormalization is only ever explicit via
:func:`renormalize`.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .matcalc import _dup_t_vec, _tril_indices_colmajor, vecs, unvecs, vecs_len

__all__ = [
    "ScaleFunctional",
    "FIRST_ELEMENT",
    "NORMALIZED_TRACE",
    "DET_ROOT",
    "SCALES",
    "scale_by_name",
    "ManifoldError",
    "ShapeDecomposition",
    "decompose",
    "renormalize",
    "grad_v11",
    "u_basis",
    "jacobian_w",
    "reconstruct_shape",
]

MANIFOLD_TOL = 1e-8


class ManifoldError(ValueError):
    """Input shape matrix does not satisfy S(V) = 1 within tolerance."""


class ScaleFunctional:
    """One of the three named scale functionals; stateless and shareable.

    ``values``, ``gradient`` and the module functions built on them work
    matrix by matrix over the leading axes of a stack of matrices.
    """

    kind = "scale"

    def value(self, sigma) -> float:
        return float(self.values(sigma))

    def values(self, sigma):
        """S over a stack of matrices; NaN where S is undefined."""
        raise NotImplementedError

    def gradient(self, sigma):
        """Matrix derivative D_S = dS/dSigma; scale-invariant by homogeneity."""
        raise NotImplementedError

    def __repr__(self):
        return self.kind


class _FirstElement(ScaleFunctional):
    kind = "first"

    def values(self, sigma):
        return np.asarray(sigma, dtype=float)[..., 0, 0]

    def gradient(self, sigma):
        g = np.zeros(np.shape(sigma))
        g[..., 0, 0] = 1.0
        return g


class _NormalizedTrace(ScaleFunctional):
    kind = "trace"

    def values(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        return np.trace(sigma, axis1=-2, axis2=-1) / sigma.shape[-1]

    def gradient(self, sigma):
        shape = np.shape(sigma)
        return np.zeros(shape) + np.eye(shape[-1]) / shape[-1]


class _DetRoot(ScaleFunctional):
    kind = "det"

    def value(self, sigma):
        s = super().value(sigma)
        if np.isnan(s):
            raise linalg.LinAlgError("determinant-root scale needs a PD matrix")
        return s

    def values(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        sign, logdet = np.linalg.slogdet(sigma)
        return np.where(sign > 0, np.exp(logdet / sigma.shape[-1]), np.nan)

    def gradient(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        s = self.values(sigma)
        if np.isnan(s).any():
            raise linalg.LinAlgError("determinant-root scale needs a PD matrix")
        return s[..., None, None] * np.linalg.inv(sigma) / sigma.shape[-1]


FIRST_ELEMENT = _FirstElement()
NORMALIZED_TRACE = _NormalizedTrace()
DET_ROOT = _DetRoot()

SCALES = {
    "first": FIRST_ELEMENT,
    "trace": NORMALIZED_TRACE,
    "det": DET_ROOT,
}


def scale_by_name(name: str) -> ScaleFunctional:
    try:
        return SCALES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON list or object
        raise KeyError(
            f"unknown scale {name!r}; valid options: {', '.join(sorted(SCALES))}"
        ) from None


def _check_manifold(scale: ScaleFunctional, v):
    dev = np.abs(scale.values(v) - 1.0)
    if not np.all(dev <= MANIFOLD_TOL):
        raise ManifoldError(
            f"S(V) = 1 violated by {np.max(dev):.3e} for scale {scale.kind!r}; "
            "renormalize explicitly if intended"
        )


class ShapeDecomposition:
    """Shape matrix on the manifold plus the scalar scale that rebuilds Sigma."""

    def __init__(self, v, s, scale: ScaleFunctional):
        self.v = np.asarray(v, dtype=float)
        self.s = float(s)
        self.scale = scale

    def reconstruct(self):
        return self.s * self.v


def decompose(scale: ScaleFunctional, sigma) -> ShapeDecomposition:
    sigma = np.asarray(sigma, dtype=float)
    s = scale.value(sigma)
    return ShapeDecomposition(sigma / s, s, scale)


def renormalize(scale: ScaleFunctional, v):
    """V / S(V), matrix by matrix over a stack: onto S(V) = 1 by rescaling;
    NaN where S(V) is not finite and positive."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = scale.values(v)
        out = v / s[..., None, None]
    out[~(np.isfinite(s) & (s > 0.0))] = np.nan
    return out


def grad_v11(scale: ScaleFunctional, v):
    """Gradient of the implicit map ovecs(V) -> [V]_11 on the manifold.

    On S(V) = 1 the implicit function theorem gives -g[1:] / g[0] for the
    constraint gradient g of :func:`constraint_gradient_vecs`.
    """
    v = np.asarray(v, dtype=float)
    _check_manifold(scale, v)
    g = constraint_gradient_vecs(scale, v)
    # 0 - x, not -x: the first scale's zeros stay +0.0
    return 0.0 - g[1:] / g[0]


def constraint_gradient_vecs(scale: ScaleFunctional, v):
    """Gradient of S in half-vectorized coordinates: D_m^T vec(D_S).

    Computed entry by entry (:func:`~ellipfim.matcalc._dup_t_vec`), so the
    duplication matrix is never formed; a stack of shapes gives a stack.
    """
    return _dup_t_vec(scale.gradient(np.asarray(v, dtype=float)))


def u_basis(scale: ScaleFunctional, v):
    """Orthonormal basis of the manifold tangent space in vecs coordinates.

    The columns span the orthogonal complement of the constraint gradient
    g = D_m^T vec(D_S) of :func:`constraint_gradient_vecs`, which is what
    makes col(U) = col(K_V) for every scale (for the first-element and
    trace scales D_S is diagonal and g coincides with vecs(D_S)).  Built
    by Householder QR with a deterministic sign convention: first nonzero
    entry of each column positive.  A stack of shapes gives a stack of
    bases.
    """
    v = np.asarray(v, dtype=float)
    _check_manifold(scale, v)
    g = constraint_gradient_vecs(scale, v)
    q, _ = np.linalg.qr(g[..., None], mode="complete")
    u = q[..., 1:]
    # sign convention for reproducibility
    mag = np.abs(u)
    first = np.argmax(mag > 1e-12 * mag.max(axis=-2, keepdims=True), axis=-2)
    lead = np.take_along_axis(u, first[..., None, :], axis=-2)
    return np.where(lead < 0.0, -u, u)


def _shape_scale_derivatives(scale: ScaleFunctional, v, s, out):
    """d Sigma / d(ovecs V, s) at Sigma = s V, written into ``out``.

    ``out`` is an (m(m+1)/2, m, m) array.  Slice k < m(m+1)/2 - 1 is
    s (E + g_k E_11) for E = unvecs(e_{k+1}) and g = grad_v11; the last is
    V.  Their vecs are the columns of :func:`jacobian_w`.
    """
    if s <= 0:
        raise ValueError("scale s must be positive")
    g = grad_v11(scale, v)
    r, c = _tril_indices_colmajor(v.shape[0])
    k = np.arange(len(g))
    # s times the 0 and 1 entries of K_V, as the product s K_V gives them
    out[:-1] = s * 0.0
    out[k, 0, 0] = s * g
    out[k, r[1:], c[1:]] = s * 1.0
    out[k, c[1:], r[1:]] = s * 1.0
    out[-1, r, c] = out[-1, c, r] = vecs(v)
    return out


def jacobian_w(scale: ScaleFunctional, v, s):
    """Jacobian of (ovecs V, s) -> vecs(Sigma):  [s K_V , vecs(V)].

    K_V = [grad_v11^T; I] is d vecs(V) / d ovecs(V) on the manifold.
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    stack = _shape_scale_derivatives(scale, v, s, np.empty((vecs_len(m), m, m)))
    return np.ascontiguousarray(vecs(stack).T)


def reconstruct_shape(scale: ScaleFunctional, ovecs_v, m):
    """Rebuild the manifold shape matrix from its free coordinates.

    [V]_11 is recovered from the constraint S(V) = 1: trivially 1 for the
    first-element scale, m minus the remaining diagonal for the trace
    scale, and for the determinant-root scale from the Schur complement:
    [V]_11 = v_1^T V_22^-1 v_1 + 1 / |V_22| with v_1 = V[1:, 0] and
    V_22 = V[1:, 1:], two positive terms that cancel nothing near a
    singular V.  Raises ``LinAlgError`` when V_22 is not positive definite.
    """
    ovecs_v = np.asarray(ovecs_v, dtype=float)
    full = np.concatenate([[0.0], ovecs_v])
    v = unvecs(full, m)
    if scale.kind == "first":
        v[0, 0] = 1.0
        return v
    if scale.kind == "trace":
        v[0, 0] = m - np.trace(v)
        return v
    chol = np.linalg.cholesky(v[1:, 1:])
    w = linalg.solve_triangular(chol, v[1:, 0], lower=True)
    v[0, 0] = w @ w + np.exp(-2.0 * np.sum(np.log(np.diag(chol))))
    return v
