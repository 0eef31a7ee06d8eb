"""Shape-matrix estimators: constrained SCM, Tyler's fixed point, and the
one-step rank-based estimator with pluggable score functions.

Each estimator is one kernel over a (T, n, m) stack of T datasets
(``scm_batch``, ``tyler_batch``, ``r_step_batch``), written with stacked
``numpy.linalg`` and ``matmul`` so that a trial's arithmetic does not
depend on the other trials of the stack.  Tyler and the R-step compute
coordinate-major: each makes one C-contiguous (T, m, n) copy of the
stack, with the n observations contiguous, so that a sum over the m
coordinates (the quadratic forms x_i^T V^-1 x_i) is m vectorized adds of
length n rather than n short rows.  ``scm_batch`` is one matmul on the
stack as given.  The single-dataset functions
(``scm_shape``, ``tyler_shape``, ``r_estimator``) are T = 1 calls into
the same kernels.  In a kernel a trial fails alone: its estimate is NaN
when an intermediate is not finite or not positive definite, or when
Tyler's iteration does not converge; the single-dataset functions raise
``LinAlgError`` or ``TylerNonConvergenceError`` instead.

The rank-based update is
    vecs(V_R) = vecs(V*) + (1 / (alpha_hat sqrt(n))) Xi_{V*} Delta_{V*},
with V* a sqrt(n)-consistent preliminary, Delta the rank statistic
built from the score function K applied to the ranks of the whitened
quadratic forms, and Xi the tangent-space weighting
2 U [U^T Upsilon Upsilon^T U]^{-1} U^T, applied as one solve per trial
without U or Xi being formed.  The Gram Upsilon Upsilon^T =
D_m^T (V^-1 (x) V^-1 - vec(V^-1) vec(V^-1)^T / m) D_m is built entry by
entry, by the vecs-space core that also serves the bounds and the FIMs,
so no m^2 x m^2 array is formed.  alpha_hat is a local-slope estimate of
the cross-information scalar along the update direction.

The R-estimate satisfies the manifold constraint S(V) = 1 only
asymptotically; the deviation |S(V_hat) - 1| is surfaced as a diagnostic
and renormalization is opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg, special

from .fim import _vecs_information
from .matcalc import _dup_t_vec, ovecs, unvecs, vecs, vecs_len
from .scale import ScaleFunctional, constraint_gradient_vecs, renormalize

__all__ = [
    "TYLER_TOL",
    "TYLER_MAX_ITER",
    "ScoreFunction",
    "VanDerWaerden",
    "TScore",
    "TylerNonConvergenceError",
    "ShapeEstimate",
    "scm_shape",
    "scm_batch",
    "tyler_shape",
    "tyler_batch",
    "ranks",
    "r_estimator",
    "r_step_batch",
    "mse_index",
]


TYLER_TOL = 1e-10  # relative change of an iterate that stops Tyler's iteration
TYLER_MAX_ITER = 200


class TylerNonConvergenceError(RuntimeError):
    def __init__(self, residual, iterations):
        super().__init__(
            f"Tyler fixed point did not converge in {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


class ScoreFunction:
    """Rank score K: (0,1) -> R+, nondecreasing; evaluated at dimension m."""

    name = "score"

    def __call__(self, u, m):
        raise NotImplementedError

    def table(self, n, m):
        """K(i / (n + 1)) for i = 1..n: entry rank - 1 is the score of a rank."""
        return self(np.arange(1, n + 1) / (n + 1.0), m)

    def key(self):
        """The score's class and parameters: equal keys give equal tables.
        A subclass with parameters adds them."""
        return (type(self),)


class VanDerWaerden(ScoreFunction):
    """Chi-square quantile score: Gaussian-efficient rank weights."""

    name = "vdw"

    def __call__(self, u, m):
        # the chi2_m quantile, as scipy.stats computes it
        return 2.0 * special.gammaincinv(0.5 * m, np.asarray(u, dtype=float))


# scipy's fdtri is NaN or wrong from nu of about 5.5e154 on; from about 1e16
# on, the t_nu score equals its nu -> inf limit, the chi2_m score, to rounding
_FDTRI_NU_MAX = 1e154


class TScore(ScoreFunction):
    """t_nu-based score; nu tunes the robustness/efficiency trade-off."""

    def __init__(self, nu):
        if nu <= 0:
            raise ValueError("TScore requires nu > 0")
        self.nu = float(nu)
        self.name = f"t{nu:g}"

    def key(self):
        return (type(self), self.nu)

    def __call__(self, u, m):
        if self.nu > _FDTRI_NU_MAX:
            return VanDerWaerden()(u, m)
        # the F(m, nu) quantile, as scipy.stats computes it
        f_inv = special.fdtri(m, self.nu, np.asarray(u, dtype=float))
        with np.errstate(invalid="ignore"):  # inf / inf at u = 1
            k = m * (m + self.nu) * f_inv / (self.nu + m * f_inv)
        # its limit m + nu there; [()] keeps a scalar input scalar
        return np.where(f_inv == np.inf, m + self.nu, k)[()]


@dataclass
class ShapeEstimate:
    v_hat: np.ndarray
    scale_kind: str
    method: str
    iterations: int = 0
    final_residual: float = 0.0
    alpha_hat: Optional[float] = None
    manifold_dev: float = 0.0
    step_rejected: bool = False


def _stacked(fn, a):
    """``fn``, mapping a matrix to one of the same shape, over a stack of
    matrices; NaN for each item that is not finite or on which ``fn`` raises
    ``LinAlgError``.

    numpy.linalg raises for the whole stack when one item fails, so only
    then is the stack retried item by item.
    """
    a = np.asarray(a, dtype=float)
    ok = np.isfinite(a).all(axis=(-2, -1))
    if not ok.all():
        a = np.where(ok[..., None, None], a, np.eye(a.shape[-1]))
    try:
        out = fn(a)
    except np.linalg.LinAlgError:
        out = np.empty_like(a)
        for idx in np.ndindex(ok.shape):
            try:
                out[idx] = fn(a[idx])
            except np.linalg.LinAlgError:
                ok[idx] = False
    if not ok.all():
        out[~ok] = np.nan
    return out


def _coordinate_major(data):
    """The (T, m, n) C-contiguous copy of a (T, n, m) stack, observations
    contiguous; no copy when ``data`` is a transposed view of such a stack."""
    return np.ascontiguousarray(np.swapaxes(np.asarray(data, dtype=float), -1, -2))


def _inv_sqrt(v):
    """V^(-1/2) of symmetric positive-definite matrices, by eigendecomposition."""
    w, e = np.linalg.eigh(0.5 * (v + np.swapaxes(v, -1, -2)))
    if np.any(w[..., 0] <= 0.0):
        raise linalg.LinAlgError("matrix is not positive definite")
    return (e / np.sqrt(w)[..., None, :]) @ np.swapaxes(e, -1, -2)


def scm_batch(data, scale: ScaleFunctional):
    """Scale-normalized sample covariances of a (T, n, m) stack of zero-mean
    datasets; NaN where the scale of a covariance is not finite and positive.
    """
    data = np.asarray(data, dtype=float)
    sigma_hat = np.swapaxes(data, -1, -2) @ data / data.shape[-2]
    s = scale.values(sigma_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = sigma_hat / s[..., None, None]
    v[~(np.isfinite(s) & (s > 0))] = np.nan
    return v


def scm_shape(data, scale: ScaleFunctional) -> ShapeEstimate:
    """Scale-normalized sample covariance of zero-mean data."""
    data = np.asarray(data, dtype=float)
    n, m = data.shape
    if n <= m:
        raise ValueError("need n > m observations")
    v = scm_batch(data[None], scale)[0]
    if np.isnan(v).any():
        raise linalg.LinAlgError("singular sample covariance")
    return ShapeEstimate(v_hat=v, scale_kind=scale.kind, method="scm")


def tyler_batch(data, scale: ScaleFunctional):
    """Tyler's fixed point, renormalized to S(V) = 1, for a (T, n, m) stack.

    Returns ``(v, iterations, residual)``.  A trial leaves the active set
    once it converges (residual < TYLER_TOL) or fails.  ``v`` is NaN for a
    failed trial: its residual is NaN when an iterate went non-finite or
    not positive definite, and the last residual (>= TYLER_TOL) when it did
    not converge in TYLER_MAX_ITER iterations.
    """
    xt = _coordinate_major(data)
    trials, m, n = xt.shape
    v = np.full((trials, m, m), np.nan)
    iterations = np.full(trials, TYLER_MAX_ITER)
    residual = np.full(trials, np.nan)
    active = np.arange(trials)
    v_act = np.broadcast_to(np.eye(m), (trials, m, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, TYLER_MAX_ITER + 1):
            # x_i^T V^-1 x_i with V^-1 read transposed, as x V^-1 reads it:
            # the stacked inverse is not exactly symmetric
            v_inv_t = np.swapaxes(_stacked(np.linalg.inv, v_act), -1, -2)
            q = np.sum((v_inv_t @ xt) * xt, axis=-2)
            v_new = (m / n) * (xt / q[..., None, :]) @ np.swapaxes(xt, -1, -2)
            v_new /= scale.values(v_new)[..., None, None]
            diff = v_new - v_act
            res = np.sqrt(
                np.sum(diff * diff, axis=(-2, -1))
                / np.sum(v_act * v_act, axis=(-2, -1))
            )
            res[~(q > 0.0).all(axis=-1) | ~np.isfinite(res)] = np.nan
            residual[active] = res
            converged = res < TYLER_TOL
            done = converged | np.isnan(res)
            v_act = v_new
            if done.any():
                v[active[converged]] = v_new[converged]
                iterations[active[done]] = it
                active, xt, v_act = active[~done], xt[~done], v_new[~done]
                if not active.size:
                    break
    return v, iterations, residual


def tyler_shape(data, scale: ScaleFunctional) -> ShapeEstimate:
    """Tyler's distribution-free fixed point, renormalized to S(V) = 1."""
    data = np.asarray(data, dtype=float)
    n, m = data.shape
    if n <= m:
        raise ValueError("need n > m observations")
    norms = np.einsum("ij,ij->i", data, data)
    if np.any(norms == 0.0):
        raise ValueError("zero observation rows are not allowed")
    v, iterations, residual = tyler_batch(data[None], scale)
    if np.isnan(residual[0]):
        raise linalg.LinAlgError(
            "Tyler iterate is not finite and positive definite"
        )
    if not residual[0] < TYLER_TOL:
        raise TylerNonConvergenceError(float(residual[0]), TYLER_MAX_ITER)
    return ShapeEstimate(
        v_hat=v[0],
        scale_kind=scale.kind,
        method="tyler",
        iterations=int(iterations[0]),
        final_residual=float(residual[0]),
    )


def ranks(values):
    """Ranks 1..n in ascending order along the last axis; ties broken by
    original position."""
    values = np.asarray(values)
    order = np.argsort(values, axis=-1, kind="stable")
    out = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(out, order, np.arange(1, values.shape[-1] + 1), axis=-1)
    return out


def _rank_delta(xt, v_root_inv, tables):
    """Delta_V for every dataset of the coordinate-major stack ``xt``
    (T, m, n) and every score table.

    ``v_root_inv`` holds V^(-1/2) per dataset, with leading axes (T,) or
    (S, T); ``tables`` holds ``ScoreFunction.table`` rows, (S, n) for one
    table per score or (S, T, n) for one per score and dataset.
    Returns (S, T, m(m+1)/2), C-contiguous, so that a sum over its last
    axis takes the same order whatever S and T are.  Upsilon_V vec(O) is
    applied in its matrix form D_m^T vec(V^-1/2 (O - tr(O) I / m) V^-1/2),
    which needs no Kronecker product.
    """
    m, n = xt.shape[-2:]
    w = np.swapaxes(v_root_inv, -1, -2) @ xt
    q = np.sum(w * w, axis=-2)
    u_dirs = w / np.sqrt(q)[..., None, :]
    if tables.ndim == 2:
        tables = tables[:, None, :]
    k_vals = tables[
        np.arange(len(tables))[:, None, None],
        np.arange(tables.shape[1])[:, None],
        ranks(q) - 1,
    ]
    outer = (u_dirs * k_vals[..., None, :]) @ np.swapaxes(u_dirs, -1, -2)
    trace = np.trace(outer, axis1=-2, axis2=-1)
    s = v_root_inv @ (outer - (trace / m)[..., None, None] * np.eye(m)) @ v_root_inv
    return np.ascontiguousarray(_dup_t_vec(s)) / (2.0 * np.sqrt(n))


def _tangent_step(gram, g, delta):
    """Xi Delta = 2 U [U^T G U]^{-1} U^T Delta for every score, from the Gram
    G = Upsilon Upsilon^T (T, d, d), the constraint gradient g (T, d) and
    the rank statistics ``delta`` (S, T, d), with no tangent basis U.

    With e = g / |g| and P = I - e e^T, [U e] is orthogonal and
    P G P + e e^T = [U e] diag(U^T G U, 1) [U e]^T, so it is positive
    definite exactly when U^T G U is, and its solution z of
    (P G P + e e^T) z = P Delta is U [U^T G U]^{-1} U^T Delta.  The
    matrix is built by rank-one updates, checked by Cholesky and solved
    once per trial for all S right-hand sides.  A trial is NaN where it
    is not finite or not positive definite.
    """
    g = np.ascontiguousarray(g)  # a sum over a strided last axis depends on T
    e = g / np.sqrt(np.sum(g * g, axis=-1))[..., None]
    a = (gram @ e[..., None])[..., 0]
    c = np.sum(e * a, axis=-1)
    ea = e[..., :, None] * a[..., None, :]
    ee = e[..., :, None] * e[..., None, :]
    h = gram - (ea + np.swapaxes(ea, -1, -2)) + (c + 1.0)[..., None, None] * ee
    pd = np.isfinite(_stacked(np.linalg.cholesky, h)).all(axis=(-2, -1))
    h[~pd] = np.eye(h.shape[-1])
    p_delta = delta - np.sum(delta * e, axis=-1)[..., None] * e
    z = np.linalg.solve(h, np.moveaxis(p_delta, 0, -1))
    step = 2.0 * np.moveaxis(z, -1, 0)
    step[:, ~pd] = np.nan
    return step


def r_step_batch(data, v, scale: ScaleFunctional, tables):
    """One rank-based step from each shape of ``v`` (T, m, m), renormalized
    to S(V) = 1 first, for a (T, n, m) stack of datasets and every score
    table of ``tables``: (S, n), or (S, T, n) for a table per dataset.

    The Upsilon Gram and the constraint gradient depend only on the
    starting point V*, so each trial makes one positive-definite solve in
    the tangent space, shared by all scores, and forms neither the tangent
    basis U nor Xi (:func:`_tangent_step`).  Returns ``(v_new,
    alpha_hat, rejected)`` with leading axes (S, T).  A rejected step keeps
    V*; ``v_new`` is NaN where a non-finite or non-PD intermediate made the
    step fail.
    """
    xt = _coordinate_major(data)
    m, n = xt.shape[-2:]
    root_n = np.sqrt(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_star = renormalize(scale, v)
        v_root_inv = _stacked(_inv_sqrt, v_star)
        delta0 = _rank_delta(xt, v_root_inv, tables)
        finite = np.isfinite(v_star).all(axis=(-2, -1))
        g = constraint_gradient_vecs(scale, np.where(finite[:, None, None], v_star, np.eye(m)))
        gram = _vecs_information(v_root_inv @ v_root_inv, 1.0, -1.0 / m)[0]
        step = _tangent_step(gram, g, delta0)
        base = vecs(v_star)
        # local slope of the rank statistic along the update direction
        v_probe = renormalize(scale, unvecs(base + step / root_n, m))
        delta1 = _rank_delta(xt, _stacked(_inv_sqrt, v_probe), tables)
        denom = np.sum(delta0 * delta0, axis=-1)
        alpha_hat = np.sum((delta0 - delta1) * delta0, axis=-1) / denom
        alpha_hat[denom <= 0.0] = 0.0  # degenerate: keep preliminary
        rejected = ~(np.isfinite(alpha_hat) & (alpha_hat > 0.0))
        moved = unvecs(base + step / (alpha_hat[..., None] * root_n), m)
    v_new = np.where(rejected[..., None, None], v_star, moved)
    failed = ~(np.isfinite(step).all(axis=-1) & np.isfinite(delta1).all(axis=-1))
    v_new[failed] = np.nan
    return v_new, alpha_hat, rejected


def r_estimator(
    data,
    scale: ScaleFunctional,
    score: ScoreFunction,
    preliminary: ShapeEstimate,
) -> ShapeEstimate:
    """One-step rank-based shape estimator.

    Iterating the step refreshes the tangent basis at the current
    estimate, which only matters when U depends on the shape (det-root
    scale); measured at n = 100 even there the extra sweeps cost a few
    percent of MSE rather than helping, so the estimator takes one step
    for every scale.
    """
    data = np.asarray(data, dtype=float)
    n, m = data.shape
    if n <= vecs_len(m):
        raise ValueError("need n > m(m+1)/2 observations for the one-step update")
    if preliminary.scale_kind != scale.kind:
        raise ValueError("preliminary estimate uses a different scale functional")

    v = np.asarray(preliminary.v_hat, dtype=float)
    v_new, alpha, rej = r_step_batch(data[None], v[None], scale, score.table(n, m)[None])
    if np.isnan(v_new).any():
        raise linalg.LinAlgError("R-step intermediate is not finite and positive definite")
    rejected = bool(rej[0, 0])
    if not rejected:  # a rejected step keeps the preliminary
        v = v_new[0, 0]
    return ShapeEstimate(
        v_hat=v,
        scale_kind=scale.kind,
        method=f"r[{score.name}]",
        iterations=int(not rejected),
        alpha_hat=float(alpha[0, 0]),
        manifold_dev=abs(scale.value(v) - 1.0),
        step_rejected=rejected,
    )


def mse_index(estimates, truth) -> float:
    """Mean squared ovecs error against the true shape matrix."""
    truth = np.asarray(truth, dtype=float)
    errs = []
    kinds = {est.scale_kind for est in estimates}
    if len(kinds) > 1:
        raise ValueError(f"mixed scale kinds in MSE accumulation: {sorted(kinds)}")
    for est in estimates:
        diff = ovecs(np.asarray(est.v_hat) - truth)
        errs.append(float(diff @ diff))
    return float(np.mean(errs))
