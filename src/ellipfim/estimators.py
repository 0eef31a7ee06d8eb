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

Tyler's iteration is over-relaxed: V <- V + omega (F(V) - V) with F the
plain Tyler map and omega = (m + 2) / m = 1 / (1 - c), c = 2 / (m + 2)
being the plain map's contraction factor on shape directions at the fixed
point.  A trial takes the plain step F(V) where a cheap test on V^-1 F(V)
cannot show the extrapolation positive definite (``tyler_fixed_point``).  The
stop rule and the returned F(V) are the plain iteration's; at m = 4,
n = 100 it takes about 14.7 iterations instead of 27.  F(cV) = c F(V),
and the step, the test and the stop rule are scale-free, so the iterates
are not normalized: the iteration (``tyler_fixed_point``) takes no scale
functional, and ``tyler_batch`` applies one once, to the F(V) that a
converged trial returns (``tyler_renormalize``).

The rank-based update is
    vecs(V_R) = vecs(V*) + (1 / (alpha_hat sqrt(n))) Xi_{V*} Delta_{V*},
with V* a sqrt(n)-consistent preliminary, Delta the rank statistic
built from the score function K applied to the ranks of the quadratic
forms q_i = x_i^T V^-1 x_i, and Xi the tangent-space weighting
2 U [U^T G U]^{-1} U^T, G = Upsilon Upsilon^T, applied in closed form from
V* with m x m products and no U, Xi, Gram or d x d factorization
(:func:`_tangent_step`), by G = K - w w^T / m for K = D_m^T (V^-1 (x)
V^-1) D_m, w = D_m^T vec(V^-1); K^-1 y = vecs(V unvecs(y / diag(D_m^T
D_m)) V) (Magnus & Neudecker); and G vecs(V) = 0.  A step is NaN where V*
is not positive definite (``_pd_inv``) or is not finite.  Delta needs
V^-1 only, as D_m^T vec(V^-1 M V^-1 - (sum_i K_i / m) V^-1),
M = sum_i K_i x_i x_i^T / q_i (:func:`_rank_delta`), so the step forms
no square root V^(-1/2) and no unit direction.  alpha_hat is a
local-slope estimate of the cross-information scalar along the update
direction.

The R-estimate satisfies the manifold constraint S(V) = 1 only
asymptotically: the step starts from V* renormalized to S = 1, and the
deviation |S(V_hat) - 1| of its result is surfaced as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg, special

from .matcalc import _dup_gram, _dup_t_vec, ovecs, unvecs, vecs, vecs_len
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
    "tyler_fixed_point",
    "tyler_renormalize",
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


def _quad_forms(xt, v_inv):
    """q_i = x_i^T V^-1 x_i over the coordinate-major stack ``xt`` (..., m,
    n), V^-1 read transposed, as x V^-1 reads it: a stacked inverse is not
    exactly symmetric."""
    return np.sum((np.swapaxes(v_inv, -1, -2) @ xt) * xt, axis=-2)


def _pd_inv(v):
    """V^-1 of positive-definite matrices; the Cholesky factorization raises
    ``LinAlgError`` where one is not, which ``inv`` alone would not."""
    np.linalg.cholesky(v)
    return np.linalg.inv(v)


def scm_batch(data, scale: ScaleFunctional):
    """Scale-normalized sample covariances of a (T, n, m) stack of zero-mean
    datasets, by ``renormalize``."""
    data = np.asarray(data, dtype=float)
    return renormalize(scale, np.swapaxes(data, -1, -2) @ data / data.shape[-2])


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


def tyler_fixed_point(data):
    """Tyler's unnormalized fixed point F(V) for a (T, n, m) stack.

    With F the plain Tyler map, V -> (m / n) sum_i x_i x_i^T / (x_i^T V^-1
    x_i), each iteration takes the over-relaxed step
    V <- V + omega (F(V) - V), omega = (m + 2) / m, from V = I.  For u
    uniform on the sphere E[(u^T E u) u u^T] = (2 E + tr(E) I) / (m (m + 2)),
    so at the fixed point F's linearization is c = 2 / (m + 2) times the
    identity on shape directions; the linearized step multiplies the
    error there by 1 - omega (1 - c), which omega = 1 / (1 - c) makes 0.  The
    extrapolated matrix is positive definite iff the eigenvalues of
    V^-1 F(V) exceed 2 / (m + 2); a trial takes it only where
    ||V^-1 F(V) - I||_F < m / (2 (m + 2)), which keeps the extrapolation's
    eigenvalues relative to V above 1/2, and takes the plain step F(V)
    elsewhere.
    At n = m + 1 a fixed point can be nearly singular (smallest
    eigenvalue about 1e-9); the residual of such a trial can stall near
    1e-9 where the plain iteration converges (6 of 40,500 trials measured
    at m = 2, 4, 10); at n = m + 2 and n = 2m + 2 none of 16,200 was.

    Returns ``(f, iterations, residual)``, ``f`` being F(V) at the iterate
    whose residual ||F(V) - V|| / ||V|| is below TYLER_TOL; F(cV) = c F(V)
    makes every iterate's scale irrelevant, so no scale functional enters.
    A trial leaves the active set once it converges or fails.  ``f`` is
    NaN for a failed trial: its residual is NaN when an iterate went
    non-finite or not positive definite, and the last residual
    (>= TYLER_TOL) when it did not converge in TYLER_MAX_ITER iterations.
    """
    xt = _coordinate_major(data)
    trials, m, n = xt.shape
    omega = (m + 2.0) / m
    guard = (m / (2.0 * (m + 2.0))) ** 2
    v = np.full((trials, m, m), np.nan)
    iterations = np.full(trials, TYLER_MAX_ITER)
    residual = np.full(trials, np.nan)
    active = np.arange(trials)
    v_act = np.broadcast_to(np.eye(m), (trials, m, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, TYLER_MAX_ITER + 1):
            v_inv = _stacked(np.linalg.inv, v_act)
            q = _quad_forms(xt, v_inv)
            f = (m / n) * (xt / q[..., None, :]) @ np.swapaxes(xt, -1, -2)
            diff = f - v_act
            res = np.sqrt(
                np.sum(diff * diff, axis=(-2, -1))
                / np.sum(v_act * v_act, axis=(-2, -1))
            )
            res[~(q > 0.0).all(axis=-1) | ~np.isfinite(res)] = np.nan
            residual[active] = res
            converged = res < TYLER_TOL
            done = converged | np.isnan(res)
            r = v_inv @ f - np.eye(m)
            safe = np.sum(r * r, axis=(-2, -1)) < guard
            v_act = np.where(safe[:, None, None], v_act + omega * diff, f)
            if done.any():
                v[active[converged]] = f[converged]
                iterations[active[done]] = it
                active, xt, v_act = active[~done], xt[~done], v_act[~done]
                if not active.size:
                    break
    return v, iterations, residual


def tyler_renormalize(scale: ScaleFunctional, f, residual):
    """``(v, residual)``: the F(V) and residuals of ``tyler_fixed_point``,
    each converged F(V) renormalized (``renormalize``), as new arrays.  A
    converged trial whose shape is then not finite is lost: its shape and
    residual become NaN."""
    ok = residual < TYLER_TOL
    v = np.full_like(f, np.nan)
    v[ok] = renormalize(scale, f[ok])
    lost = ok & ~np.isfinite(v).all(axis=(-2, -1))
    v[lost] = np.nan
    return v, np.where(lost, np.nan, residual)


def tyler_batch(data, scale: ScaleFunctional):
    """Tyler's fixed point, renormalized to S(V) = 1, for a (T, n, m) stack:
    ``tyler_renormalize`` of ``tyler_fixed_point``, the only use of
    ``scale``.  Returns ``(v, iterations, residual)``; ``v`` and the
    residual are NaN for a failed trial, including one whose S(F(V)) went
    non-finite."""
    f, iterations, residual = tyler_fixed_point(data)
    v, residual = tyler_renormalize(scale, f, residual)
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


def _rank_order(values):
    """The stable argsort along the last axis: entry j of a row is the
    position of its value of rank j + 1, ties broken by position.

    A row whose sorted values increase strictly has one sorting
    permutation, so numpy's default (unstable, faster) argsort finds it;
    a row with a tie, a NaN or a repeated infinity is sorted again with
    the stable sort.
    """
    order = np.argsort(values, axis=-1)
    ordered = np.take_along_axis(values, order, axis=-1)
    tied = ~(ordered[..., 1:] > ordered[..., :-1]).all(axis=-1)
    if tied.any():
        order[tied] = np.argsort(values[tied], axis=-1, kind="stable")
    return order


def ranks(values):
    """Ranks 1..n in ascending order along the last axis; ties broken by
    original position."""
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(out, _rank_order(values), np.arange(1, values.shape[-1] + 1), axis=-1)
    return out


def _rank_delta(xt, v_inv, tables):
    """Delta_V for every dataset of the coordinate-major stack ``xt``
    (T, m, n) and every score table.

    ``v_inv`` holds V^-1 per dataset, with leading axes (T,) or (S, T);
    ``tables`` holds ``ScoreFunction.table`` rows, (S, n) for one table
    per score or (S, T, n) for one per score and dataset.  Returns
    (S, T, m(m+1)/2), C-contiguous, so that a sum over its last axis
    takes the same order whatever S and T are.

    With R = V^(-1/2) and the unit directions u_i = R x_i / sqrt(q_i),
    Upsilon_V vec(sum_i K_i u_i u_i^T) is D_m^T vec of
        R (sum_i K_i u_i u_i^T - (sum_i K_i / m) I) R
            = V^-1 M V^-1 - (sum_i K_i / m) V^-1,  M = sum_i K_i x_i x_i^T / q_i,
    so the statistic needs V^-1 only: q_i is Tyler's quadratic form
    (``_quad_forms``), and no square root or unit direction is formed.
    """
    m, n = xt.shape[-2:]
    q = _quad_forms(xt, v_inv)
    if tables.ndim == 2:
        tables = tables[:, None, :]
    # the score of rank j + 1, table entry j, goes to the position of that rank
    order = _rank_order(q)
    shape = np.broadcast_shapes(order.shape, tables.shape)
    k_vals = np.empty(shape)
    np.put_along_axis(k_vals, np.broadcast_to(order, shape), tables, axis=-1)
    weighted = (xt * (k_vals / q)[..., None, :]) @ np.swapaxes(xt, -1, -2)
    s = v_inv @ weighted @ v_inv - (np.sum(k_vals, axis=-1) / m)[..., None, None] * v_inv
    return np.ascontiguousarray(_dup_t_vec(s)) / (2.0 * np.sqrt(n))


def _tangent_step(v, g, delta, pd):
    """Xi Delta = 2 U [U^T G U]^{-1} U^T Delta for every score, from the
    shapes V* (T, m, m), the constraint gradients g (T, d) and the rank
    statistics ``delta`` (S, T, d), forming neither U nor G; ``pd`` (T,)
    marks the V* that are positive definite.

    With n0 = vecs(V): G = K - w w^T / m, K^-1 w = n0 and G n0 = 0 (module
    docstring).  So z0 = K^-1 (Delta + lambda g), lambda = -n0^T Delta /
    n0^T g, solves G z0 = Delta + lambda g, and z = z0 - (g^T z0 / g^T n0) n0
    is its solution with g^T z = 0, the step being 2 z.  A trial is NaN
    where ``pd`` is false or its step is not finite (g^T n0 = 0).  The
    reduced operands are C-contiguous, so that a sum over their last axis
    takes the same order whatever S and T are.
    """
    m = v.shape[-1]
    n0 = np.ascontiguousarray(vecs(v))
    g = np.ascontiguousarray(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        gn = np.sum(g * n0, axis=-1)
        lam = -np.sum(delta * n0, axis=-1) / gn
        y = unvecs((delta + lam[..., None] * g) / _dup_gram(m), m)
        z0 = np.ascontiguousarray(vecs(v @ y @ v))
        step = 2.0 * (z0 - (np.sum(z0 * g, axis=-1) / gn)[..., None] * n0)
    step[~(pd & np.isfinite(step).all(axis=-1))] = np.nan
    return step


def r_step_batch(data, v, scale: ScaleFunctional, tables):
    """One rank-based step from each shape of ``v`` (T, m, m), renormalized
    to S(V) = 1 first, for a (T, n, m) stack of datasets and every score
    table of ``tables``: (S, n), or (S, T, n) for a table per dataset.

    The step is closed-form in V* (:func:`_tangent_step`: G = K - w w^T / m,
    K^-1 y = vecs(V unvecs(y / diag(D_m^T D_m)) V), G vecs(V) = 0), and the
    rank statistics need only V^-1 (:func:`_rank_delta`): one Cholesky-checked
    inverse (``_pd_inv``) of V* per trial, whose NaN pattern marks the V*
    that are positive definite, and of the probe per score and trial.
    Returns ``(v_new, alpha_hat, rejected)`` with leading axes (S, T).  A
    rejected step keeps V*; a failed one, where V* or the probe is not
    positive definite or the step is not finite, is NaN and not rejected.
    """
    xt = _coordinate_major(data)
    m, n = xt.shape[-2:]
    root_n = np.sqrt(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_star = renormalize(scale, v)
        v_inv = _stacked(_pd_inv, v_star)
        pd = np.isfinite(v_inv).all(axis=(-2, -1))
        delta0 = _rank_delta(xt, v_inv, tables)
        g = constraint_gradient_vecs(scale, np.where(pd[:, None, None], v_star, np.eye(m)))
        step = _tangent_step(v_star, g, delta0, pd)
        base = vecs(v_star)
        # local slope of the rank statistic along the update direction, one
        # score at a time: its temporaries are then (T, m, n); (S, T, m, n)
        # ones took about 1100 fresh page faults per call at m = 4, T = 163
        v_probe = renormalize(scale, unvecs(base + step / root_n, m))
        probe_inv = _stacked(_pd_inv, v_probe)
        delta1 = np.concatenate([_rank_delta(xt, w, t[None]) for w, t in zip(probe_inv, tables)])
        denom = np.sum(delta0 * delta0, axis=-1)
        alpha_hat = np.sum((delta0 - delta1) * delta0, axis=-1) / denom
        alpha_hat[denom <= 0.0] = 0.0  # degenerate: keep preliminary
        rejected = ~(np.isfinite(alpha_hat) & (alpha_hat > 0.0))
        moved = unvecs(base + step / (alpha_hat[..., None] * root_n), m)
    v_new = np.where(rejected[..., None, None], v_star, moved)
    failed = ~(np.isfinite(step).all(axis=-1) & np.isfinite(delta1).all(axis=-1))
    v_new[failed] = np.nan
    return v_new, alpha_hat, rejected & ~failed


def r_estimator(
    data,
    scale: ScaleFunctional,
    score: ScoreFunction,
    preliminary: ShapeEstimate,
) -> ShapeEstimate:
    """One-step rank-based shape estimator.

    Iterating the step would re-solve the tangent-space system at the
    current estimate; measured at n = 100 the extra sweeps cost a few
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
