"""Dense Kronecker forms of the bounds, FIMs and geometry: the test oracles.

These are the m^2 x m^2 expressions the structured vecs-space forms in
``ellipfim`` replace, written exactly as the formulas read: Kronecker
products, the commutation matrix, the duplication matrix and its
pseudo-inverse built by loops.  They cost O(m^6) time and O(m^4) memory,
so tests call them at small m only.  The Kronecker form of the complex
low-rank contraction, the loop-built Hermitian basis and the R-step's
tangent-space weighting Xi, built from an explicit tangent basis, are
here too, as are the whole entrywise core filled from the library's
row blocks, the R-step's Gram Upsilon Upsilon^T filled from that core
(which the R-step's closed-form solve replaces), the Slepian-Bangs Gram
from the whole whitened derivative stack, and the mpmath quadrature of
E{f(Q)} that the generator tests and criterion 5 share.  So is the
equality chain by two factorizations per generator, the efficient FIM
filled and factored on its own, which
``bounds.verify_chain`` replaces by one factor of the scale-known FIM,
and the adaptivity FIM gap by two FIMs of theta, each projected on its
own, which ``parameterize.verify_adaptivity_by_fim`` replaces by one
projection and its rank-one update.

The row-major Tyler iteration and rank statistic at the end are the
Monte-Carlo kernels as they were before they went coordinate-major: each
reduces over the length-m last axis of a (T, n, m) stack.  The rank
statistic and the R-step there whiten by V^(-1/2), from an
eigendecomposition, and form the unit directions, as the formulas read;
the kernels use V^-1 only.
"""

import mpmath
import numpy as np
from scipy import linalg
from scipy.linalg import blas, solve_triangular

from ellipfim import bounds, fim
from ellipfim.bounds import _rank1_coeff
from ellipfim.estimators import _stacked, ranks
from ellipfim.matcalc import _core_row_blocks, _dup_t_vec, _vecs_fill, unvecs, vec, vecs, vecs_len
from ellipfim.scale import decompose, grad_v11, renormalize, u_basis


def mp_expect(gen, m, f, dps=40):
    """E{f(Q)} for Q of ``gen`` in dimension m, by tanh-sinh quadrature of
    f(q) q^(m/2-1) gbar(q) on [0, inf) at ``dps`` significant digits, with
    breakpoints at 1, m and 10 m; it shares nothing with the library's
    scipy-based path or with the closed forms under test."""
    with mpmath.workdps(dps):
        norm = mpmath.pi ** (mpmath.mpf(m) / 2) / mpmath.gamma(mpmath.mpf(m) / 2)

        def integrand(q):
            if q <= 0:
                return mpmath.mpf(0)
            logg = float(gen.log_gbar(np.array([float(q)]), m)[0])
            return norm * f(q) * q ** (mpmath.mpf(m) / 2 - 1) * mpmath.e ** mpmath.mpf(logg)

        return float(mpmath.quad(integrand, [0, 1, m, 10 * m, mpmath.inf]))


def duplication_loops(m):
    # vecs order: column by column, the lower triangle of each column
    pairs = [(i, j) for j in range(m) for i in range(j, m)]
    d = np.zeros((m * m, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        d[i + j * m, k] = 1.0
        d[j + i * m, k] = 1.0
    return d


def hermitian_basis_loops(p):
    """The p(p+1)/2 symmetric E_ij + E_ji (E_ii on the diagonal), then the
    p(p-1)/2 skew i(E_ij - E_ji), i > j, each in column-major order."""
    basis = []
    for j in range(p):
        for i in range(j, p):
            e = np.zeros((p, p), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
    for j in range(p):
        for i in range(j + 1, p):
            e = np.zeros((p, p), dtype=complex)
            e[i, j] = 1j
            e[j, i] = -1j
            basis.append(e)
    return np.array(basis)


def lowrank_kron(a_jac, h, perp):
    """[vec(A_k)^H (H^T (x) P) vec(A_l)]_kl with A_k = a_jac[:, :, k]."""
    j_vec = a_jac.reshape(-1, a_jac.shape[-1], order="F")
    return j_vec.conj().T @ np.kron(h.T, perp) @ j_vec


def commutation_loops(m):
    k = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            k[i + j * m, j + i * m] = 1.0
    return k


def dup_pinv_solve(m):
    d = duplication_loops(m)
    return np.linalg.solve(d.T @ d, d.T)


def sym_kron_core(a):
    """D_m^+ (I + K_m)(A (x) A) D_m^+T for a symmetric A."""
    m = a.shape[0]
    d_pinv = dup_pinv_solve(m)
    return d_pinv @ (np.eye(m * m) + commutation_loops(m)) @ np.kron(a, a) @ d_pinv.T


def core_by_row_blocks(a):
    """The whole core of :func:`sym_kron_core`, filled from the library's
    row blocks (``matcalc._core_row_blocks``).

    A stack of matrices (leading axes) gives a stack of cores, each
    bit-identical to its own 2-D call.  The library finishes each block
    in place and never forms the whole core; the tests hold the blocks,
    through this fill, to the Kronecker form.
    """
    a = np.asarray(a, dtype=float)
    nh = vecs_len(a.shape[-1])
    out = np.empty(a.shape[:-2] + (nh, nh))
    for lo, blk in _core_row_blocks(a):
        out[..., lo : lo + blk.shape[-2], :] = blk
    return out


def row_selector(m):
    return np.eye(vecs_len(m))[1:]


def symmetrizer(m):
    return 0.5 * (np.eye(m * m) + commutation_loops(m))


def k_matrix(scale, v):
    """K_V: the gradient of [V]_11 over the identity, d vecs(V) / d ovecs(V)."""
    nh = vecs_len(np.asarray(v).shape[0])
    return np.vstack([grad_v11(scale, v), np.eye(nh - 1)])


def m_matrix(scale, v):
    return k_matrix(scale, v).T @ duplication_loops(np.asarray(v).shape[0]).T


def p_projector(scale, sigma):
    v = decompose(scale, sigma).v
    return np.eye(v.size) - np.outer(vec(v), vec(scale.gradient(sigma)))


def jacobian_w_inv(scale, sigma):
    m = sigma.shape[0]
    dm = duplication_loops(m)
    sel, dpi, p = row_selector(m), dup_pinv_solve(m), p_projector(scale, sigma)
    top = sel @ dpi @ p @ dm / decompose(scale, sigma).s
    return np.vstack([top, vec(scale.gradient(sigma)) @ dm])


def upsilon(v_root_inv):
    """D_m^T (V^-1/2 (x) V^-1/2)(I - vec(I) vec(I)^T / m) of the R-step."""
    m = v_root_inv.shape[0]
    vi = vec(np.eye(m))
    proj = np.eye(m * m) - np.outer(vi, vi) / m
    return duplication_loops(m).T @ np.kron(v_root_inv, v_root_inv) @ proj


def upsilon_gram(v_inv):
    """The Gram Upsilon Upsilon^T = D_m^T (V^-1 (x) V^-1 - vec(V^-1)
    vec(V^-1)^T / m) D_m from V^-1, or a stack of them, entry by entry
    from the library's core (``matcalc._vecs_fill``)."""
    return _vecs_fill(v_inv, 1.0, -1.0 / v_inv.shape[-1])


def crb_shape(scale, v, gen):
    m = v.shape[0]
    sel, dpi, p = row_selector(m), dup_pinv_solve(m), p_projector(scale, v)
    core = (np.eye(m * m) + commutation_loops(m)) @ np.kron(v, v)
    out = (sel @ dpi @ p @ core @ p.T @ dpi.T @ sel.T) / gen.alpha(m)
    return 0.5 * (out + out.T)


def crb_shape_det_root(v, gen):
    m = v.shape[0]
    sel, dpi = row_selector(m), dup_pinv_solve(m)
    core = (np.eye(m * m) + commutation_loops(m)) @ np.kron(v, v) - (
        2.0 / m
    ) * np.outer(vec(v), vec(v))
    out = (sel @ dpi @ core @ dpi.T @ sel.T) / gen.alpha(m)
    return 0.5 * (out + out.T)


def crb_scale(scale, v, s, gen):
    """(value, psi) of the scale bound."""
    m = v.shape[0]
    alpha = gen.alpha(m)
    g = vec(scale.gradient(v))
    kron_v = np.kron(v, v)
    value = (2.0 * s * s / alpha) * (g @ kron_v @ g - _rank1_coeff(alpha, m))
    sel, dpi, p = row_selector(m), dup_pinv_solve(m), p_projector(scale, v)
    psi = (2.0 * s / alpha) * (sel @ dpi @ p @ kron_v @ g)
    return value, psi


def crb_vecs_sigma(sigma, gen):
    m = sigma.shape[0]
    alpha = gen.alpha(m)
    dpi = dup_pinv_solve(m)
    middle = np.kron(sigma, sigma) - _rank1_coeff(alpha, m) * np.outer(
        vec(sigma), vec(sigma)
    )
    out = (2.0 / alpha) * dpi @ middle @ dpi.T
    return 0.5 * (out + out.T)


def fim_eta_shape(v, s, scale, gen):
    """(i_v, i_vs) of the (mu, ovecs V, s) FIM."""
    m = v.shape[0]
    alpha = gen.alpha(m)
    v_inv = np.linalg.inv(v)
    ms = m_matrix(scale, v)
    vv = np.outer(vec(v_inv), vec(v_inv))
    i_v = 0.25 * ms @ (2.0 * alpha * np.kron(v_inv, v_inv) + (alpha - 1.0) * vv) @ ms.T
    i_vs = ((m + 2) * alpha - m) / (4.0 * s) * (ms @ vec(v_inv))
    return i_v, i_vs


def efficient_fim_shape(v, scale, gen):
    m = v.shape[0]
    v_inv = np.linalg.inv(v)
    ms = m_matrix(scale, v)
    middle = np.kron(v_inv, v_inv) - np.outer(vec(v_inv), vec(v_inv)) / m
    return 0.5 * gen.alpha(m) * ms @ middle @ ms.T


def _whitened_residual(x, a):
    """||R X R^T - I||_F with A = R^T R, or inf when A is not PD."""
    try:
        r = linalg.cholesky(a)
    except linalg.LinAlgError:
        return np.inf
    res = blas.dtrmm(1.0, r, x)
    res = blas.dtrmm(1.0, r, res, side=1, trans_a=1, overwrite_b=True)
    res[np.diag_indices_from(res)] -= 1.0
    return float(np.linalg.norm(res))


def chain_two_factorizations(scale, v, gens):
    """``bounds.verify_chain`` by two factorizations per generator: the
    efficient FIM is filled by ``efficient_fim_shape`` and the scale-known
    FIM by ``fim_eta``, each is factored, and each link whitens its own
    bound against its own factor.  The (name, passed, value) of each link,
    with the library's tolerance, resolution and gap rule."""
    tol = bounds._chain_tolerance(scale, v)
    resolved = tol < bounds._CHAIN_RESOLUTION
    links = []
    for gen in gens:
        bound = bounds.crb_shape(scale, v, gen)
        i_v = fim.fim_eta(v, 1.0, scale, gen).i_v
        u = bounds._scale_known_gap(scale, v, gen)
        gap = float(u @ i_v @ u)
        efficient = _whitened_residual(bound, fim.efficient_fim_shape(v, scale, gen))
        err = _whitened_residual(bound - np.outer(u, u), i_v)
        if gap > min(tol, bounds._CHAIN_RESOLUTION):
            second = ("no_nuisance_bound_strict_gap", gap, err)
        else:
            second = ("no_nuisance_bound_equality", err, err)
        for name, value, residual in [("shared_bound_inverts_efficient_fim", efficient, efficient), second]:
            links.append((name, bool(residual < tol) if resolved else None, value))
    return links


def fim_vecs_sigma(sigma, gen):
    m = sigma.shape[0]
    alpha = gen.alpha(m)
    sigma_inv = np.linalg.inv(sigma)
    dm = duplication_loops(m)
    middle = 0.5 * alpha * np.kron(sigma_inv, sigma_inv) + 0.25 * (
        alpha - 1.0
    ) * np.outer(vec(sigma_inv), vec(sigma_inv))
    return dm.T @ middle @ dm


def _fim_theta(param, theta0, gen, rank1):
    sigma = np.asarray(param.sigma_fn(theta0), dtype=float)
    j_mu = param.jacobian_mu(theta0)
    j_sig = vec(param.jacobian_sigma(theta0)).T  # d vec(Sigma) / d theta, m^2 x d
    sigma_inv = np.linalg.inv(sigma)
    m = sigma.shape[0]
    middle = np.kron(sigma_inv, sigma_inv) + rank1 * np.outer(
        vec(sigma_inv), vec(sigma_inv)
    )
    out = (
        gen.beta(m) * j_mu.T @ sigma_inv @ j_mu
        + 0.5 * gen.alpha(m) * j_sig.T @ middle @ j_sig
    )
    return 0.5 * (out + out.T)


def fim_theta(param, theta0, gen):
    m = np.asarray(param.sigma_fn(theta0)).shape[0]
    return _fim_theta(param, theta0, gen, 0.5 * (1.0 - 1.0 / gen.alpha(m)))


def whitened_slices_geometry(param, theta0):
    """The Sigma Gram [tr(G_i G_j)] and the traces [tr(G_i)] from the whole
    (d, m, m) stack of whitened G_i = L^-1 Sigma_i L^-T, the Gram as the
    inner products of all m^2 entries of the G_i (``fim.model_geometry``
    keeps only their symmetrized vecs rows)."""
    sigma = np.asarray(param.sigma_fn(theta0), dtype=float)
    l_inv = solve_triangular(np.linalg.cholesky(sigma), np.eye(len(sigma)), lower=True)
    slices = l_inv @ param.jacobian_sigma(theta0) @ l_inv.T
    flat = slices.reshape(len(slices), -1)
    return flat @ flat.T, np.trace(slices, axis1=1, axis2=2)


def xi_matrix(gram, u):
    """Xi = 2 U [U^T G U]^{-1} U^T over a stack, from the Gram
    G = Upsilon Upsilon^T and the tangent basis U of ``scale.u_basis``;
    NaN where the bracket is not positive definite."""
    g = np.swapaxes(u, -1, -2) @ gram @ u
    l_inv = _stacked(np.linalg.inv, _stacked(np.linalg.cholesky, g))
    b = u @ np.swapaxes(l_inv, -1, -2)
    return 2.0 * b @ np.swapaxes(b, -1, -2)


def dense_xi(scale, v):
    """``xi_matrix`` at a stack of shapes V on the manifold of ``scale``, its
    Gram from the dense Upsilon of V^(-1/2) (``inv_sqrt``)."""
    gram = np.stack([u @ u.T for u in map(upsilon, _stacked(inv_sqrt, v))])
    return xi_matrix(gram, u_basis(scale, v))


def sfim_theta(param, theta0, gen):
    m = np.asarray(param.sigma_fn(theta0)).shape[0]
    rank1 = 2.0 / (gen.alpha(m) * gen.sigma_q2(m)) - 1.0 / m
    return _fim_theta(param, theta0, gen, rank1)


def adaptivity_two_fims(param, theta0, gen):
    """The efficient interest FIMs of the parametric and the semiparametric
    model, each the Schur complement of its own FIM of theta, and the
    relative gap ||eff_par - eff_semi||_F / ||eff_semi||_F between them,
    both norms in units of the largest entry rounded up to a power of two."""
    eff_par = fim.efficient_fim_interest(fim.fim_theta(param, theta0, gen), param.q)
    eff_semi = fim.efficient_fim_interest(fim.sfim_theta(param, theta0, gen), param.q)
    _, e = np.frexp(max(np.abs(eff_par).max(), np.abs(eff_semi).max()))
    ref = max(np.linalg.norm(np.ldexp(eff_semi, -e)), np.finfo(float).tiny)
    return eff_par, eff_semi, np.linalg.norm(np.ldexp(eff_par - eff_semi, -e)) / ref


def tyler_row_major(data, scale, tol=1e-10, max_iter=200, plain=False):
    """``estimators.tyler_batch`` on the (T, n, m) stack as it is laid out:
    q_i = sum_j (x V^-1)_ij x_ij and F(V) = (m / n) X^T (X / q), with the
    guarded over-relaxed step V <- V + ((m + 2) / m)(F(V) - V) on
    unnormalized iterates and the converged F(V) renormalized.  With
    ``plain`` it is Tyler's own iteration V <- F(V) / S(F(V)), normalized
    at every step, which has the same fixed point up to scale."""
    data = np.asarray(data, dtype=float)
    trials, n, m = data.shape
    omega = (m + 2.0) / m
    v = np.full((trials, m, m), np.nan)
    iterations = np.full(trials, max_iter)
    residual = np.full(trials, np.nan)
    active = np.arange(trials)
    x = data
    v_act = np.broadcast_to(np.eye(m), (trials, m, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            v_inv = _stacked(np.linalg.inv, v_act)
            q = np.sum((x @ v_inv) * x, axis=-1)
            f = (m / n) * np.swapaxes(x, -1, -2) @ (x / q[..., None])
            if plain:
                f /= scale.values(f)[..., None, None]
            diff = f - v_act
            res = np.sqrt(
                np.sum(diff * diff, axis=(-2, -1)) / np.sum(v_act * v_act, axis=(-2, -1))
            )
            res[~(q > 0.0).all(axis=-1) | ~np.isfinite(res)] = np.nan
            residual[active] = res
            converged = res < tol
            done = converged | np.isnan(res)
            if plain:
                v_act = f
            else:
                # the extrapolation is PD where V^-1 F's eigenvalues exceed
                # 2 / (m + 2); the guard asks for distance m / (2 (m + 2)) to 1
                r = v_inv @ f - np.eye(m)
                safe = np.linalg.norm(r, axis=(-2, -1)) < m / (2.0 * (m + 2.0))
                v_act = np.where(safe[:, None, None], v_act + omega * diff, f)
            if done.any():
                v[active[converged]] = f[converged]
                iterations[active[done]] = it
                active, x, v_act = active[~done], x[~done], v_act[~done]
                if not active.size:
                    break
    if not plain:
        ok = residual < tol
        v[ok] /= scale.values(v[ok])[..., None, None]
    return v, iterations, residual


def rank_delta_row_major(data, v_root_inv, tables):
    """``estimators._rank_delta`` on a (T, n, m) stack: W = X V^-1/2, with
    the unit directions in its rows, and sum_l K_l u_l u_l^T = (U k)^T U."""
    n, m = data.shape[-2:]
    w = data @ v_root_inv
    q = np.sum(w * w, axis=-1)
    u_dirs = w / np.sqrt(q)[..., None]
    if tables.ndim == 2:
        tables = tables[:, None, :]
    k_vals = tables[
        np.arange(len(tables))[:, None, None],
        np.arange(tables.shape[1])[:, None],
        ranks(q) - 1,
    ]
    outer = np.swapaxes(u_dirs * k_vals[..., None], -1, -2) @ u_dirs
    trace = np.trace(outer, axis1=-2, axis2=-1)
    s = v_root_inv @ (outer - (trace / m)[..., None, None] * np.eye(m)) @ v_root_inv
    return _dup_t_vec(s) / (2.0 * np.sqrt(n))


def inv_sqrt(v):
    """V^(-1/2) of symmetric positive-definite matrices, by eigendecomposition;
    ``LinAlgError`` where one is not positive definite."""
    w, e = np.linalg.eigh(0.5 * (v + np.swapaxes(v, -1, -2)))
    if np.any(w[..., 0] <= 0.0):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return (e / np.sqrt(w)[..., None, :]) @ np.swapaxes(e, -1, -2)


def r_step_square_root(data, v, scale, tables):
    """``estimators.r_step_batch`` with every V^-1 use in its square-root
    form: V^(-1/2) by ``inv_sqrt``, the rank statistics by
    ``rank_delta_row_major``, and the step Xi Delta with Xi from the dense
    Upsilon of V^(-1/2) and the tangent basis U (``dense_xi``)."""
    n, m = data.shape[-2:]
    root_n = np.sqrt(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_star = renormalize(scale, v)
        root_inv = _stacked(inv_sqrt, v_star)
        delta0 = rank_delta_row_major(data, root_inv, tables)
        step = (dense_xi(scale, v_star) @ delta0[..., None])[..., 0]
        base = vecs(v_star)
        v_probe = renormalize(scale, unvecs(base + step / root_n, m))
        delta1 = rank_delta_row_major(data, _stacked(inv_sqrt, v_probe), tables)
        denom = np.sum(delta0 * delta0, axis=-1)
        alpha_hat = np.sum((delta0 - delta1) * delta0, axis=-1) / denom
        alpha_hat[denom <= 0.0] = 0.0
        rejected = ~(np.isfinite(alpha_hat) & (alpha_hat > 0.0))
        moved = unvecs(base + step / (alpha_hat[..., None] * root_n), m)
    v_new = np.where(rejected[..., None, None], v_star, moved)
    failed = ~(np.isfinite(step).all(axis=-1) & np.isfinite(delta1).all(axis=-1))
    v_new[failed] = np.nan
    return v_new, alpha_hat, rejected
