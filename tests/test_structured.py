"""The structured vecs-space forms against their dense Kronecker oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import linalg as scipy_linalg
from scipy.linalg import toeplitz

import dense_oracles as dense
from ellipfim import bounds, estimators, fim, matcalc
from ellipfim.bounds import BoundSet, bound_set, verify_chain, write_bounds_csv
from ellipfim.complexces import (
    embedded_location_parameterization,
    embedded_lowrank_parameterization,
    embedded_rectilinear_parameterization,
)
from ellipfim.estimators import VanDerWaerden, r_step_batch, scm_batch
from ellipfim.generators import gaussian, generalized_gaussian, sample, student_t
from ellipfim.invariants import ALL_SCALES
from ellipfim.matcalc import (
    _dup_t_vec,
    commutation_matrix,
    dup_pinv,
    duplication_matrix,
    ovecs,
    vec,
    vecs,
    vecs_len,
)
from ellipfim.parameterize import (
    ADAPTIVITY_TOL,
    LowRankModel,
    breaking_example,
    breaking_parameterization,
    condition_check,
    fd_jacobian,
    identity_parameterization,
    linear_split_parameterization,
    low_rank_example,
    low_rank_parameterization,
    shape_scale_example,
    shape_scale_parameterization,
    sinusoid_steering,
    split_example,
    split_parameterization,
    verify_adaptivity_by_fim,
)
from ellipfim.scale import (
    NORMALIZED_TRACE,
    constraint_gradient_vecs,
    decompose,
    jacobian_w,
    renormalize,
    u_basis,
)
from ellipfim.simulate import SimConfig, run_simulation

GENS = [gaussian(), student_t(6), generalized_gaussian(0.5)]
RTOL = 1e-12


def assert_close(got, want):
    # entries that vanish analytically (the det-scale cross blocks) come
    # out as rounding noise on both sides, so they get an absolute floor
    want = np.asarray(want, dtype=float)
    atol = RTOL * max(float(np.linalg.norm(want)), 1.0)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=atol)


def random_sigma(rng, m):
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


@pytest.mark.parametrize("m", range(1, 9))
def test_structural_matrices_match_loop_oracles(m):
    np.testing.assert_array_equal(duplication_matrix(m), dense.duplication_loops(m))
    np.testing.assert_array_equal(commutation_matrix(m), dense.commutation_loops(m))
    np.testing.assert_allclose(dup_pinv(m), dense.dup_pinv_solve(m), rtol=0, atol=1e-15)
    a = np.random.default_rng(m).standard_normal((3, m, m))
    np.testing.assert_array_equal(_dup_t_vec(a), vec(a) @ dense.duplication_loops(m))


@pytest.mark.parametrize("build", [duplication_matrix, commutation_matrix, dup_pinv])
def test_cached_structural_matrices_are_read_only(build):
    first = build(4)
    assert build(4) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 2.0


@pytest.mark.parametrize("gen", GENS, ids=str)
@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 9])
def test_structured_forms_match_dense_oracles(m, scale, gen):
    rng = np.random.default_rng(100 * m + len(scale.kind))
    sigma = random_sigma(rng, m)
    dec = decompose(scale, sigma)
    v, s = dec.v, dec.s

    assert_close(bounds.crb_shape(scale, v, gen), dense.crb_shape(scale, v, gen))
    assert_close(bounds.crb_shape_det_root(v, gen), dense.crb_shape_det_root(v, gen))
    value, psi = dense.crb_scale(scale, v, s, gen)
    got = bounds.crb_scale(scale, v, s, gen)
    assert got.value == pytest.approx(value, rel=RTOL)
    assert_close(got.psi, psi)
    assert_close(bounds.crb_vecs_sigma(sigma, gen), dense.crb_vecs_sigma(sigma, gen))

    blocks = fim.fim_eta(v, s, scale, gen)
    i_v, i_vs = dense.fim_eta_shape(v, s, scale, gen)
    assert_close(blocks.i_v, i_v)
    assert_close(blocks.i_vs, i_vs)
    assert_close(fim.efficient_fim_shape(v, scale, gen), dense.efficient_fim_shape(v, scale, gen))
    assert_close(fim.fim_vecs_sigma(sigma, gen), dense.fim_vecs_sigma(sigma, gen))
    assert_close(dense.jacobian_w_inv(scale, sigma) @ jacobian_w(scale, v, s), np.eye(vecs_len(m)))

    # per-sample scores through vec(E_l), E_l = phibar(Q_l) w_l w_l^T - Sigma^-1
    x = rng.standard_normal((5, m))
    sigma_inv = np.linalg.inv(sigma)
    w = x @ sigma_inv
    phi = gen.phi_bar(np.sum(x * w, axis=1), m)
    e = vec(phi[:, None, None] * w[:, :, None] * w[:, None, :] - sigma_inv)
    score = fim.score_eta(x, np.zeros(m), v, s, scale, gen)
    assert_close(score[:, m:-1], 0.5 * s * e @ dense.m_matrix(scale, v).T)
    assert_close(
        fim.score_vecs_sigma(x, np.zeros(m), sigma, gen),
        0.5 * e @ dense.duplication_loops(m),
    )


@pytest.mark.parametrize("shape", [(3, 2), (3, 5), (2, 3, 4), (4, 32)])
def test_stacked_core_matches_per_item_calls(shape):
    # (4, 32) fills the rows in 36 blocks of at most 15, the last one partial
    *stack, m = shape
    rng = np.random.default_rng(m)
    a = rng.standard_normal((*stack, m, m))
    out = dense.core_by_row_blocks(a)
    for idx in np.ndindex(*stack):
        np.testing.assert_array_equal(out[idx], dense.core_by_row_blocks(a[idx]))


@pytest.mark.parametrize("shape", [(31,), (32,), (33,), (3, 32)])
def test_core_row_blocks_keep_the_bits_and_match_the_dense_oracle(shape, monkeypatch):
    *stack, m = shape
    nh, items = vecs_len(m), int(np.prod(stack))
    step = matcalc._CORE_BLOCK_DOUBLES // (nh * items)
    assert 1 <= step < nh and nh % step  # several row blocks, the last one partial
    b = np.random.default_rng(m).standard_normal((*stack, m, m))
    a = b @ np.swapaxes(b, -1, -2) / m + np.eye(m)
    out = dense.core_by_row_blocks(a)
    monkeypatch.setattr(matcalc, "_CORE_BLOCK_DOUBLES", nh * nh * items + 1)
    np.testing.assert_array_equal(out, dense.core_by_row_blocks(a))  # one block, the same bits
    for idx in np.ndindex(*stack):
        assert_close(out[idx], dense.sym_kron_core(a[idx]))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 9])
def test_r_step_gram_matches_dense_upsilon(m, monkeypatch):
    # the step r_step_batch takes from its rank statistics, for a stack of 3
    # trials on every scale, is Xi Delta with Xi from the dense Upsilon and U
    n = vecs_len(m) + 20
    data = np.random.default_rng(m).standard_normal((3, n, m))
    calls = []
    tangent_step = estimators._tangent_step

    def capture(v_star, g, delta):
        calls.append((v_star, delta, tangent_step(v_star, g, delta)))
        return calls[-1][-1]

    monkeypatch.setattr(estimators, "_tangent_step", capture)
    for scale in ALL_SCALES:
        v = scm_batch(data, scale)
        r_step_batch(data, v, scale, VanDerWaerden().table(n, m)[None])
        v_star, delta, step = calls.pop()
        np.testing.assert_array_equal(v_star, renormalize(scale, v))
        assert_close(step, (dense.dense_xi(scale, v_star) @ delta[..., None])[..., 0])


def _fill_scatter(case):
    if case == "spd32":  # values that repeat only through symmetry
        return random_sigma(np.random.default_rng(32), 32)
    return toeplitz(0.8 ** np.arange(int(case[1:])))


@pytest.mark.parametrize("gen", GENS, ids=str)
@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("case", ["m2", "m3", "m4", "m8", "m32", "spd32"])
def test_vecs_fill_outputs_are_bitwise_symmetric(case, scale, gen):
    # every bound and FIM of the one row-block fill is exactly symmetric,
    # with no symmetrizing pass; at m = 32 it spans several row blocks
    sigma = _fill_scatter(case)
    v = decompose(scale, sigma).v
    outs = {
        "crb_shape": bounds.crb_shape(scale, v, gen),
        "crb_shape_det_root": bounds.crb_shape_det_root(v, gen),
        "crb_vecs_sigma": bounds.crb_vecs_sigma(sigma, gen),
        "fim_eta.i_v": fim.fim_eta(v, 1.3, scale, gen).i_v,
        "efficient_fim_shape": fim.efficient_fim_shape(v, scale, gen),
        "fim_vecs_sigma": fim.fim_vecs_sigma(sigma, gen),
    }
    for name, x in outs.items():
        np.testing.assert_array_equal(x, x.T, err_msg=name)


@pytest.mark.parametrize("m", [2, 3, 4, 8, 32])
def test_upsilon_gram_stack_is_bitwise_symmetric(m):
    rng = np.random.default_rng(m)
    v = np.stack([random_sigma(rng, m) for _ in range(5)])
    gram = dense.upsilon_gram(np.linalg.inv(v))
    np.testing.assert_array_equal(gram, np.swapaxes(gram, -1, -2))


@pytest.mark.parametrize("gen", GENS, ids=str)
@pytest.mark.parametrize("name", ["split", "low_rank", "shape_scale", "shape_scale_m32"])
def test_theta_fims_are_bitwise_symmetric(name, gen):
    # both FIMs of theta and their Schur complements I_g - W^T W are exactly
    # symmetric as built; at m = 32 shape_scale has q = 559, a large syrk
    rng = np.random.default_rng(8)
    param, theta0 = {
        "split": lambda: split_example(rng, 8, 2, 0.7),
        "low_rank": lambda: low_rank_example(rng, 8, np.array([0.6, 1.7]), 0.8),
        "shape_scale": lambda: shape_scale_example(NORMALIZED_TRACE, 8, 0.7, 1.3),
        "shape_scale_m32": lambda: shape_scale_example(NORMALIZED_TRACE, 32, 0.7, 1.3),
    }[name]()
    fims = [fim.fim_theta(param, theta0, gen), fim.sfim_theta(param, theta0, gen)]
    report = verify_adaptivity_by_fim(param, theta0, gen)
    outs = [*fims, *(fim.efficient_fim_interest(x, param.q) for x in fims),
            report.fim_interest, report.sfim_interest]
    for x in outs:
        np.testing.assert_array_equal(x, x.T)


def test_every_blocked_loop_keeps_its_bits_at_any_block_size(monkeypatch, tmp_path):
    # fim and bounds hold no block size of their own, the CSV writer's line
    # chunks included: matcalc._row_slices slices every blocked loop, so a
    # block of 7 doubles moves every block boundary (at m = 8 each loop is
    # one block at the default size)
    assert not hasattr(fim, "_CORE_BLOCK_DOUBLES") and not hasattr(bounds, "_CORE_BLOCK_DOUBLES")
    m = 8
    rng = np.random.default_rng(8)
    models = [
        split_example(rng, m, 2, 0.7),
        shape_scale_example(NORMALIZED_TRACE, m, 0.7, 1.3),
        low_rank_example(rng, m, np.array([0.6, 1.7]), 0.8),
    ]
    sigma = toeplitz(0.8 ** np.arange(m))
    v = decompose(NORMALIZED_TRACE, sigma).v
    v_inv = np.linalg.inv(np.stack([random_sigma(rng, m) for _ in range(3)]))
    gen = student_t(6)

    def outputs():
        out = []
        for param, theta0 in models:
            report = verify_adaptivity_by_fim(param, theta0, gen)
            out += [report.fim_interest, report.sfim_interest, report.condition.residual,
                    report.gap, report.gap_rel]
            _, sigma, j_mu, j_sig = fim._jacobians(param, theta0)
            out += fim._whitened_rows(sigma, j_mu, j_sig)
        out += [link.value for link in verify_chain(NORMALIZED_TRACE, v, [gen, gaussian()], m).links]
        bset = bound_set(NORMALIZED_TRACE, sigma, gen)
        out += bset.blocks().values()
        write_bounds_csv(bset, tmp_path / "bounds.csv")
        out.append(np.frombuffer((tmp_path / "bounds.csv").read_bytes(), dtype=np.uint8))
        out.append(dense.upsilon_gram(v_inv))
        return [np.asarray(x) for x in out]

    want = outputs()
    monkeypatch.setattr(matcalc, "_CORE_BLOCK_DOUBLES", 7)
    got = outputs()
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("m", [2, 3, 4, 6, 10])
def test_tangent_step_matches_xi_oracle(m, scale):
    # the closed-form solve from V* against Xi Delta, Xi built from the
    # dense Upsilon and the tangent basis
    rng = np.random.default_rng(m)
    v = renormalize(scale, np.stack([random_sigma(rng, m) for _ in range(6)]))
    g = constraint_gradient_vecs(scale, v)
    delta = rng.standard_normal((3, 6, vecs_len(m)))
    step = estimators._tangent_step(v, g, delta)
    assert_close(step, (dense.dense_xi(scale, v) @ delta[..., None])[..., 0])
    # trial 1's V* is NaN, trial 2's is not positive definite and trial 5's
    # gradient is orthogonal to vecs(V*): their steps are NaN, and the
    # other trials keep their bits
    bad_v, bad_g = v.copy(), g.copy()
    bad_v[1, 0, 0] = np.nan
    bad_v[2] *= -1.0
    n0 = vecs(v[5])
    bad_g[5] = 0.0
    bad_g[5, :2] = n0[1], -n0[0]
    assert np.sum(bad_g[5] * n0) == 0.0
    got = estimators._tangent_step(bad_v, bad_g, delta)
    assert np.isnan(got[:, [1, 2, 5]]).all()
    np.testing.assert_array_equal(got[:, [0, 3, 4]], step[:, [0, 3, 4]])


@given(
    st.integers(2, 10),
    st.sampled_from(ALL_SCALES),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_tangent_step_is_xi_delta_at_random_spd_shapes(m, scale, seed):
    # over random SPD V* with a spread of eigenvalues, on every scale
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v = renormalize(scale, (q * np.exp(rng.uniform(-2.0, 2.0, m))) @ q.T)[None]
    delta = rng.standard_normal((2, 1, vecs_len(m)))
    step = estimators._tangent_step(v, constraint_gradient_vecs(scale, v), delta)
    want = (dense.dense_xi(scale, v) @ delta[..., None])[..., 0]
    np.testing.assert_allclose(step, want, rtol=1e-9, atol=1e-11 * np.abs(want).max())


def _models(m, rng):
    sigma0 = random_sigma(rng, m)
    h = rng.standard_normal((m, 2))
    dec = decompose(NORMALIZED_TRACE, sigma0)
    yield linear_split_parameterization(h, m), np.concatenate(
        [rng.standard_normal(2), vecs(sigma0)]
    )
    yield shape_scale_parameterization(NORMALIZED_TRACE, m), np.concatenate(
        [rng.standard_normal(m), vecs(dec.v)[1:], [dec.s]]
    )
    yield identity_parameterization(m), np.concatenate([np.zeros(m), vecs(sigma0)])
    yield breaking_parameterization(sigma0), np.array([1.3])


@pytest.mark.parametrize("gen", GENS, ids=str)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_theta_fims_match_dense_oracles(m, gen):
    rng = np.random.default_rng(m)
    for param, theta0 in _models(m, rng):
        assert_close(fim.fim_theta(param, theta0, gen), dense.fim_theta(param, theta0, gen))
        assert_close(fim.sfim_theta(param, theta0, gen), dense.sfim_theta(param, theta0, gen))


def _builder_models_at(m, rng):
    """(label, param, theta0) for each builder that takes any m, and the
    finite-difference fallback."""
    sigma0 = random_sigma(rng, m)
    h = rng.standard_normal((m, 2))
    yield f"linear_split-m{m}", linear_split_parameterization(h, m), np.concatenate(
        [rng.standard_normal(2), vecs(sigma0)]
    )
    # finite-difference Jacobians
    yield f"split_fd-m{m}", split_parameterization(
        2, vecs_len(m), lambda g: h @ g, lambda xi: matcalc.unvecs(xi, m)
    ), np.concatenate([rng.standard_normal(2), vecs(sigma0)])
    for scale in ALL_SCALES:
        dec = decompose(scale, sigma0)
        yield f"shape_scale_{scale.kind}-m{m}", shape_scale_parameterization(
            scale, m
        ), np.concatenate([rng.standard_normal(m), ovecs(dec.v), [dec.s]])
    yield f"identity-m{m}", identity_parameterization(m), np.concatenate(
        [np.zeros(m), vecs(sigma0)]
    )
    yield f"breaking-m{m}", breaking_parameterization(sigma0), np.array([1.3])


def _builder_models():
    """(label, param, theta0) for every parameterization builder of
    ``parameterize`` and ``complexces``, and the finite-difference
    fallback; low_rank at m=2, p=2 has more coordinates than vecs(Sigma)
    and is rank deficient."""
    rng = np.random.default_rng(7)
    for m in (2, 4):
        yield from _builder_models_at(m, rng)
    for m, p in ((2, 2), (6, 2)):
        a_fn, a_jac = sinusoid_steering(m)
        model = LowRankModel(a_fn, a_jac, np.array([[2.0, 0.3], [0.3, 1.0]]), 0.8, p)
        yield f"low_rank-m{m}-p{p}", low_rank_parameterization(model), model.theta0([0.6, 1.7])

    m, p, q = 3, 2, 2
    j = np.arange(m)[:, None]

    def a_c(gamma):
        return np.exp(1j * np.pi * j * np.sin(gamma)[None, :])

    def a_c_jac(gamma):
        out = np.zeros((m, p, q), dtype=complex)
        for k in range(q):
            out[:, k, k] = 1j * np.pi * j[:, 0] * np.cos(gamma[k]) * a_c(gamma)[:, k]
        return out

    b = rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))
    yield "embedded_location", embedded_location_parameterization(
        lambda g: b @ g, lambda g: b, np.eye(m) + 0.2, None, q
    ), rng.standard_normal(q)
    gamma0 = np.array([0.3, 1.1])
    xi_r = np.array([[2.0, 0.3], [0.3, 1.0]])
    param, theta0_fn = embedded_lowrank_parameterization(a_c, a_c_jac, p, q)
    xi_c = xi_r + 0.3j * np.array([[0, 1], [-1, 0]])
    yield "embedded_lowrank", param, theta0_fn(gamma0, xi_c, 0.7)
    param, theta0_fn = embedded_rectilinear_parameterization(a_c, a_c_jac, p, q)
    yield "embedded_rectilinear", param, theta0_fn(gamma0, xi_r, 0.7)


_BUILDER_MODELS = list(_builder_models())


@pytest.mark.parametrize(
    "label, param, theta0", _BUILDER_MODELS, ids=[c[0] for c in _BUILDER_MODELS]
)
def test_analytic_jacobians_match_finite_differences(label, param, theta0):
    got = param.jacobian_sigma(theta0)
    fd = np.moveaxis(fd_jacobian(param.sigma_fn, theta0), -1, 0)
    m = np.asarray(param.sigma_fn(theta0)).shape[0]
    assert got.shape == fd.shape == (param.d, m, m)
    atol = 1e-6 * max(1.0, np.abs(got).max())
    for i, (slice_got, slice_fd) in enumerate(zip(got, fd)):
        np.testing.assert_allclose(slice_got, slice_fd, rtol=0, atol=atol, err_msg=f"Sigma_{i}")


def _rows(param, theta0):
    """The whitened rows on which ``model_geometry`` decides identifiability."""
    _, sigma, j_mu, j_sig = fim._jacobians(param, theta0)
    return fim._whitened_rows(sigma, j_mu, j_sig)[0]


@pytest.mark.parametrize(
    "label, param, theta0", _BUILDER_MODELS, ids=[c[0] for c in _BUILDER_MODELS]
)
def test_identifiability_rank_on_vecs_rows_matches_the_full_stack(label, param, theta0):
    _, sigma, j_mu, j_sig = fim._jacobians(param, theta0)
    l_inv = np.linalg.inv(np.linalg.cholesky(sigma))
    # the whitened (m + m^2) x d oracle [L^-1 J_mu; vec(G_i)]
    full = np.vstack([l_inv @ j_mu, vec(l_inv @ j_sig @ l_inv.T).T])
    stack = _rows(param, theta0).T
    m = j_mu.shape[0]
    assert stack.shape == (m + vecs_len(m), full.shape[1])
    assert np.linalg.norm(stack) == pytest.approx(np.linalg.norm(full), rel=1e-14)
    sv_full = np.linalg.svd(full, compute_uv=False)
    sv = np.linalg.svd(stack, compute_uv=False)
    # the vecs rows drop only zero singular values
    sv = np.concatenate([sv, np.zeros(len(sv_full) - len(sv))])
    np.testing.assert_allclose(sv, sv_full, rtol=0, atol=1e-13 * sv_full[0])
    # the rank with every column scaled to unit norm
    unit = full / np.linalg.norm(full, axis=0)
    rank_full = np.linalg.matrix_rank(unit, tol=1e-10 * np.sqrt(full.shape[1]))
    assert fim._identifiable(stack.T) == (rank_full == full.shape[1])
    assert (rank_full == full.shape[1]) == (label != "low_rank-m2-p2")


@pytest.mark.parametrize("s", [1e-200, 1e-12, 1e12, 1e200])
def test_identifiability_does_not_depend_on_the_scale_of_a_coordinate(s):
    # the shape columns grow with s while the scale column vec(V) does not
    m = 4
    dec = decompose(NORMALIZED_TRACE, toeplitz(0.8 ** np.arange(m)))
    theta0 = np.concatenate([np.zeros(m), ovecs(dec.v), [s]])
    assert fim._identifiable(_rows(shape_scale_parameterization(NORMALIZED_TRACE, m), theta0))


def test_a_coordinate_that_moves_nothing_is_not_identifiable():
    j_sig = np.stack([np.eye(2), np.zeros((2, 2))])
    assert not fim._identifiable(fim._whitened_rows(np.eye(2), np.zeros((2, 2)), j_sig)[0])


def test_identifiability_of_a_non_finite_stack_is_false_without_an_svd(monkeypatch):
    # a derivative beyond the float range has no rank to test
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda *a, **k: pytest.fail("SVD called"))
    j_sig = np.array([[[1.0, np.inf], [np.inf, 1.0]]])
    assert not fim._identifiable(fim._whitened_rows(np.eye(2), np.zeros((2, 1)), j_sig)[0])


def test_adaptivity_check_builds_the_geometry_once(monkeypatch):
    m = 4
    rng = np.random.default_rng(2)
    param, theta0 = next(_models(m, rng))
    calls = {"jacobian": 0, "identifiable": 0}
    jac = param.jac_sigma

    def counted_jac(theta):
        calls["jacobian"] += 1
        return jac(theta)

    identifiable = fim._identifiable

    def counted_identifiable(*args):
        calls["identifiable"] += 1
        return identifiable(*args)

    param.jac_sigma = counted_jac
    monkeypatch.setattr(fim, "_identifiable", counted_identifiable)
    # the QR rank certificate decides this well-conditioned model
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda *a, **k: pytest.fail("SVD called"))
    report = verify_adaptivity_by_fim(param, theta0, student_t(6))
    assert report.adaptive and report.condition.satisfied
    assert calls == {"jacobian": 1, "identifiable": 1}


def _unit_stack(d, sigma_min, rng):
    """A (d + 10) x d matrix of unit columns with smallest singular value
    sigma_min: orthonormal columns, but column d // 2 turned towards column
    0 to the angle t with sqrt(2) sin(t / 2) = sigma_min (the Gram block of
    the pair has eigenvalues 1 -+ cos t)."""
    q, _ = np.linalg.qr(rng.standard_normal((d + 10, d)))
    t = 2.0 * np.arcsin(sigma_min / np.sqrt(2.0))
    q[:, d // 2] = np.cos(t) * q[:, 0] + np.sin(t) * q[:, d // 2]
    return q


def _count_svds(monkeypatch):
    calls = []
    rank = np.linalg.matrix_rank

    def counted(*args, **kwargs):
        calls.append(1)
        return rank(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    return calls


@pytest.mark.parametrize("d", [5, 60, 300])
def test_rank_certificate_agrees_with_the_svd(d, monkeypatch):
    tol = 1e-10 * np.sqrt(d)
    c_tol = fim._RANK_CERTIFICATE_MARGIN * tol
    rng = np.random.default_rng(d)
    for sigma_min in [0.0, 1e-12, tol / 2, 2 * tol, c_tol / 2, 2 * c_tol, 1e-3, 1.0]:
        u = _unit_stack(d, sigma_min, rng)
        full_rank = np.linalg.matrix_rank(u, tol=tol) == d
        assert full_rank == (sigma_min > tol)
        svds = _count_svds(monkeypatch)
        assert fim._identifiable(u.T) == full_rank, sigma_min
        assert (not svds) == (sigma_min > c_tol), sigma_min
        monkeypatch.undo()


def test_a_model_without_coordinates_is_identifiable_silently(capfd):
    rows, _ = fim._whitened_rows(np.eye(2), np.zeros((2, 0)), np.zeros((0, 2, 2)))
    assert fim._identifiable(rows)
    assert capfd.readouterr() == ("", "")


def test_a_wide_stack_is_not_identifiable_without_an_svd(monkeypatch):
    u = np.random.default_rng(0).standard_normal((3, 5))
    svds = _count_svds(monkeypatch)
    assert not fim._identifiable(u.T)
    assert not svds


_CERTIFIED_MODELS = _BUILDER_MODELS + list(_builder_models_at(32, np.random.default_rng(32)))


@pytest.mark.parametrize(
    "label, param, theta0", _CERTIFIED_MODELS, ids=[c[0] for c in _CERTIFIED_MODELS]
)
def test_the_builder_models_need_no_svd(label, param, theta0, monkeypatch):
    # every identifiable model passes the rank certificate, and the rank
    # deficient low_rank-m2-p2 has fewer stack rows than coordinates
    rows = _rows(param, theta0)
    svds = _count_svds(monkeypatch)
    assert fim._identifiable(rows) == (label != "low_rank-m2-p2")
    assert not svds


@pytest.mark.parametrize("label", ["split", "low_rank"])
def test_adaptivity_check_factors_each_nuisance_block_once(monkeypatch, label):
    m = 4
    if label == "split":
        param, theta0 = next(_models(m, np.random.default_rng(2)))
    else:
        a_fn, a_jac = sinusoid_steering(m)
        model = LowRankModel(a_fn=a_fn, a_jac=a_jac, signal_cov=np.eye(1), noise_level=0.8, q=1)
        param, theta0 = low_rank_parameterization(model), model.theta0([0.3])
    gen = student_t(6)
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append((name, np.shape(args[0]) if name == "cho_factor" else None))
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(scipy_linalg, "cho_factor", counted("cho_factor", scipy_linalg.cho_factor))
    for name in ("_theta_fim", "_whitened_rows"):
        monkeypatch.setattr(fim, name, counted(name, getattr(fim, name)))
    report = verify_adaptivity_by_fim(param, theta0, gen)
    # one whitening of the Jacobian, one FIM of theta (the parametric one)
    # and one factor of its nuisance block: the SFIM's complement is the
    # rank-one update of the parametric one
    want = [("_whitened_rows", None), ("_theta_fim", None), ("cho_factor", (param.r, param.r))]
    assert sorted(calls, key=str) == sorted(want, key=str)
    monkeypatch.undo()
    # the shared factor gives what the public functions give one by one
    full = fim.fim_theta(param, theta0, gen)
    np.testing.assert_array_equal(report.fim_interest, fim.efficient_fim_interest(full, param.q))
    cond = condition_check(param, theta0, gen)
    for field in ("residual", "interest_term", "scaled_residual"):
        np.testing.assert_array_equal(getattr(report.condition, field), getattr(cond, field))
    assert report.condition.satisfied == cond.satisfied
    assert report.condition.tol == cond.tol == ADAPTIVITY_TOL


# ---------------------------------------------------------------------------
# the bounds CSV writer
# ---------------------------------------------------------------------------


def per_entry_writer(bset, path):
    """The writer as it was: one write per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("block,row,col,value\n")
        for name, mat in bset.blocks().items():
            mat = np.atleast_2d(mat)
            for i in range(mat.shape[0]):
                for j in range(mat.shape[1]):
                    fh.write(f"{name},{i},{j},{mat[i, j]:.17g}\n")


def _bound_sets():
    for m in (2, 4, 9):
        sigma = toeplitz(0.8 ** np.arange(m))
        for scale in ALL_SCALES:
            yield bound_set(scale, sigma, student_t(6))
    yield BoundSet(
        crb_mu=np.array([[1.0, -0.0], [1e300, 5e-324]]),
        crb_shape=np.array([[0.1, 0.2, 1.0 / 3.0], [-2.5e-7, 7.0, 1e-310]]),
        crb_scale=-0.0,
        psi_cross=np.array([np.pi, -1e300]),
        crb_vecs_sigma=np.array([[5e-324]]),
        scale_kind="trace",
        generator="hand",
        m=2,
        s=1.0,
    )
    # bit patterns that a dedupe on values would merge or mirror wrongly
    z, nz, nan, inf, tiny = 0.0, -0.0, np.nan, np.inf, 5e-324
    yield BoundSet(
        # equal to its transpose as values, not as bits
        crb_mu=np.array([[1.0, z, 2.0], [nz, 1.0, z], [2.0, nz, 1.0]]),
        # bitwise symmetric, with both zeros, nan, +-inf and repeats
        crb_shape=np.array(
            [[z, nz, nan, 1.5], [nz, inf, tiny, z], [nan, tiny, -inf, 1.5], [1.5, z, 1.5, nz]]
        ),
        crb_scale=tiny,
        psi_cross=np.array([z, nz, nan, inf, -inf, tiny, -tiny, z, nz, nan]),
        crb_vecs_sigma=np.array([[z, nz, z], [tiny, -tiny, tiny]]),
        scale_kind="trace",
        generator="signed-zeros",
        m=3,
        s=1.0,
    )
    # about half the entries distinct: no repeats beyond the symmetry
    yield bound_set(NORMALIZED_TRACE, random_sigma(np.random.default_rng(12), 12), student_t(6))


@pytest.mark.parametrize("bset", list(_bound_sets()), ids=lambda b: f"{b.generator}-m{b.m}-{b.scale_kind}")
def test_write_bounds_csv_bytes_match_per_entry_writer(tmp_path, monkeypatch, bset):
    per_entry_writer(bset, tmp_path / "entries.csv")
    want = (tmp_path / "entries.csv").read_bytes()
    write_bounds_csv(bset, tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_bytes() == want
    # a few rows per chunk and three values per format string: every block
    # spans chunks and format slices, and most end on a short one
    monkeypatch.setattr(matcalc, "_CORE_BLOCK_DOUBLES", 25)  # 200 bytes
    monkeypatch.setattr(bounds, "_FORMAT_SLICE", 3)
    write_bounds_csv(bset, tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_bytes() == want


_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, -0.0, 1.0])
)


@st.composite
def _blocks(draw):
    """A 1..6 x 1..6 block; half are square and symmetrized as x + x^T."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        x = draw(hnp.arrays(float, (n, n), elements=_ENTRIES))
        with np.errstate(over="ignore", invalid="ignore"):
            return x + x.T
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    return draw(hnp.arrays(float, shape, elements=_ENTRIES))


@given(_blocks(), _blocks(), _blocks(), _blocks(), _ENTRIES)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_write_bounds_csv_bytes_match_per_entry_writer_on_drawn_blocks(
    tmp_path_factory, mu, shape, psi, sigma, scale
):
    bset = BoundSet(
        crb_mu=mu,
        crb_shape=shape,
        crb_scale=scale,
        psi_cross=psi.ravel(),
        crb_vecs_sigma=sigma,
        scale_kind="trace",
        generator="drawn",
        m=1,
        s=1.0,
    )
    out = tmp_path_factory.mktemp("writer")
    write_bounds_csv(bset, out / "rows.csv")
    per_entry_writer(bset, out / "entries.csv")
    assert (out / "rows.csv").read_bytes() == (out / "entries.csv").read_bytes()


@pytest.mark.parametrize("kind", ["toeplitz", "random_spd"])
def test_write_bounds_csv_at_m32_holds_less_than_the_csv(tmp_path, kind):
    m = 32
    if kind == "toeplitz":
        sigma = toeplitz(0.8 ** np.arange(m))
    else:
        sigma = random_sigma(np.random.default_rng(32), m)
    bset = bound_set(NORMALIZED_TRACE, sigma, student_t(6))
    path = tmp_path / "bounds.csv"
    tracemalloc.start()
    try:
        write_bounds_csv(bset, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size  # about 22.8 MB


def test_write_bounds_csv_formats_an_all_distinct_block_in_slices(tmp_path):
    # a 528 x 528 block with no repeated value, the m=32 crb_vecs_sigma size:
    # formatted as one text, the writer peaked at 21.4 MiB
    x = np.random.default_rng(528).standard_normal((528, 528))
    bset = BoundSet(
        crb_mu=np.ones((1, 1)),
        crb_shape=np.ones((1, 1)),
        crb_scale=1.0,
        psi_cross=np.ones(1),
        crb_vecs_sigma=x,
        scale_kind="trace",
        generator="distinct",
        m=32,
        s=1.0,
    )
    path = tmp_path / "bounds.csv"
    tracemalloc.start()
    try:
        write_bounds_csv(bset, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 4 + x.size
    assert lines[-1] == f"crb_vecs_sigma,527,527,{x[-1, -1]:.17g}".encode()


def percent_g17(values):
    """The oracle: CPython's ``"%-24.17g" % v`` of each value, as (N, 24) bytes."""
    text = ("%-24.17g" * len(values)) % tuple(np.asarray(values, dtype=float).tolist())
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 24)


def assert_formats_as_percent(values):
    values = np.asarray(values, dtype=float)
    for k in range(0, values.size, bounds._FORMAT_SLICE):
        part = values[k : k + bounds._FORMAT_SLICE]
        assert part.size >= bounds._G17_MIN_VALUES  # the kernel, not its % fallback
        got, want = bounds._format_g17(part), percent_g17(part)
        assert got.shape == want.shape
        bad = np.flatnonzero((got != want).any(axis=1))
        assert not bad.size, [(repr(part[i]), got[i].tobytes(), want[i].tobytes()) for i in bad[:5]]


@given(hnp.arrays(float, st.integers(0, 40), elements=st.floats()))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_format_g17_matches_percent_on_drawn_floats(values):
    # st.floats() draws NaN, +-inf, +-0 and subnormals besides normal values;
    # the kernel takes vectors this short too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_G17_MIN_VALUES", 0)
        assert_formats_as_percent(values)


def test_format_g17_matches_percent_in_every_decade_from_1e_minus_20_to_1e20():
    rng = np.random.default_rng(17)
    size = 1 << 20
    decade = rng.integers(-20, 20, size)
    sign = rng.choice([-1.0, 1.0], size)
    values = sign * rng.uniform(1.0, 10.0, size) * 10.0**decade
    assert len(np.unique(2 * decade + (sign > 0))) == 80
    assert_formats_as_percent(values)


def test_format_g17_matches_percent_next_to_powers_of_ten():
    values = []
    for k in range(-20, 21):
        # the largest double below 10**k: at k = -14 it rounds up to 1e-14
        below = float(f"1e{k}")
        if Fraction(below) >= Fraction(10) ** k:
            below = math.nextafter(below, 0.0)
        values += [below, math.nextafter(below, 0.0), math.nextafter(below, math.inf)]
        if -17 <= k <= 16:
            power = float(f"1e{k}")
            values += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    # the ends of the range the kernel lays out itself
    for end in (1e-16, 1e16):
        values += [end, math.nextafter(end, 0.0), math.nextafter(end, math.inf)]
    values = np.array(values)
    assert "%.17g" % 1e-14 == "1e-14" and 1e-14 in values
    assert_formats_as_percent(np.concatenate([values, -values]))


def test_format_g17_rounds_exact_halves_to_even():
    # odd / 4 in [2**50, 2**51) and odd / 8 in [2**49, 2**50): 10 v, or
    # 100 v, ends in exactly .5 at the 17th digit
    rng = np.random.default_rng(50)
    odd = rng.integers(2**51, 2**52, 4096) * 2 + 1
    values = np.concatenate([odd / 4, odd / 8])
    half = Fraction(1, 2)
    assert all(Fraction(v) * 10 % 1 == half for v in values[:4096])
    # below 1e15 the 17th digit of odd / 8 is its second after the point
    assert all(Fraction(v) * 100 % 1 == half for v in values[4096:] if v < 1e15)
    assert_formats_as_percent(np.concatenate([values, -values]))


# ---------------------------------------------------------------------------
# large m
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_crb_shape_inverts_efficient_fim_at_m48(scale):
    m = 48
    v = decompose(scale, toeplitz(0.8 ** np.arange(m))).v
    gen = student_t(6)
    prod = bounds.crb_shape(scale, v, gen) @ fim.efficient_fim_shape(v, scale, gen)
    assert np.abs(prod - np.eye(prod.shape[0])).max() < 1e-8


def test_bound_set_m64_never_holds_an_m2_by_m2_array():
    m = 64
    one_kron_bytes = (m * m) ** 2 * 8  # 134 MB
    sigma = toeplitz(0.8 ** np.arange(m))
    tracemalloc.start()
    try:
        bset = bound_set(NORMALIZED_TRACE, sigma, student_t(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_kron_bytes
    assert bset.crb_vecs_sigma.shape == (m * (m + 1) // 2,) * 2


def test_compute_paths_never_build_the_duplication_matrix():
    duplication_matrix.cache_clear()
    m, gen = 4, student_t(6)
    sigma = toeplitz(0.8 ** np.arange(m))
    x = sample(20, np.zeros(m), sigma, gen, seed=1)
    for scale in ALL_SCALES:
        run_simulation(SimConfig(m=3, n=20, nu_grid=(5.0,), trials=3, scale_kind=scale.kind))
        bound_set(scale, sigma, gen)
        dec = decompose(scale, sigma)
        verify_chain(scale, dec.v, [gen], m)
        fim.fim_eta(dec.v, dec.s, scale, gen)
        fim.efficient_fim_shape(dec.v, scale, gen)
        fim.score_eta(x, np.zeros(m), dec.v, dec.s, scale, gen)
        fim.score_vecs_sigma(x, np.zeros(m), sigma, gen)
        u_basis(scale, dec.v)
        jacobian_w(scale, dec.v, dec.s)
    assert duplication_matrix.cache_info().currsize == 0


def test_adaptivity_check_never_builds_the_duplication_matrix():
    # the split Jacobian's unit basis comes from the vecs index pairs, so
    # no D_m is built and left in the cache (4.3 MB at m = 32)
    duplication_matrix.cache_clear()
    param, theta0 = split_example(np.random.default_rng(0), 16, 2, 0.7)
    verify_adaptivity_by_fim(param, theta0, student_t(8))
    assert duplication_matrix.cache_info().currsize == 0


def _drawn_example(name, m, seed, rho):
    rng = np.random.default_rng(seed)
    if name == "split":
        return split_example(rng, m, 2, rho)
    if name == "low_rank":  # m(m+1)/2 >= p + p(p+1)/2 + 1
        return low_rank_example(rng, m, rng.uniform(0.2, 1.5, 1 if m == 2 else 2), 0.8)
    if name == "shape_scale":
        return shape_scale_example(ALL_SCALES[seed % 3], m, rho, 1.5)
    return breaking_example(m, rho, 1.3)


@given(
    st.sampled_from(["split", "low_rank", "shape_scale", "breaking"]),
    st.integers(2, 8),
    st.integers(0, 2**16),
    st.floats(-0.9, 0.9),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_geometry_from_vecs_rows_matches_the_whitened_slices(name, m, seed, rho):
    param, theta0 = _drawn_example(name, m, seed, rho)
    geometry = fim.model_geometry(param, theta0)
    gram, trace = dense.whitened_slices_geometry(param, theta0)
    for got, want in ((geometry.sigma_gram, gram), (geometry.sigma_trace, trace)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _r_step_peak_m32(warm):
    """tracemalloc peak of one m=32, n=600 R-step, after the matcalc caches
    are emptied; ``warm`` refills them with an untraced call first."""
    m, n = 32, 600
    sigma = toeplitz(0.8 ** np.arange(m))
    data = sample(n, np.zeros(m), sigma, student_t(6), seed=3)[None]
    v = scm_batch(data, NORMALIZED_TRACE)
    table = VanDerWaerden().table(n, m)[None]
    for cached in (matcalc._tril_indices_colmajor, matcalc._dup_gram, duplication_matrix):
        cached.cache_clear()
    if warm:
        r_step_batch(data, v, NORMALIZED_TRACE, table)
    tracemalloc.start()
    try:
        v_new = r_step_batch(data, v, NORMALIZED_TRACE, table)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(v_new).all()
    return peak


TWO_M32_KRONS = 2 * (32 * 32) ** 2 * 8  # 16 MiB, two m^2 x m^2 arrays at m=32


def test_r_step_at_m32_never_holds_two_m2_by_m2_arrays():
    # the first call fills the per-m caches of the vecs index pairs and weights
    assert _r_step_peak_m32(warm=True) < TWO_M32_KRONS


def test_cold_r_step_at_m32_never_holds_two_m2_by_m2_arrays():
    # nothing is cached, and no call builds the 4.3 MB duplication matrix
    assert _r_step_peak_m32(warm=False) < TWO_M32_KRONS


@pytest.mark.parametrize(
    "bound",
    [
        lambda gen: bounds.crb_shape(NORMALIZED_TRACE, np.eye(1), gen),
        lambda gen: bounds.crb_shape_det_root(np.eye(1), gen),
        lambda gen: bounds.crb_scale(NORMALIZED_TRACE, np.eye(1), 1.0, gen),
    ],
    ids=["crb_shape", "crb_shape_det_root", "crb_scale"],
)
def test_ovecs_bounds_reject_m1(bound):
    with pytest.raises(ValueError, match="m >= 2"):
        bound(student_t(6))


# ---------------------------------------------------------------------------
# peak memory of the bounds and adaptivity commands, in d x d arrays
# ---------------------------------------------------------------------------

# Python objects and numpy headers, whatever m: the whole peak at m = 4
_FIXED_BYTES = 64 * 2**10


def _peak_bytes(fn):
    """tracemalloc peak of ``fn()`` above what was allocated before it,
    after two warm-up calls fill the per-m caches."""
    fn()
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _within_arrays(peak, count, d):
    """``peak`` below ``count`` d x d float arrays, one more for the
    cache-sized row blocks, plus the fixed Python overhead."""
    return peak < (count + 1) * d * d * 8 + _FIXED_BYTES


@pytest.mark.parametrize("m", [4, 32])
def test_verify_chain_holds_two_d_by_d_arrays(m):
    # the bound and I_V, each overwritten in place (three while the
    # efficient FIM was filled and factored on its own, seven at m = 32
    # before the links were checked one at a time)
    v = decompose(NORMALIZED_TRACE, toeplitz(0.8 ** np.arange(m))).v
    peak = _peak_bytes(lambda: verify_chain(NORMALIZED_TRACE, v, [student_t(6)], m))
    assert _within_arrays(peak, 2, vecs_len(m)), peak


@pytest.mark.parametrize("m", [4, 32])
def test_write_bounds_csv_holds_two_d_by_d_arrays(m, tmp_path):
    # the 32-bit text index and the distinct texts of the largest block
    # (4.4 at m = 32 with a 64-bit index and its sort temporaries alive)
    bset = bound_set(NORMALIZED_TRACE, toeplitz(0.8 ** np.arange(m)), student_t(6))
    peak = _peak_bytes(lambda: write_bounds_csv(bset, tmp_path / "bounds.csv"))
    assert _within_arrays(peak, 2, vecs_len(m)), peak


@pytest.mark.parametrize("m", [4, 32])
@pytest.mark.parametrize("name", ["split", "shape_scale"])
def test_adaptivity_check_holds_three_d_by_d_arrays(m, name):
    # d = param.d: the (d, m, m) Jacobian (about two) beside the whitened
    # rows (about one), or the rows beside their scaled copy and its LAPACK
    # copy; then at most three (four while the raw Jacobian was gathered a
    # second time for the identifiability stack, about seven at m = 32
    # before that)
    if name == "split":
        param, theta0 = split_example(np.random.default_rng(0), m, 2, 0.7)
    else:
        param, theta0 = shape_scale_example(NORMALIZED_TRACE, m, 0.8, 1.5)
    peak = _peak_bytes(lambda: verify_adaptivity_by_fim(param, theta0, student_t(8)))
    assert _within_arrays(peak, 3, param.d), peak
