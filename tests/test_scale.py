import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.optimize import brentq

import dense_oracles as dense
from ellipfim.invariants import ALL_SCALES
from ellipfim.matcalc import (
    ovecs,
    unvecs,
    vec,
    vecs,
    vecs_len,
)
from ellipfim.scale import (
    DET_ROOT,
    FIRST_ELEMENT,
    NORMALIZED_TRACE,
    ManifoldError,
    constraint_gradient_vecs,
    decompose,
    grad_v11,
    jacobian_w,
    reconstruct_shape,
    renormalize,
    scale_by_name,
    u_basis,
)


def random_spd(rng, m):
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


def shape_on_manifold(scale, rng, m):
    return decompose(scale, random_spd(rng, m)).v


# ---------------------------------------------------------------------------
# scale values and decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_scale_of_identity_is_one(scale, m):
    assert scale.value(np.eye(m)) == pytest.approx(1.0, abs=1e-15)


def test_detroot_value_diag():
    assert DET_ROOT.value(np.diag([4.0, 1.0])) == pytest.approx(2.0)


def test_trace_value_diag():
    assert NORMALIZED_TRACE.value(np.diag([2.0, 6.0])) == pytest.approx(4.0)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_homogeneity_order_one(scale, c):
    rng = np.random.default_rng(4)
    sigma = random_spd(rng, 4)
    assert scale.value(c * sigma) == pytest.approx(c * scale.value(sigma), rel=1e-12)


def test_decompose_trace_identity():
    dec = decompose(NORMALIZED_TRACE, 3.0 * np.eye(4))
    np.testing.assert_allclose(dec.v, np.eye(4), atol=0)
    assert dec.s == pytest.approx(3.0)


def test_decompose_first_element_toeplitz_is_noop():
    sigma = toeplitz(0.8 ** np.arange(4))
    dec = decompose(FIRST_ELEMENT, sigma)
    assert dec.s == pytest.approx(1.0)
    np.testing.assert_allclose(dec.v, sigma, atol=0)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_decompose_roundtrip_and_idempotence(scale):
    rng = np.random.default_rng(17)
    sigma = random_spd(rng, 4)
    dec = decompose(scale, sigma)
    np.testing.assert_allclose(dec.reconstruct(), sigma, atol=1e-14)
    again = decompose(scale, dec.v)
    assert again.s == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(again.v, dec.v, atol=1e-14)


def test_scale_by_name_errors_list_options():
    with pytest.raises(KeyError, match="det"):
        scale_by_name("frobenius")
    assert scale_by_name("trace") is NORMALIZED_TRACE


# ---------------------------------------------------------------------------
# scale gradient D_S
# ---------------------------------------------------------------------------


def test_gradient_forms():
    rng = np.random.default_rng(2)
    sigma = random_spd(rng, 4)
    g1 = FIRST_ELEMENT.gradient(sigma)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(g1, expected)
    np.testing.assert_array_equal(NORMALIZED_TRACE.gradient(sigma), np.eye(4) / 4)
    gd = DET_ROOT.gradient(np.eye(3))
    np.testing.assert_allclose(gd, np.eye(3) / 3, atol=1e-14)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_euler_identity_and_scale_invariance(scale):
    rng = np.random.default_rng(12)
    sigma = random_spd(rng, 4)
    g = scale.gradient(sigma)
    assert np.trace(g @ sigma) == pytest.approx(scale.value(sigma), rel=1e-12)
    np.testing.assert_allclose(scale.gradient(3.1 * sigma), g, atol=1e-12)


# ---------------------------------------------------------------------------
# grad_v11
# ---------------------------------------------------------------------------


def test_grad_v11_first_element_zero():
    rng = np.random.default_rng(6)
    v = shape_on_manifold(FIRST_ELEMENT, rng, 4)
    np.testing.assert_array_equal(grad_v11(FIRST_ELEMENT, v), np.zeros(9))


def test_grad_v11_trace_m2():
    v = np.array([[1.2, 0.3], [0.3, 0.8]])
    np.testing.assert_allclose(grad_v11(NORMALIZED_TRACE, v), [0.0, -1.0], atol=1e-14)


def test_grad_v11_manifold_violation_rejected():
    with pytest.raises(ManifoldError):
        grad_v11(NORMALIZED_TRACE, 2.0 * np.eye(3))


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_grad_v11_matches_implicit_solve(scale):
    # Oracle: solve S(v11, ovecs V + delta e_k) = 1 numerically, difference
    # quotient of the implicit v11 map.
    rng = np.random.default_rng(31)
    m = 3
    v = shape_on_manifold(scale, rng, m)
    tail = ovecs(v)
    grad = grad_v11(scale, v)

    def v11_of(tail_vec):
        def constraint(v11):
            cand = unvecs(np.concatenate([[v11], tail_vec]), m)
            if scale is DET_ROOT:
                return np.linalg.det(cand) - 1.0
            return scale.value(cand) - 1.0

        return brentq(constraint, -50.0, 50.0, xtol=1e-14)

    h = 1e-6
    for k in range(tail.size):
        e = np.zeros_like(tail)
        e[k] = h
        fd = (v11_of(tail + e) - v11_of(tail - e)) / (2 * h)
        assert abs(fd - grad[k]) < 1e-6


@pytest.mark.parametrize("m", [2, 4, 8])
def test_grad_v11_det_matches_reconstruct_shape(m):
    # Oracle: central difference of the Schur-complement completion of [V]_11
    rng = np.random.default_rng(70 + m)
    v = shape_on_manifold(DET_ROOT, rng, m)
    tail = ovecs(v)
    grad = grad_v11(DET_ROOT, v)
    h = 1e-6
    fd = np.empty_like(tail)
    for k in range(tail.size):
        e = np.zeros_like(tail)
        e[k] = h
        up = reconstruct_shape(DET_ROOT, tail + e, m)[0, 0]
        dn = reconstruct_shape(DET_ROOT, tail - e, m)[0, 0]
        fd[k] = (up - dn) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8 * np.abs(grad).max())


# ---------------------------------------------------------------------------
# M_S matrix
# ---------------------------------------------------------------------------


def test_m_matrix_det_kernel_property():
    rng = np.random.default_rng(44)
    v = shape_on_manifold(DET_ROOT, rng, 4)
    ms = dense.m_matrix(DET_ROOT, v)
    np.testing.assert_allclose(ms @ vec(np.linalg.inv(v)), 0.0, atol=1e-12)


@pytest.mark.parametrize("scale", [FIRST_ELEMENT, NORMALIZED_TRACE], ids=lambda s: s.kind)
def test_m_matrix_kernel_vector_nonzero_for_non_det(scale):
    rng = np.random.default_rng(44)
    v = shape_on_manifold(scale, rng, 4)
    ms = dense.m_matrix(scale, v)
    assert np.linalg.norm(ms @ vec(np.linalg.inv(v))) > 1e-3


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_m_matrix_p2_traceless_lift(scale):
    # Construct symmetric A with tr(D_S A) = 0, check M_S^T ovecs(A) = vec(A).
    rng = np.random.default_rng(15)
    m = 3
    v = shape_on_manifold(scale, rng, m)
    d_s = scale.gradient(v)
    a = rng.standard_normal((m, m))
    a = a + a.T
    a = a - (np.trace(d_s @ a) / np.trace(d_s @ np.eye(m) / d_s.trace() * d_s)) * (
        d_s / np.trace(d_s @ d_s) * d_s.trace()
    )
    # simpler deterministic correction: subtract multiple of D_S itself
    a = a - (np.trace(d_s @ a) / np.trace(d_s @ d_s)) * d_s
    assert abs(np.trace(d_s @ a)) < 1e-12
    ms = dense.m_matrix(scale, v)
    np.testing.assert_allclose(ms.T @ ovecs(a), vec(a), atol=1e-12)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_m_matrix_full_row_rank(scale, m):
    rng = np.random.default_rng(m)
    v = shape_on_manifold(scale, rng, m)
    sv = np.linalg.svd(dense.m_matrix(scale, v), compute_uv=False)
    assert sv.min() > 1e-10
    assert sv.size == vecs_len(m) - 1


# ---------------------------------------------------------------------------
# U basis
# ---------------------------------------------------------------------------


def test_u_basis_first_element_is_identity_complement():
    rng = np.random.default_rng(9)
    v = shape_on_manifold(FIRST_ELEMENT, rng, 3)
    u = u_basis(FIRST_ELEMENT, v)
    np.testing.assert_allclose(np.abs(u), np.eye(6)[:, 1:], atol=1e-14)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_u_basis_orthonormal_and_annihilates_constraint(scale):
    rng = np.random.default_rng(10)
    v = shape_on_manifold(scale, rng, 4)
    u = u_basis(scale, v)
    g = constraint_gradient_vecs(scale, v)
    assert np.linalg.norm(g @ u) < 1e-12
    np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)


@pytest.mark.parametrize("scale", [FIRST_ELEMENT, NORMALIZED_TRACE], ids=lambda s: s.kind)
def test_u_basis_annihilates_vecs_gradient_for_diagonal_ds(scale):
    rng = np.random.default_rng(10)
    v = shape_on_manifold(scale, rng, 4)
    u = u_basis(scale, v)
    np.testing.assert_allclose(vecs(scale.gradient(v)) @ u, 0.0, atol=1e-12)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_u_basis_spans_k_matrix_columns(scale):
    rng = np.random.default_rng(13)
    v = shape_on_manifold(scale, rng, 4)
    u = u_basis(scale, v)
    kv = dense.k_matrix(scale, v)
    np.testing.assert_array_equal(jacobian_w(scale, v, 1.0)[:, :-1], kv)
    pu = u @ u.T
    qk, _ = np.linalg.qr(kv)
    pk = qk @ qk.T
    np.testing.assert_allclose(pu, pk, atol=1e-10)


# ---------------------------------------------------------------------------
# P_S projector (the dense oracle behind the shape CRB and jacobian_w_inv)
# ---------------------------------------------------------------------------


def test_p_projector_det_identity_case():
    p = dense.p_projector(DET_ROOT, np.eye(2))
    expected = np.eye(4) - 0.5 * np.outer(vec(np.eye(2)), vec(np.eye(2)))
    np.testing.assert_allclose(p, expected, atol=1e-14)


def test_p_projector_trace_equals_det_at_identity():
    np.testing.assert_allclose(
        dense.p_projector(NORMALIZED_TRACE, np.eye(3)),
        dense.p_projector(DET_ROOT, np.eye(3)),
        atol=1e-14,
    )


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_p_projector_annihilates_vec_v(scale):
    rng = np.random.default_rng(19)
    sigma = random_spd(rng, 3)
    v = decompose(scale, sigma).v
    p = dense.p_projector(scale, sigma)
    np.testing.assert_allclose(p @ vec(v), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# diffeomorphism Jacobians
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_jacobian_composition_is_identity(scale):
    rng = np.random.default_rng(23)
    m = 4
    sigma = random_spd(rng, m)
    dec = decompose(scale, sigma)
    jw = jacobian_w(scale, dec.v, dec.s)
    jwi = dense.jacobian_w_inv(scale, sigma)
    np.testing.assert_allclose(jwi @ jw, np.eye(vecs_len(m)), atol=1e-10)


def test_jacobian_w_first_element_structure():
    rng = np.random.default_rng(25)
    v = shape_on_manifold(FIRST_ELEMENT, rng, 3)
    jw = jacobian_w(FIRST_ELEMENT, v, 1.0)
    np.testing.assert_array_equal(jw[0, :-1], np.zeros(5))
    np.testing.assert_allclose(jw[1:, :-1], np.eye(5), atol=0)
    np.testing.assert_allclose(jw[:, -1], vecs(v), atol=0)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_jacobian_w_matches_finite_differences(scale):
    # Oracle: perturb (ovecs V, s), rebuild Sigma = s V(ovecs V), central
    # differences of vecs(Sigma).
    rng = np.random.default_rng(29)
    m = 3
    v = shape_on_manifold(scale, rng, m)
    s = 1.7
    theta = np.concatenate([ovecs(v), [s]])

    def vecs_sigma(th):
        vv = reconstruct_shape(scale, th[:-1], m)
        return vecs(th[-1] * vv)

    h = 1e-6
    fd = np.empty((vecs_len(m), theta.size))
    for k in range(theta.size):
        e = np.zeros_like(theta)
        e[k] = h
        fd[:, k] = (vecs_sigma(theta + e) - vecs_sigma(theta - e)) / (2 * h)
    np.testing.assert_allclose(jacobian_w(scale, v, s), fd, atol=1e-6)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_reconstruct_shape_roundtrip(scale):
    rng = np.random.default_rng(37)
    for m in (2, 4, 10):
        v = shape_on_manifold(scale, rng, m)
        np.testing.assert_allclose(reconstruct_shape(scale, ovecs(v), m), v, atol=1e-12)


@pytest.mark.parametrize("rho", [0.9999999, 0.99999999, 0.999999999])
@pytest.mark.parametrize("m", [3, 4, 8])
def test_reconstruct_shape_det_root_near_singular_roundtrip(m, rho):
    # [V]_11 = v_1^T V_22^-1 v_1 + 1 / |V_22| cancels nothing as V nears
    # singular; (1 - |V_0|) / |V_22| lost up to 7e-8 of it here
    v = decompose(DET_ROOT, toeplitz(rho ** np.arange(m))).v
    rebuilt = reconstruct_shape(DET_ROOT, ovecs(v), m)
    np.testing.assert_array_equal(ovecs(rebuilt), ovecs(v))
    assert abs(rebuilt[0, 0] - v[0, 0]) <= 2e-15 * v[0, 0]


def test_reconstruct_shape_det_root_rejects_a_trailing_block_not_pd():
    v = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        reconstruct_shape(DET_ROOT, ovecs(v), 3)


def test_renormalize_lands_on_manifold():
    rng = np.random.default_rng(41)
    sigma = random_spd(rng, 3)
    for scale in ALL_SCALES:
        v = renormalize(scale, sigma)
        assert scale.value(v) == pytest.approx(1.0, abs=1e-14)
