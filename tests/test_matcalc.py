import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_oracles as dense
from ellipfim.invariants import duplication_rank
from ellipfim.matcalc import (
    commutation_matrix,
    duplication_matrix,
    dup_pinv,
    unvecs,
    vec,
    vecs,
    vecs_basis,
)


def random_symmetric(rng, m):
    a = rng.standard_normal((m, m))
    return a + a.T


def test_vec_identity_2x2():
    assert np.array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])


def test_vec_column_major():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 3.0, 2.0, 4.0])


def test_vec_transpose_is_commutation():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    k3 = commutation_matrix(3)
    np.testing.assert_allclose(vec(a.T), k3 @ vec(a), rtol=0, atol=0)


def test_vecs_first_element_is_a11():
    rng = np.random.default_rng(0)
    a = random_symmetric(rng, 4)
    v = vecs(a)
    assert v[0] == a[0, 0]
    np.testing.assert_array_equal(v[1:], vecs(a)[1:])


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_vecs_roundtrip(m, seed):
    a = random_symmetric(np.random.default_rng(seed), m)
    np.testing.assert_allclose(unvecs(vecs(a), m), a, atol=0)


def test_duplication_m1():
    assert np.array_equal(duplication_matrix(1), [[1.0]])


def test_duplication_m2_rows():
    d = duplication_matrix(2)
    expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    np.testing.assert_array_equal(d, expected)


def test_duplication_rejects_zero():
    with pytest.raises(ValueError):
        duplication_matrix(0)


def test_duplication_defining_identity_m4():
    rng = np.random.default_rng(11)
    d = duplication_matrix(4)
    for _ in range(100):
        a = random_symmetric(rng, 4)
        np.testing.assert_allclose(d @ vecs(a), vec(a), atol=0)


def test_commutation_m1():
    assert np.array_equal(commutation_matrix(1), [[1.0]])


def test_commutation_m2_swaps_middle():
    k = commutation_matrix(2)
    perm = k @ np.arange(4.0)
    np.testing.assert_array_equal(perm, [0.0, 2.0, 1.0, 3.0])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_commutation_involution_and_kd(m):
    k = commutation_matrix(m)
    d = duplication_matrix(m)
    np.testing.assert_allclose(k @ k, np.eye(m * m), atol=0)
    np.testing.assert_allclose(k @ d, d, atol=0)


def test_dup_pinv_m1():
    assert np.array_equal(dup_pinv(1), [[1.0]])


def test_dup_pinv_left_inverse_m2():
    np.testing.assert_allclose(
        dup_pinv(2) @ duplication_matrix(2), np.eye(3), atol=1e-14
    )


def test_dup_pinv_projector_m3():
    d = duplication_matrix(3)
    dp = dup_pinv(3)
    k = commutation_matrix(3)
    np.testing.assert_allclose(d @ dp, 0.5 * (np.eye(9) + k), atol=1e-12)
    np.testing.assert_allclose(dp @ k, dp, atol=1e-12)


def test_dup_pinv_matches_svd_pinv():
    for m in (2, 3, 4):
        np.testing.assert_allclose(
            dup_pinv(m), np.linalg.pinv(duplication_matrix(m)), atol=1e-12
        )


def test_row_selector_m2():
    np.testing.assert_array_equal(dense.row_selector(2), [[0, 1, 0], [0, 0, 1]])


def test_row_selector_drops_a11():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 3)
    np.testing.assert_allclose(dense.row_selector(3) @ vecs(a), vecs(a)[1:], atol=0)


def test_row_selector_orthonormal_rows():
    sel = dense.row_selector(4)
    np.testing.assert_allclose(sel @ sel.T, np.eye(sel.shape[0]), atol=0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_duplication_full_column_rank(m):
    assert duplication_rank((m,))[0] > 1e-10


def test_halfvec_quadratic_form_consistency():
    rng = np.random.default_rng(21)
    m = 3
    d = duplication_matrix(m)
    a = random_symmetric(rng, m)
    b = random_symmetric(rng, m)
    bb = np.kron(b, b)
    lhs = vecs(a) @ d.T @ bb @ d @ vecs(a)
    rhs = vec(a) @ bb @ vec(a)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_symmetrizer_projects_to_symmetric_part():
    rng = np.random.default_rng(5)
    m = 4
    a = rng.standard_normal((m, m))
    np.testing.assert_allclose(
        dense.symmetrizer(m) @ vec(a), vec(0.5 * (a + a.T)), atol=1e-14
    )


@pytest.mark.parametrize("m", range(1, 9))
def test_vecs_basis_is_the_duplication_matrix_read_as_matrices(m):
    # filled from the index pairs, to the bit what the rows of D_m^T give
    basis = vecs_basis(m)
    want = duplication_matrix(m).T.reshape(-1, m, m)
    assert basis.shape == want.shape and basis.tobytes() == want.tobytes()
