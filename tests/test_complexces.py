import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracles import hermitian_basis_loops, lowrank_kron
from ellipfim import complexces
from ellipfim.complexces import (
    cces_fim_location,
    cces_lowrank_fim,
    complex_from_real,
    complex_gaussian,
    complex_student_t,
    doa_fim,
    embed,
    embed_vector,
    embedded_location_parameterization,
    embedded_lowrank_parameterization,
    embedded_rectilinear_parameterization,
    hermitian_basis,
    ncces_fim_location,
    rectilinear_fim,
    real_mat,
    sigma_bar_from_complex,
    sigma_tilde,
    sigma_tilde_from_bar,
    unitary_map,
)
from ellipfim.fim import efficient_fim_interest, fim_theta, sfim_theta
from ellipfim.generators import modular_variate
from ellipfim.invariants import _rel, _ula_steering, complex_sampling


def random_hermitian_pd(rng, p):
    w = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return w @ w.conj().T + p * np.eye(p)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def test_embed_vector_definition():
    x = np.array([1 + 2j, 3 + 0j])
    np.testing.assert_array_equal(embed_vector(x), [1.0, 3.0, 2.0, 0.0])
    np.testing.assert_array_equal(complex_from_real(embed_vector(x)), x)


def test_unitary_map_is_unitary():
    mm = unitary_map(3)
    np.testing.assert_allclose(mm @ mm.conj().T, np.eye(6), atol=1e-14)


def test_sigma_bar_identity_circular():
    m = 2
    bar = sigma_bar_from_complex(np.eye(m), None)
    np.testing.assert_allclose(bar, 0.5 * np.eye(2 * m), atol=1e-14)
    back = sigma_tilde_from_bar(bar)
    np.testing.assert_allclose(back, sigma_tilde(np.eye(m)), atol=1e-14)


def test_sigma_bar_roundtrip_noncircular():
    rng = np.random.default_rng(5)
    m = 3
    sigma_c = random_hermitian_pd(rng, m)
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    omega_c = 0.1 * (w + w.T)
    bar = sigma_bar_from_complex(sigma_c, omega_c)
    np.testing.assert_allclose(
        sigma_tilde_from_bar(bar), sigma_tilde(sigma_c, omega_c), atol=1e-12
    )


def test_sigma_bar_circular_block_structure():
    rng = np.random.default_rng(6)
    m = 3
    sigma_c = random_hermitian_pd(rng, m)
    bar = sigma_bar_from_complex(sigma_c, None)
    s1 = bar[:m, :m]
    s2 = bar[m:, :m]
    np.testing.assert_allclose(bar[m:, m:], s1, atol=1e-12)
    np.testing.assert_allclose(bar[:m, m:], -s2, atol=1e-12)
    np.testing.assert_allclose(2 * (s1 + 1j * s2), sigma_c, atol=1e-12)


def test_embed_rejects_non_pd():
    sigma_c = np.eye(2, dtype=complex)
    omega_c = np.eye(2, dtype=complex) * 1.5  # breaks PD of the augmented scatter
    with pytest.raises(Exception):
        embed(np.zeros(2, dtype=complex), sigma_c, omega_c, complex_gaussian())


def test_quadratic_form_isometry():
    rng = np.random.default_rng(7)
    m = 3
    sigma_c = random_hermitian_pd(rng, m)
    bar = sigma_bar_from_complex(sigma_c, None)
    st = sigma_tilde(sigma_c, None)
    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    x_t = np.concatenate([x, x.conj()])
    q_c = 0.5 * np.real(x_t.conj() @ np.linalg.solve(st, x_t))
    q_r = modular_variate(embed_vector(x), np.zeros(2 * m), bar)
    assert q_c == pytest.approx(0.5 * q_r, rel=1e-12)


def test_embedded_samples_reproduce_hermitian_covariance():
    rng = np.random.default_rng(8)
    assert complex_sampling(rng, 3, 100_000, complex_gaussian().real(), 1234) < 3


def test_real_mat_homomorphism():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    np.testing.assert_allclose(real_mat(a @ b), real_mat(a) @ real_mat(b), atol=1e-12)
    np.testing.assert_allclose(real_mat(a.conj().T), real_mat(a).T, atol=1e-12)


def test_complex_generator_functionals():
    gen_c = complex_student_t(8)
    m = 3
    # complex alpha/beta equal the real 2m-dimensional functionals
    assert gen_c.alpha(m) == pytest.approx(gen_c.real().alpha(2 * m))
    assert gen_c.beta(m) == pytest.approx(gen_c.real().beta(2 * m))
    assert complex_gaussian().alpha(4) == 1.0


def test_hermitian_basis_spans():
    p = 3
    basis = hermitian_basis(p)
    assert basis.shape == (p * p, p, p)
    flat = np.stack([e.ravel() for e in basis])
    assert np.linalg.matrix_rank(np.vstack([flat.real, flat.imag]).T) == p * p


@pytest.mark.parametrize("p", range(1, 6))
def test_hermitian_basis_matches_the_loop_built_basis(p):
    np.testing.assert_array_equal(hermitian_basis(p), hermitian_basis_loops(p))


# ---------------------------------------------------------------------------
# location FIMs
# ---------------------------------------------------------------------------


def test_cces_location_constant_steering_gaussian():
    m = 4
    j = np.ones((m, 1), dtype=complex)
    out = cces_fim_location(j, np.eye(m, dtype=complex), complex_gaussian())
    assert out[0, 0] == pytest.approx(2.0 * m)


def test_cces_location_rejects_non_hermitian():
    j = np.ones((2, 1), dtype=complex)
    bad = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        cces_fim_location(j, bad, complex_gaussian())


@pytest.mark.parametrize("seed", range(4))
def test_cces_location_matches_real_embedding(seed):
    rng = np.random.default_rng(seed)
    m, q = 5, 2
    gen_c = complex_student_t(6 + seed)
    b = rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))
    sigma_c = random_hermitian_pd(rng, m)
    closed = cces_fim_location(b, sigma_c, gen_c)
    param = embedded_location_parameterization(
        lambda g: b @ g, lambda g: b, sigma_c, None, q
    )
    oracle = fim_theta(param, rng.standard_normal(q), gen_c.real())
    assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_ncces_location_matches_real_embedding(seed):
    rng = np.random.default_rng(100 + seed)
    m, q = 4, 2
    gen_c = complex_student_t(7)
    b = rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))
    sigma_c = random_hermitian_pd(rng, m)
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    omega_c = 0.1 * (w + w.T)
    closed = ncces_fim_location(b, sigma_c, omega_c, gen_c)
    param = embedded_location_parameterization(
        lambda g: b @ g, lambda g: b, sigma_c, omega_c, q
    )
    oracle = fim_theta(param, rng.standard_normal(q), gen_c.real())
    assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) < 1e-9


# ---------------------------------------------------------------------------
# low-rank FIMs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_cces_lowrank_matches_real_embedding(seed):
    rng = np.random.default_rng(200 + seed)
    m, p, q = 6, 2, 2
    gen_c = complex_student_t(6)
    a_fn, a_jac = _ula_steering(m, 0.0)
    gamma0 = np.array([0.3, 1.1]) + 0.05 * rng.standard_normal(2)
    xi0 = random_hermitian_pd(rng, p)
    lam0 = 0.5 + rng.uniform(0, 1)
    closed = cces_lowrank_fim(a_fn(gamma0), a_jac(gamma0), xi0, lam0, gen_c)
    param, theta0_fn = embedded_lowrank_parameterization(a_fn, a_jac, p, q)
    oracle = efficient_fim_interest(
        fim_theta(param, theta0_fn(gamma0, xi0, lam0), gen_c.real()), q
    )
    assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) < 1e-8
    assert np.linalg.eigvalsh(closed).min() > -1e-10


def test_doa_hadamard_form_agrees_with_general():
    rng = np.random.default_rng(33)
    m, p = 6, 2
    gen_c = complex_student_t(6)
    a_fn, a_jac = _ula_steering(m, 0.0)
    gamma0 = np.array([0.3, 1.1])
    xi0 = random_hermitian_pd(rng, p)
    lam0 = 0.7
    a0, da0 = a_fn(gamma0), a_jac(gamma0)
    d0 = np.stack([da0[:, k, k] for k in range(p)], axis=1)
    general = cces_lowrank_fim(a0, da0, xi0, lam0, gen_c)
    hadamard = doa_fim(a0, d0, xi0, lam0, gen_c)
    assert np.linalg.norm(general - hadamard) / np.linalg.norm(general) < 1e-12


def test_lowrank_projector_annihilates_factor_directions():
    # p = 1, A = e1: derivatives along e1 contribute nothing
    m = 4
    gen_c = complex_gaussian()
    a = np.zeros((m, 1), dtype=complex)
    a[0, 0] = 1.0
    da = np.zeros((m, 1, 1), dtype=complex)
    da[0, 0, 0] = 1.0  # derivative along e1 only
    out = cces_lowrank_fim(a, da, np.eye(1, dtype=complex), 0.5, gen_c)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_cces_lowrank_rejects_rank_deficiency():
    m = 4
    a = np.zeros((m, 2), dtype=complex)
    a[:, 0] = 1.0
    a[:, 1] = 1.0
    da = np.zeros((m, 2, 1), dtype=complex)
    with pytest.raises(ValueError):
        cces_lowrank_fim(a, da, np.eye(2, dtype=complex), 0.5, complex_gaussian())


# ---------------------------------------------------------------------------
# rectilinear
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_rectilinear_matches_real_embedding(seed):
    rng = np.random.default_rng(300 + seed)
    m, p, q = 4, 2, 2
    gen_c = complex_student_t(7)
    a_fn, a_jac = _ula_steering(m, 0.2)
    gamma0 = np.array([0.4, 1.0]) + 0.05 * rng.standard_normal(2)
    xr = rng.standard_normal((p, p))
    xi_r = xr @ xr.T + p * np.eye(p)
    lam0 = 0.5 + rng.uniform(0, 1)
    closed = rectilinear_fim(a_fn(gamma0), a_jac(gamma0), xi_r, lam0, gen_c)
    param, theta0_fn = embedded_rectilinear_parameterization(a_fn, a_jac, p, q)
    oracle = efficient_fim_interest(
        fim_theta(param, theta0_fn(gamma0, xi_r, lam0), gen_c.real()), q
    )
    assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) < 1e-8


def test_rectilinear_single_source_positive():
    gen_c = complex_student_t(6)
    m, p, q = 4, 1, 1
    a_fn, a_jac = _ula_steering(m, 0.0)
    gamma0 = np.array([0.6])
    xi_r = np.array([[1.8]])
    out = rectilinear_fim(a_fn(gamma0), a_jac(gamma0), xi_r, 0.9, gen_c)
    assert out.shape == (1, 1)
    assert out[0, 0] > 0
    # cross-check against the embedded pipeline
    param, theta0_fn = embedded_rectilinear_parameterization(a_fn, a_jac, p, q)
    oracle = efficient_fim_interest(
        fim_theta(param, theta0_fn(gamma0, xi_r, 0.9), gen_c.real()), q
    )
    assert out[0, 0] == pytest.approx(oracle[0, 0], rel=1e-9)


def test_rectilinear_gaussian_matches_sfim_path():
    # at the Gaussian the parametric and semiparametric pipelines coincide
    gen_c = complex_gaussian()
    m, p, q = 4, 2, 2
    a_fn, a_jac = _ula_steering(m, 0.1)
    gamma0 = np.array([0.5, 1.2])
    xi_r = np.diag([2.0, 1.0])
    lam0 = 0.8
    closed = rectilinear_fim(a_fn(gamma0), a_jac(gamma0), xi_r, lam0, gen_c)
    param, theta0_fn = embedded_rectilinear_parameterization(a_fn, a_jac, p, q)
    oracle = efficient_fim_interest(
        sfim_theta(param, theta0_fn(gamma0, xi_r, lam0), gen_c.real()), q
    )
    assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) < 1e-9


def test_rectilinear_fim_decreases_in_noise():
    gen_c = complex_student_t(6)
    m, p, q = 4, 1, 1
    a_fn, a_jac = _ula_steering(m, 0.0)
    gamma0 = np.array([0.6])
    xi_r = np.array([[1.8]])
    vals = [
        rectilinear_fim(a_fn(gamma0), a_jac(gamma0), xi_r, lam, gen_c)[0, 0]
        for lam in (1.0, 10.0, 100.0)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_rectilinear_rejects_too_many_sources():
    gen_c = complex_gaussian()
    m = 2
    a = np.ones((m, 4), dtype=complex)
    da = np.zeros((m, 4, 1), dtype=complex)
    with pytest.raises(ValueError):
        rectilinear_fim(a, da, np.eye(4), 1.0, gen_c)


# ---------------------------------------------------------------------------
# property tests: closed forms against the real-embedded pipeline
# ---------------------------------------------------------------------------


def mixed_steering(m, mix, phase):
    """p = mix.shape[0] sources at angles base + mix @ gamma, q = mix.shape[1]."""
    j = np.arange(m)[:, None]
    base = np.linspace(-0.9, 0.9, mix.shape[0])

    def a_fn(gamma):
        return np.exp(1j * (np.pi * j * np.sin(base + mix @ gamma) + phase))

    def a_jac(gamma):
        rate = 1j * np.pi * j * np.cos(base + mix @ gamma) * a_fn(gamma)
        return rate[:, :, None] * mix[None]

    return a_fn, a_jac


@st.composite
def lowrank_instances(draw):
    m = draw(st.integers(2, 6))
    p = draw(st.integers(1, min(3, m - 1)))
    q = draw(st.integers(1, p))
    phase = draw(st.floats(-np.pi, np.pi))
    lam = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    xi = w @ w.conj().T + draw(st.floats(0.1, 2.0)) * np.eye(p)  # Hermitian PD
    mix = rng.standard_normal((p, q))
    gamma = 0.1 * rng.standard_normal(q)
    return m, p, q, phase, xi, lam, mix, gamma


def _embedded_interest(build, a_fn, a_jac, p, q, gamma, xi, lam, gen_c):
    param, theta0_fn = build(a_fn, a_jac, p, q)
    theta0 = theta0_fn(gamma, xi, lam)
    return efficient_fim_interest(fim_theta(param, theta0, gen_c.real()), q)


@given(lowrank_instances(), st.sampled_from([3.5, 6.0, 40.0]))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_cces_lowrank_and_doa_match_the_embedding(instance, nu):
    m, p, q, phase, xi, lam, mix, gamma = instance
    gen_c = complex_student_t(nu)
    a_fn, a_jac = mixed_steering(m, mix, phase)
    a0, da0 = a_fn(gamma), a_jac(gamma)
    closed = cces_lowrank_fim(a0, da0, xi, lam, gen_c)
    oracle = _embedded_interest(
        embedded_lowrank_parameterization, a_fn, a_jac, p, q, gamma, xi, lam, gen_c
    )
    assert _rel(closed, oracle) < 1e-8
    # the contraction is the Kronecker form vec(A_k)^H (H^T (x) P) vec(A_l)
    h, perp = complexces._lowrank_geometry(a0, xi, lam)
    kron = lowrank_kron(da0, h, perp)
    assert _rel(complexces._lowrank_contraction(da0, h, perp), kron) < 1e-12
    # one parameter per source: the Hadamard form
    a_fn, a_jac = mixed_steering(m, np.eye(p), phase)
    gamma_p = 0.1 * np.arange(1, p + 1)
    d0 = np.einsum("ikk->ik", a_jac(gamma_p))
    closed = doa_fim(a_fn(gamma_p), d0, xi, lam, gen_c)
    oracle = _embedded_interest(
        embedded_lowrank_parameterization, a_fn, a_jac, p, p, gamma_p, xi, lam, gen_c
    )
    assert _rel(closed, oracle) < 1e-8


@given(lowrank_instances(), st.sampled_from([3.5, 6.0, 40.0]))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_rectilinear_matches_the_embedding(instance, nu):
    m, p, q, phase, xi, lam, mix, gamma = instance
    xi_r = xi.real  # the real part of a Hermitian PD matrix is SPD
    gen_c = complex_student_t(nu)
    a_fn, a_jac = mixed_steering(m, mix, phase)
    closed = rectilinear_fim(a_fn(gamma), a_jac(gamma), xi_r, lam, gen_c)
    oracle = _embedded_interest(
        embedded_rectilinear_parameterization, a_fn, a_jac, p, q, gamma, xi_r, lam, gen_c
    )
    assert _rel(closed, oracle) < 1e-8


# ---------------------------------------------------------------------------
# the gamma closed forms are the semiparametric bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu", [4.5, 6.0, 20.0])
def test_complex_gamma_closed_forms_equal_the_embedded_scrb(nu):
    # the efficient gamma information of the SFIM path, with the generator
    # unknown, equals the parametric closed forms: gamma is adaptive here
    rng = np.random.default_rng(400)
    m, p, q = 5, 2, 2
    gen_c = complex_student_t(nu)
    a_fn, a_jac = _ula_steering(m, 0.3)
    gamma0 = np.array([0.35, 1.05])
    xi_c = random_hermitian_pd(rng, p)
    xr = rng.standard_normal((p, p))
    xi_r = xr @ xr.T + p * np.eye(p)
    cases = [
        (cces_lowrank_fim, embedded_lowrank_parameterization, xi_c, 0.6),
        (rectilinear_fim, embedded_rectilinear_parameterization, xi_r, 0.8),
    ]
    for closed_form, build, xi, lam in cases:
        closed = closed_form(a_fn(gamma0), a_jac(gamma0), xi, lam, gen_c)
        param, theta0_fn = build(a_fn, a_jac, p, q)
        sfim = sfim_theta(param, theta0_fn(gamma0, xi, lam), gen_c.real())
        assert _rel(closed, efficient_fim_interest(sfim, q)) <= 1e-12


# ---------------------------------------------------------------------------
# the scatter pair (Sigma, Omega) is checked once, by every entry point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("defect", ["sigma", "omega"])
def test_scatter_pair_defects_are_rejected(defect):
    # Sigma_bar is real for any pair, and the location FIMs symmetrize, so
    # neither defect shows in an output: each entry point checks the pair
    rng = np.random.default_rng(500)
    m = 3
    sigma_c = random_hermitian_pd(rng, m)
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    omega_c = 0.1 * (w + w.T)
    j = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    if defect == "sigma":
        sigma_c[0, 1] += 0.5  # no longer Hermitian
        message = "scatter must be Hermitian"
    else:
        omega_c[0, 1] += 0.5
        message = "pseudo-scatter must be symmetric"
    gen_c = complex_student_t(6)
    calls = [
        lambda: sigma_bar_from_complex(sigma_c, omega_c),
        lambda: ncces_fim_location(j, sigma_c, omega_c, gen_c),
        lambda: embed(np.zeros(m), sigma_c, omega_c, gen_c),
    ]
    if defect == "sigma":  # the circular location FIM takes no Omega
        calls.append(lambda: cces_fim_location(j, sigma_c, gen_c))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("target", ["sigma", "omega"])
def test_non_finite_scatter_pairs_are_rejected(target, value):
    # placed symmetrically, the entry passes the Hermitian and symmetric
    # checks (NaN and inf - inf compare false), so finiteness is its own check
    rng = np.random.default_rng(501)
    m = 3
    sigma_c = random_hermitian_pd(rng, m)
    omega_c = 0.1 * random_hermitian_pd(rng, m).real
    j = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    bad = sigma_c if target == "sigma" else omega_c
    bad[0, 1] = bad[1, 0] = value
    message = "^scatter" if target == "sigma" else "^pseudo-scatter"
    gen_c = complex_student_t(6)
    calls = [
        lambda: sigma_bar_from_complex(sigma_c, omega_c),
        lambda: ncces_fim_location(j, sigma_c, omega_c, gen_c),
    ]
    if target == "sigma":  # the circular location FIM takes no Omega
        calls.append(lambda: cces_fim_location(j, sigma_c, gen_c))
    for call in calls:
        with pytest.raises(ValueError, match=message + " has a non-finite entry"):
            call()
