import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import toeplitz

from ellipfim.fim import (
    IdentifiabilityError,
    efficient_fim_interest,
    efficient_fim_shape,
    efficient_score_theta,
    fim_eta,
    fim_theta,
    fim_vecs_sigma,
    score_eta,
    score_theta,
    score_vecs_sigma,
    sfim_theta,
)
from ellipfim.generators import gaussian, generalized_gaussian, sample, student_t
from ellipfim.invariants import (
    ALL_SCALES,
    empirical_fims_mc,
    fim_chain_rule,
    loewner_ordering,
    max_z,
    projection_identity,
    restricted_adaptivity,
    score_zero_mean,
)
from ellipfim.matcalc import ovecs, vecs
from ellipfim.parameterize import (
    identity_parameterization,
    low_rank_parameterization,
    LowRankModel,
    shape_scale_example,
    shape_scale_parameterization,
    sinusoid_steering,
)
from ellipfim.scale import (
    DET_ROOT,
    NORMALIZED_TRACE,
    decompose,
    reconstruct_shape,
)


def random_model(rng, m, scale):
    a = rng.standard_normal((m, m))
    sigma = a @ a.T + m * np.eye(m)
    dec = decompose(scale, sigma)
    mu = rng.standard_normal(m)
    return mu, dec.v, dec.s


def log_pdf_eta(theta, x, scale, gen, m):
    """Independent oracle: log density in (mu, ovecs V, s) coordinates."""
    mu = theta[:m]
    v = reconstruct_shape(scale, theta[m:-1], m)
    s = theta[-1]
    d = x - mu
    q = d @ np.linalg.solve(v, d) / s
    sign, logdet = np.linalg.slogdet(v)
    return float(
        -0.5 * m * np.log(s) - 0.5 * logdet + gen.log_gbar(np.array([q]), m)[0]
    )


# ---------------------------------------------------------------------------
# score_eta
# ---------------------------------------------------------------------------


def test_score_eta_gaussian_identity_location_block():
    m = 3
    x = np.array([0.4, -1.0, 2.0])
    mu = np.array([0.1, 0.0, 0.5])
    s = score_eta(x, mu, np.eye(m), 1.0, NORMALIZED_TRACE, gaussian())
    np.testing.assert_allclose(s[:m], x - mu, atol=1e-12)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("gen", [gaussian(), student_t(7)], ids=str)
def test_score_eta_matches_log_pdf_gradient(scale, gen):
    rng = np.random.default_rng(52)
    m = 2
    mu, v, s = random_model(rng, m, scale)
    x = mu + rng.standard_normal(m)
    theta = np.concatenate([mu, ovecs(v), [s]])
    analytic = score_eta(x, mu, v, s, scale, gen)
    h = 1e-6
    fd = np.empty_like(theta)
    for k in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        fd[k] = (
            log_pdf_eta(up, x, scale, gen, m) - log_pdf_eta(dn, x, scale, gen, m)
        ) / (2 * h)
    np.testing.assert_allclose(analytic, fd, atol=1e-6)


def test_score_eta_zero_mean_monte_carlo():
    sigma = toeplitz(0.8 ** np.arange(4))
    assert score_zero_mean(student_t(6), NORMALIZED_TRACE, sigma, 100_000, 7531) < 3


def test_score_eta_at_x_equal_mu():
    m = 3
    mu = np.ones(m)
    s = score_eta(mu, mu, np.eye(m), 1.0, NORMALIZED_TRACE, gaussian())
    np.testing.assert_allclose(s[:m], 0.0, atol=0)
    # scale score hits its Q=0 limit -m/(2s)
    assert s[-1] == pytest.approx(-m / 2.0)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_score_eta_equals_score_theta_at_shape_scale_map(scale):
    # the structured K_V^T D_m^T contraction against the generic theta path
    rng = np.random.default_rng(23)
    m = 3
    mu, v, s = random_model(rng, m, scale)
    gen = student_t(7)
    x = mu + rng.standard_normal((20, m))
    theta0 = np.concatenate([mu, ovecs(v), [s]])
    generic = score_theta(x, shape_scale_parameterization(scale, m), theta0, gen)
    np.testing.assert_allclose(score_eta(x, mu, v, s, scale, gen), generic, rtol=1e-12)


def test_score_vecs_sigma_equals_sigma_block_of_score_theta():
    rng = np.random.default_rng(24)
    m = 3
    mu, v, s = random_model(rng, m, NORMALIZED_TRACE)
    sigma = s * v
    gen = student_t(7)
    x = mu + rng.standard_normal((20, m))
    theta0 = np.concatenate([mu, vecs(sigma)])
    generic = score_theta(x, identity_parameterization(m), theta0, gen)
    np.testing.assert_allclose(score_vecs_sigma(x, mu, sigma, gen), generic[:, m:], rtol=1e-12)


def test_scores_factor_sigma_once_and_invert_nothing(monkeypatch):
    import ellipfim.fim as fim_module

    calls = []
    cho_factor = fim_module.linalg.cho_factor

    def counting_cho_factor(a, *args, **kwargs):
        calls.append(a)
        return cho_factor(a, *args, **kwargs)

    def no_inverse(a):
        raise AssertionError("a score inverted a matrix")

    monkeypatch.setattr(fim_module.linalg, "cho_factor", counting_cho_factor)
    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    rng = np.random.default_rng(25)
    m = 3
    mu, v, s = random_model(rng, m, NORMALIZED_TRACE)
    x = mu + rng.standard_normal((5, m))
    gen = student_t(7)
    _, param, theta0 = make_lowrank()
    x_theta = rng.standard_normal((5, param.sigma_fn(theta0).shape[0]))
    for score in (
        lambda: score_eta(x, mu, v, s, NORMALIZED_TRACE, gen),
        lambda: score_vecs_sigma(x, mu, s * v, gen),
        lambda: score_theta(x_theta, param, theta0, gen),
        lambda: efficient_score_theta(x_theta, param, theta0, gen),
    ):
        calls.clear()
        score()
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# fim_eta and friends
# ---------------------------------------------------------------------------


def test_fim_eta_gaussian_identity_blocks():
    m = 4
    blocks = fim_eta(np.eye(m), 1.0, NORMALIZED_TRACE, gaussian())
    np.testing.assert_allclose(blocks.i_mu, np.eye(m), atol=1e-12)
    assert blocks.i_s == pytest.approx(2.0)


@pytest.mark.parametrize("m", [4, 16, 32])
@pytest.mark.parametrize(
    "gen", [student_t(2.001), student_t(3.0), generalized_gaussian(0.1)], ids=str
)
def test_fim_eta_scale_information_keeps_its_digits_at_heavy_tails(m, gen):
    # I_s = m ((m + 2) alpha - m) / 4 at s = 1, for the double alpha, exactly
    # as a fraction: (m + 2) alpha - m nears 0 as alpha nears m / (m + 2),
    # and formed as written it loses up to about 100 eps at m = 32
    alpha = gen.alpha(m)
    want = m * ((m + 2) * Fraction(alpha) - m) / 4
    got = fim_eta(np.eye(m), 1.0, NORMALIZED_TRACE, gen).i_s
    assert abs(Fraction(got) - want) <= 2 * np.finfo(float).eps * want


def test_fim_eta_detroot_cross_block_vanishes():
    rng = np.random.default_rng(3)
    m = 4
    _, v, _ = random_model(rng, m, DET_ROOT)
    blocks = fim_eta(v, 1.3, DET_ROOT, student_t(8))
    np.testing.assert_allclose(blocks.i_vs, 0.0, atol=1e-12)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("gen", [gaussian(), student_t(6), student_t(8), generalized_gaussian(0.5)], ids=str)
def test_efficient_fim_shape_is_schur_complement(scale, m, gen):
    rng = np.random.default_rng(100 * m)
    assert restricted_adaptivity(rng, (scale,), (gen,), (m,)) < 1e-10


def test_efficient_fim_shape_alpha_ratio():
    rng = np.random.default_rng(41)
    _, v, _ = random_model(rng, 3, NORMALIZED_TRACE)
    g_fim = efficient_fim_shape(v, NORMALIZED_TRACE, gaussian())
    t_fim = efficient_fim_shape(v, NORMALIZED_TRACE, student_t(5))
    ratio = student_t(5).alpha(3) / gaussian().alpha(3)
    np.testing.assert_allclose(t_fim, ratio * g_fim, rtol=1e-12)


def test_efficient_fim_shape_detroot_full_adaptivity():
    rng = np.random.default_rng(42)
    _, v, _ = random_model(rng, 4, DET_ROOT)
    gen = student_t(6)
    blocks = fim_eta(v, 1.0, DET_ROOT, gen)
    np.testing.assert_allclose(
        efficient_fim_shape(v, DET_ROOT, gen), blocks.i_v, rtol=1e-12
    )


def test_projection_identity_coefficients():
    # I_Vs I_s^-1 / (2s) = M_S vec(V^-1) / (2m) for all scales
    rng = np.random.default_rng(9)
    assert projection_identity(rng, ALL_SCALES, 3, 2.2, student_t(7)) < 1e-12


def test_fim_vecs_sigma_gaussian_identity():
    m = 2
    from ellipfim.matcalc import duplication_matrix

    d = duplication_matrix(m)
    np.testing.assert_allclose(
        fim_vecs_sigma(np.eye(m), gaussian()), 0.5 * d.T @ d, atol=1e-12
    )


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_fim_vecs_sigma_chain_rule(scale):
    assert fim_chain_rule(np.random.default_rng(77), (scale,), 3, 1.4, student_t(9)) < 1e-10


def test_fim_vecs_sigma_monte_carlo():
    m, n = 2, 20_000
    gen = student_t(8)
    sigma = toeplitz(0.6 ** np.arange(m)) * 1.5
    mu = np.zeros(m)
    x = sample(n, mu, sigma, gen, seed=314)
    scores = score_vecs_sigma(x, mu, sigma, gen)
    assert max_z(np.einsum("ni,nj->nij", scores, scores), fim_vecs_sigma(sigma, gen)) < 3


# ---------------------------------------------------------------------------
# parameterized models
# ---------------------------------------------------------------------------


def make_lowrank(m=4, p=2, q=2, noise=0.5, seed=5):
    rng = np.random.default_rng(seed)
    a_fn, a_jac = sinusoid_steering(m)
    b = rng.standard_normal((p, p))
    xi = b @ b.T + p * np.eye(p)
    model = LowRankModel(
        a_fn=a_fn, a_jac=a_jac, signal_cov=xi, noise_level=noise, q=q
    )
    gamma0 = np.array([0.7, 1.9])[:q]
    return model, low_rank_parameterization(model), model.theta0(gamma0)


def test_fim_theta_identity_map_reproduces_blocks():
    m = 3
    gen = student_t(6)
    rng = np.random.default_rng(8)
    mu = rng.standard_normal(m)
    a = rng.standard_normal((m, m))
    sigma = a @ a.T + m * np.eye(m)
    param = identity_parameterization(m)
    theta0 = np.concatenate([mu, vecs(sigma)])
    full = fim_theta(param, theta0, gen)
    np.testing.assert_allclose(
        full[:m, :m], gen.beta(m) * np.linalg.inv(sigma), rtol=1e-10
    )
    np.testing.assert_allclose(full[:m, m:], 0.0, atol=1e-12)
    np.testing.assert_allclose(full[m:, m:], fim_vecs_sigma(sigma, gen), rtol=1e-10)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_fim_theta_shape_scale_map_reproduces_fim_eta(scale):
    m = 3
    gen = student_t(6)
    rng = np.random.default_rng(18)
    mu, v, s = random_model(rng, m, scale)
    s = 1.9
    param = shape_scale_parameterization(scale, m)
    theta0 = np.concatenate([mu, ovecs(v), [s]])
    full = fim_theta(param, theta0, gen)
    blocks = fim_eta(v, s, scale, gen)
    np.testing.assert_allclose(full, blocks.full(), atol=1e-10 * np.linalg.norm(full))


def test_fim_theta_equals_sfim_for_gaussian():
    model, param, theta0 = make_lowrank()
    dev = loewner_ordering(param, theta0, ())
    assert dev.gaussian_gap <= 1e-12 * dev.gaussian_norm


def test_fim_minus_sfim_psd_for_t():
    model, param, theta0 = make_lowrank()
    dev = loewner_ordering(param, theta0, (student_t(8),))
    assert dev.min_eig > -1e-10
    assert dev.min_trace > 1e-6


@pytest.mark.parametrize("fim_fn", [fim_theta, sfim_theta], ids=lambda f: f.__name__)
def test_theta_fim_beyond_the_float_range_raises(fim_fn):
    # alpha and beta of gg(1e308) are about 1e307: the FIM overflows
    param, theta0 = shape_scale_example(NORMALIZED_TRACE, 4, 0.8, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="FIM of theta under gg\\(1e\\+308\\) is not finite"):
            fim_fn(param, theta0, generalized_gaussian(1e308))


def test_fim_theta_rejects_rank_deficient_jacobian():
    m = 3

    def sigma_fn(theta):
        return np.exp(theta[0]) * np.eye(m)

    from ellipfim.parameterize import Parameterization

    # two parameters driving the same direction -> rank deficient
    param = Parameterization(
        q=2,
        r=0,
        mu_fn=lambda th: np.zeros(m),
        sigma_fn=lambda th: np.exp(th[0] + th[1]) * np.eye(m),
    )
    with pytest.raises(IdentifiabilityError):
        fim_theta(param, np.array([0.1, 0.2]), gaussian())


# ---------------------------------------------------------------------------
# efficient scores
# ---------------------------------------------------------------------------


def test_efficient_score_equals_score_for_gaussian():
    model, param, theta0 = make_lowrank()
    rng = np.random.default_rng(30)
    sigma = param.sigma_fn(theta0)
    x = sample(64, np.zeros(sigma.shape[0]), sigma, gaussian(), seed=17)
    s_full = score_theta(x, param, theta0, gaussian())
    s_eff = efficient_score_theta(x, param, theta0, gaussian())
    np.testing.assert_allclose(s_eff, s_full, atol=1e-12 * np.abs(s_full).max())


@pytest.mark.parametrize("gen", [student_t(8), generalized_gaussian(0.5)], ids=str)
@pytest.mark.parametrize("efficient", [False, True], ids=["score", "efficient"])
def test_theta_scores_at_x_equal_mu(gen, efficient):
    # at Q = 0 every phibar term drops out, leaving the tr(Sigma^-1 Sigma_i) term
    _, param, theta0 = make_lowrank()
    sigma = param.sigma_fn(theta0)
    m = sigma.shape[0]
    x = sample(4, np.zeros(m), sigma, gen, seed=11)
    x[[0, 2]] = param.mu_fn(theta0)
    fn = efficient_score_theta if efficient else score_theta
    out = fn(x, param, theta0, gen)
    trace = np.einsum("ij,kji->k", np.linalg.inv(sigma), param.jacobian_sigma(theta0))
    coef = -m / gen.sigma_q2(m) if efficient else -0.5
    np.testing.assert_allclose(out[[0, 2]], np.tile(coef * trace, (2, 1)), rtol=1e-12)
    for i in (1, 3):
        np.testing.assert_allclose(out[i], fn(x[i], param, theta0, gen), rtol=1e-12)


def test_score_theta_matches_fd_log_pdf():
    model, param, theta0 = make_lowrank()
    gen = student_t(7)
    rng = np.random.default_rng(63)
    m = param.sigma_fn(theta0).shape[0]
    x = rng.standard_normal(m)

    def log_pdf(th):
        sig = param.sigma_fn(th)
        mu = param.mu_fn(th)
        d = x - mu
        q = d @ np.linalg.solve(sig, d)
        return float(
            -0.5 * np.linalg.slogdet(sig)[1] + gen.log_gbar(np.array([q]), m)[0]
        )

    h = 1e-6
    fd = np.empty(param.d)
    for k in range(param.d):
        up, dn = theta0.copy(), theta0.copy()
        up[k] += h
        dn[k] -= h
        fd[k] = (log_pdf(up) - log_pdf(dn)) / (2 * h)
    np.testing.assert_allclose(score_theta(x, param, theta0, gen), fd, atol=1e-5)


def test_efficient_score_moments_monte_carlo():
    model, param, theta0 = make_lowrank()
    gen = student_t(8)
    n = 100_000
    sigma = param.sigma_fn(theta0)
    m = sigma.shape[0]
    x = sample(n, np.zeros(m), sigma, gen, seed=4242)
    s_eff = efficient_score_theta(x, param, theta0, gen)
    assert max_z(s_eff) < 3
    # The projection removes only the constrained tangent space, which
    # excludes Span{Q - m}: the efficient score keeps that component, so
    # E{score_i (Q - m)} = tr(P_i), not zero.
    from ellipfim.generators import modular_variate

    q = modular_variate(x, np.zeros(m), sigma)
    tr_p = np.einsum("ij,kji->k", np.linalg.inv(sigma), param.jacobian_sigma(theta0))
    assert max_z(s_eff * (q - m)[:, None], tr_p) < 3
    # orthogonality to the generator-direction residual h(Q) = log(1+Q)
    # centered and (Q-m)-residualized (h must be square integrable here;
    # Q^2 is exercised under lighter-tailed generators below)
    h = np.log1p(q)
    h = h - h.mean()
    h = h - (h @ (q - m)) / ((q - m) @ (q - m)) * (q - m)
    assert max_z(s_eff * h[:, None]) < 3


@pytest.mark.parametrize("gen", [gaussian(), generalized_gaussian(0.5)], ids=str)
def test_efficient_score_orthogonal_to_q_squared(gen):
    # all Q moments are finite for these families, so the 3-s.e. band on
    # E{score * resid(Q^2)} is a valid test statistic
    model, param, theta0 = make_lowrank()
    n = 100_000
    sigma = param.sigma_fn(theta0)
    m = sigma.shape[0]
    x = sample(n, np.zeros(m), sigma, gen, seed=90210)
    s_eff = efficient_score_theta(x, param, theta0, gen)
    from ellipfim.generators import modular_variate

    q = modular_variate(x, np.zeros(m), sigma)
    h = q**2
    h = h - h.mean()
    h = h - (h @ (q - m)) / ((q - m) @ (q - m)) * (q - m)
    assert max_z(s_eff * h[:, None]) < 3


def _theta_fim_z(gen, seed, n=20_000):
    """max |z| of the score and of the efficient score outer products of n
    draws against the FIM and the SFIM (criterion 6's body)."""
    _, param, theta0 = make_lowrank()
    return empirical_fims_mc([(gen, param, theta0, seed)], n)


@pytest.mark.parametrize("gen", [gaussian(), student_t(8)], ids=str)
def test_fim_theta_monte_carlo(gen):
    assert _theta_fim_z(gen, 999)[0] < 3


@pytest.mark.parametrize("gen", [gaussian(), student_t(8)], ids=str)
def test_sfim_theta_monte_carlo(gen):
    assert _theta_fim_z(gen, 2718)[1] < 3


# ---------------------------------------------------------------------------
# Schur complement helper
# ---------------------------------------------------------------------------


def test_efficient_fim_interest_block_diagonal_passthrough():
    fim = np.diag([3.0, 2.0, 5.0])
    np.testing.assert_allclose(
        efficient_fim_interest(fim, 2), np.diag([3.0, 2.0]), atol=0
    )


def test_efficient_fim_interest_2x2():
    fim = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert efficient_fim_interest(fim, 1)[0, 0] == pytest.approx(1.0)


def test_efficient_fim_interest_matches_inverse_block():
    rng = np.random.default_rng(60)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        fim = a @ a.T + 5 * np.eye(5)
        q = 2
        eff = efficient_fim_interest(fim, q)
        top_left_inv = np.linalg.inv(fim)[:q, :q]
        np.testing.assert_allclose(eff, np.linalg.inv(top_left_inv), rtol=1e-9)
