"""Generator functionals checked against independent mpmath quadrature.

The oracle is ``dense_oracles.mp_expect``: f(q) q^(m/2-1) gbar(q)
integrated by tanh-sinh quadrature at 40 significant digits, sharing
nothing with the library's scipy-based path or with the closed forms
under test.
"""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import gammaln

from dense_oracles import mp_expect
from ellipfim.generators import (
    MomentUndefinedError,
    coefficients,
    expect,
    gaussian,
    generalized_gaussian,
    modular_variate,
    sample,
    student_t,
)
from ellipfim.invariants import max_z, sampling_moments

GENS = [gaussian(), student_t(6), student_t(8), generalized_gaussian(0.5)]


# ---------------------------------------------------------------------------
# phi_bar
# ---------------------------------------------------------------------------


def test_phi_bar_gaussian_is_one():
    g = gaussian()
    t = np.array([0.1, 1.0, 25.0])
    np.testing.assert_allclose(g.phi_bar(t, 4), np.ones(3), atol=0)


def test_phi_bar_student_t_value():
    # (m + nu) / (nu - 2 + t) at m=4, nu=6, t=4 -> 10/8
    g = student_t(6)
    assert g.phi_bar(np.array([4.0]), 4)[0] == pytest.approx(1.25, abs=1e-15)


@pytest.mark.parametrize("gen", GENS, ids=str)
@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_phi_bar_matches_log_density_slope(gen, t):
    m = 4
    h = 1e-6
    fd = (gen.log_gbar(np.array([t + h]), m) - gen.log_gbar(np.array([t - h]), m)) / (
        2 * h
    )
    assert abs(gen.phi_bar(np.array([t]), m)[0] + 2.0 * fd[0]) < 1e-6


# ---------------------------------------------------------------------------
# alpha, beta, sigma_q2
# ---------------------------------------------------------------------------


def test_gaussian_coefficients_m4():
    c = coefficients(gaussian(), 4)
    assert c.alpha == pytest.approx(1.0, abs=1e-15)
    assert c.beta == pytest.approx(1.0, abs=1e-15)
    assert c.sigma_q2 == pytest.approx(8.0, abs=1e-12)


def test_student_t6_m4_paper_values():
    c = coefficients(student_t(6), 4)
    assert c.alpha == pytest.approx(10.0 / 12.0, abs=1e-15)
    # sigma_q2 = (2m/(nu-4)) (m+nu-2) = (8/2) * 8 = 32
    assert c.sigma_q2 == pytest.approx(32.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 4, 32])
def test_student_t_beta_tends_to_one_as_nu_grows(m):
    # nu (m + nu) alone overflows past nu ~ 1e154
    nus = (1e3, 1e8, 1e15, 1e100, 1e200, 1e300)
    gaps = np.abs(np.array([student_t(nu).beta(m) for nu in nus]) - 1.0)
    assert np.isfinite(gaps).all()
    assert (np.diff(gaps) <= 0).all()
    assert gaps[-1] <= 1e-15


@pytest.mark.parametrize("gen", GENS, ids=str)
@pytest.mark.parametrize("m", [2, 4, 8])
def test_alpha_beta_against_mp_quadrature(gen, m):
    alpha_q = mp_expect(gen, m, lambda q: (q * float(gen.phi_bar(np.array([float(q)]), m)[0])) ** 2) / (
        m * (m + 2)
    )
    beta_q = mp_expect(gen, m, lambda q: q * float(gen.phi_bar(np.array([float(q)]), m)[0]) ** 2) / m
    assert gen.alpha(m) == pytest.approx(alpha_q, rel=1e-10)
    assert gen.beta(m) == pytest.approx(beta_q, rel=1e-10)


@pytest.mark.parametrize(
    "gen", [gaussian(), student_t(6), student_t(8), generalized_gaussian(0.5)], ids=str
)
@pytest.mark.parametrize("m", [2, 4])
def test_sigma_q2_against_mp_quadrature(gen, m):
    second = mp_expect(gen, m, lambda q: q * q)
    assert gen.sigma_q2(m) == pytest.approx(second - m * m, rel=1e-9)


def mp_gg_beta(shape, m, dps=50):
    """The gg closed form 4 s^2 G((m+2)/2s) G((m-2)/2s + 2) / (m G(m/2s))^2
    evaluated with mpmath gamma functions, no logarithms."""
    with mpmath.workdps(dps):
        s, m = mpmath.mpf(shape), mpmath.mpf(m)
        num = 4 * s * s * mpmath.gamma((m + 2) / (2 * s)) * mpmath.gamma((m - 2) / (2 * s) + 2)
        return float(num / (m * mpmath.gamma(m / (2 * s))) ** 2)


@pytest.mark.parametrize("shape", [1e-2, 1.0, 1e100, 1e200])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_gg_beta_across_the_float_range(shape, m):
    # 4 s^2 overflows from s ~ 1e154; the log-space form does not
    assert generalized_gaussian(shape).beta(m) == pytest.approx(mp_gg_beta(shape, m), rel=1e-12)


@pytest.mark.parametrize(
    "shape, m, functional", [(1e-3, 2, "beta"), (1e-4, 8, "beta"), (1e-4, 6, "sigma_q2")]
)
def test_gg_functionals_beyond_the_float_range_raise(shape, m, functional):
    gen = generalized_gaussian(shape)
    with pytest.raises(ValueError, match=f"{functional} of gg\\({shape:g}\\) at m={m}"):
        getattr(gen, functional)(m)


@pytest.mark.parametrize("shape", [1e-3, 0.5, 1.0, 7.3, 1e100, 1e300, 1e308, sys.float_info.max])
@pytest.mark.parametrize("m", [1, 2, 6, 32])
def test_gg_alpha_has_no_overflowing_intermediate(shape, m):
    # the intermediate m + 2 s overflowed from s ~ 9e307; where it does
    # not, alpha is (m + 2 s) / (m + 2) to the bit
    alpha = generalized_gaussian(shape).alpha(m)
    want = mpmath.mpf(m + 2 * mpmath.mpf(shape)) / (m + 2)
    assert math.isfinite(alpha) and alpha == pytest.approx(float(want), rel=1e-15)
    if math.isfinite(2.0 * shape):
        assert alpha == (m + 2.0 * shape) / (m + 2.0)


def gg_from_b(shape, m, t, rng, n):
    """log gbar, phibar and n draws of Q of gg(shape) from b = c^shape, the
    scale that overflows from shape ~ 400: log gbar = log a - t^s / b,
    phibar = 2 s t^(s-1) / b and Q = (b g)^(1/s) U^(2/m) with
    g ~ Gamma(m/2s + 1), then U ~ Uniform(0, 1)."""
    s = shape
    b = math.exp(s * (math.log(m) + gammaln(0.5 * m / s) - gammaln(0.5 * (m + 2) / s)))
    log_a = (
        math.log(s) + gammaln(0.5 * m) - 0.5 * m * math.log(math.pi)
        - (0.5 * m / s) * math.log(b) - gammaln(0.5 * m / s)
    )
    g = rng.gamma(0.5 * m / s + 1.0, size=n)
    q = np.power(b * g, 1.0 / s) * np.power(rng.random(n), 2.0 / m)
    return log_a - np.power(t, s) / b, 2.0 * s * np.power(t, s - 1.0) / b, q


@pytest.mark.parametrize("shape", [0.5, 1.0, 1.7, 5.0, 10.0, 25.0, 50.0])
@pytest.mark.parametrize("m", [1, 4, 16])
def test_gg_from_c_matches_the_b_form(shape, m):
    # b = exp(s log c) carries s times the rounding of log c
    gen = generalized_gaussian(shape)
    t = np.array([1e-3, 0.7, 2.0, 7.5, 60.0])
    log_gbar, phi, q = gg_from_b(shape, m, t, np.random.default_rng(3), 200)
    rtol = 4.0 * max(shape, 1.0) * np.finfo(float).eps
    np.testing.assert_allclose(gen.log_gbar(t, m), log_gbar, rtol=rtol, atol=0)
    np.testing.assert_allclose(gen.phi_bar(t, m), phi, rtol=rtol, atol=0)
    np.testing.assert_allclose(gen.sample_q(200, m, np.random.default_rng(3)), q, rtol=rtol, atol=0)


@pytest.mark.parametrize("shape", [400.0, 1e4])
def test_gg_at_huge_shape_is_finite(shape):
    # b = c^s overflowed here; t below c ~ m + 2 keeps (t / c)^s in range
    gen, m, t = generalized_gaussian(shape), 4, np.array([0.5, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [gen.log_gbar(t, m), gen.phi_bar(t, m), gen.sample_q(100, m, np.random.default_rng(5))]
    assert all(np.isfinite(v).all() for v in values)


@pytest.mark.parametrize("shape", [400.0, 1e4])
def test_gg_draws_do_not_underflow_at_huge_shape(shape):
    # a direct Gamma(m/2s) draw is 0 for 2.4% (400) and 86% (1e4) of these
    gen, m, n = generalized_gaussian(shape), 4, 100_000
    q = gen.sample_q(n, m, np.random.default_rng(0))
    assert (q > 0).all()
    assert max_z(q, m) < 4.0


@pytest.mark.parametrize("nu", [1e306, 1e308, sys.float_info.max])
def test_t_draw_at_huge_nu_is_finite(nu):
    # (nu - 2) chi2_m overflows there; chi2_nu is about nu, so Q ~ chi2_m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = student_t(nu).sample_q(1000, 4, np.random.default_rng(1))
    assert np.isfinite(q).all()
    assert 3.5 < q.mean() < 4.5


@pytest.mark.parametrize("nu", [2.5, 6.0, 1e300])
def test_t_draw_keeps_its_bits_where_finite(nu):
    rng = np.random.default_rng(4)
    num, den = rng.chisquare(4, size=500), rng.chisquare(nu, size=500)
    q = student_t(nu).sample_q(500, 4, np.random.default_rng(4))
    np.testing.assert_array_equal(q, (nu - 2.0) * num / den)


def test_sigma_q2_rejected_below_nu4():
    with pytest.raises(MomentUndefinedError):
        student_t(3).sigma_q2(4)
    with pytest.raises(MomentUndefinedError):
        coefficients(student_t(4), 4)


def test_student_t_requires_nu_above_2():
    with pytest.raises(ValueError):
        student_t(2.0)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="huge_int")]
)
@pytest.mark.parametrize("family", [student_t, generalized_gaussian])
def test_non_finite_generator_parameters_are_rejected(family, value):
    # NaN compares False with every bound, so it needs its own rejection
    with pytest.raises(ValueError, match="finite"):
        family(value)


# ---------------------------------------------------------------------------
# moment identities and Q density normalization (library quadrature path)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gen", GENS, ids=str)
@pytest.mark.parametrize("m", [2, 4, 8])
def test_footnote_moment_identities(gen, m):
    assert expect(gen, m, lambda q: np.ones_like(q)) == pytest.approx(1.0, abs=1e-8)
    assert expect(gen, m, lambda q: q) == pytest.approx(m, rel=1e-6)
    assert expect(gen, m, lambda q: q * gen.phi_bar(q, m)) == pytest.approx(
        m, rel=1e-6
    )
    assert expect(gen, m, lambda q: q * q * gen.phi_bar(q, m)) == pytest.approx(
        m * (m + 2), rel=1e-6
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_deterministic_given_seed():
    sigma = np.eye(3)
    a = sample(50, np.zeros(3), sigma, student_t(5), seed=123)
    b = sample(50, np.zeros(3), sigma, student_t(5), seed=123)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("gen", [gaussian(), student_t(6)], ids=str)
def test_sample_mean_q_is_m(gen):
    assert sampling_moments(gen, np.eye(4), 100_000, 2024)[1] < 3


def test_sample_covariance_matches_toeplitz_scatter():
    sigma = toeplitz(0.8 ** np.arange(4))
    assert sampling_moments(gaussian(), sigma, 100_000, 99)[0] < 3


def test_sample_rejects_non_pd_scatter():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(Exception):
        sample(10, np.zeros(2), bad, gaussian(), seed=1)


# ---------------------------------------------------------------------------
# modular variate
# ---------------------------------------------------------------------------


def test_modular_variate_at_mu_is_zero():
    mu = np.array([1.0, -2.0])
    assert modular_variate(mu, mu, np.eye(2)) == 0.0


def test_modular_variate_euclidean_case():
    assert modular_variate(np.array([3.0, 4.0]), np.zeros(2), np.eye(2)) == pytest.approx(
        25.0
    )


def test_modular_variate_scaling():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(4)
    mu = rng.standard_normal(4)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 4 * np.eye(4)
    c = 2.7
    q1 = modular_variate(x, mu, sigma)
    q2 = modular_variate(x, mu, c * sigma)
    assert q2 == pytest.approx(q1 / c, rel=1e-12)
