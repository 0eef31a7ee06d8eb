import numpy as np
import pytest
from scipy.linalg import toeplitz

from ellipfim.fim import IdentifiabilityError, fim_theta
from ellipfim.generators import gaussian, generalized_gaussian, student_t
from ellipfim.matcalc import vecs
from ellipfim.parameterize import (
    LowRankModel,
    breaking_parameterization,
    condition_check,
    linear_split_parameterization,
    low_rank_parameterization,
    shape_scale_parameterization,
    sinusoid_steering,
    verify_adaptivity_by_fim,
)
from ellipfim.matcalc import ovecs
from ellipfim.scale import DET_ROOT, FIRST_ELEMENT, NORMALIZED_TRACE, decompose

NONGAUSS = [student_t(6), student_t(8), generalized_gaussian(0.5)]


def split_setup(m=4, q=2, seed=3):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((m, q))
    param = linear_split_parameterization(h, m)
    sigma0 = toeplitz(0.7 ** np.arange(m)) * 1.4
    theta0 = np.concatenate([rng.standard_normal(q), vecs(sigma0)])
    return param, theta0


def lowrank_setup(m=6, p=2, noise=0.8, seed=11):
    rng = np.random.default_rng(seed)
    a_fn, a_jac = sinusoid_steering(m)
    b = rng.standard_normal((p, p))
    xi = b @ b.T + p * np.eye(p)
    model = LowRankModel(a_fn=a_fn, a_jac=a_jac, signal_cov=xi, noise_level=noise, q=p)
    gamma0 = np.array([0.6, 1.7])
    return low_rank_parameterization(model), model.theta0(gamma0)


# ---------------------------------------------------------------------------
# condition_check
# ---------------------------------------------------------------------------


def test_split_parameterization_residual_exactly_zero():
    param, theta0 = split_setup()
    report = condition_check(param, theta0, student_t(6))
    np.testing.assert_array_equal(report.residual, np.zeros(param.q))
    assert report.satisfied


@pytest.mark.parametrize("gen", NONGAUSS, ids=str)
def test_lowrank_condition_satisfied(gen):
    param, theta0 = lowrank_setup()
    report = condition_check(param, theta0, gen)
    assert report.satisfied
    assert np.abs(report.residual).max() < 1e-8 * max(
        1.0, np.abs(report.interest_term).max()
    )
    # the uncorrected interest term is itself far from zero
    assert np.abs(report.interest_term).max() > 1e-2


def test_breaking_parameterization_residual_analytic():
    sigma0 = toeplitz(0.5 ** np.arange(3))
    param = breaking_parameterization(sigma0)
    gamma0 = np.array([1.7])
    report = condition_check(param, gamma0, student_t(8))
    assert not report.satisfied
    # J_gamma^T[vec Sigma] vec(Sigma^-1) = tr(Sigma0 Sigma^-1) = m / gamma0
    assert report.residual[0] == pytest.approx(3.0 / 1.7, rel=1e-10)


@pytest.mark.parametrize("scale", [FIRST_ELEMENT, NORMALIZED_TRACE, DET_ROOT], ids=lambda s: s.kind)
def test_shape_scale_parameterization_passes_condition(scale):
    # the (mu, shape | scale) model is the built-in special case whose
    # adaptivity is the restricted-adaptivity property
    rng = np.random.default_rng(21)
    m = 3
    a = rng.standard_normal((m, m))
    dec = decompose(scale, a @ a.T + m * np.eye(m))
    param = shape_scale_parameterization(scale, m)
    theta0 = np.concatenate([rng.standard_normal(m), ovecs(dec.v), [1.6]])
    for gen in NONGAUSS:
        report = condition_check(param, theta0, gen)
        assert report.satisfied, (scale.kind, gen.name, report.residual)


# ---------------------------------------------------------------------------
# FIM-gap verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gen", NONGAUSS, ids=str)
def test_lowrank_fim_gap_below_tolerance(gen):
    param, theta0 = lowrank_setup()
    report = verify_adaptivity_by_fim(param, theta0, gen)
    assert report.adaptive
    assert report.gap_rel < 1e-8


def test_gaussian_any_parameterization_gap_zero():
    sigma0 = toeplitz(0.5 ** np.arange(3))
    param = breaking_parameterization(sigma0)
    report = verify_adaptivity_by_fim(param, np.array([1.3]), gaussian())
    assert report.gap_rel < 1e-12
    # ... even though the condition residual is nonzero
    assert not report.condition.satisfied


@pytest.mark.parametrize("gen", NONGAUSS, ids=str)
def test_breaking_parameterization_strict_gap_for_non_gaussian(gen):
    sigma0 = toeplitz(0.5 ** np.arange(3))
    param = breaking_parameterization(sigma0)
    report = verify_adaptivity_by_fim(param, np.array([1.3]), gen)
    assert not report.adaptive
    assert report.gap > 1e-4
    assert not report.condition.satisfied


@pytest.mark.parametrize("gen", NONGAUSS, ids=str)
def test_split_fim_gap_zero(gen):
    param, theta0 = split_setup()
    report = verify_adaptivity_by_fim(param, theta0, gen)
    assert report.adaptive


def test_lowrank_fim_positive_definite_at_generic_point():
    param, theta0 = lowrank_setup()
    full = fim_theta(param, theta0, student_t(8))
    assert np.linalg.eigvalsh(full).min() > 0


def test_lowrank_structure_rank_one_factor():
    # m=4, p=1, A = ones: Sigma = Xi_11 1 1^T + lambda I
    m = 4
    model = LowRankModel(
        a_fn=lambda g: np.ones((m, 1)),
        a_jac=lambda g: np.zeros((m, 1, 0)),
        signal_cov=np.array([[2.0]]),
        noise_level=0.5,
        q=0,
    )
    param = low_rank_parameterization(model)
    theta0 = model.theta0(np.zeros(0))
    sigma = param.sigma_fn(theta0)
    np.testing.assert_allclose(sigma, 2.0 * np.ones((m, m)) + 0.5 * np.eye(m))


def test_lowrank_rank_deficient_a_rejected():
    m = 4
    model = LowRankModel(
        a_fn=lambda g: np.zeros((m, 2)),
        a_jac=lambda g: np.zeros((m, 2, 1)),
        signal_cov=np.eye(2),
        noise_level=0.5,
        q=1,
    )
    param = low_rank_parameterization(model)
    with pytest.raises(IdentifiabilityError):
        param.jacobian_sigma(model.theta0(np.array([0.4])))
