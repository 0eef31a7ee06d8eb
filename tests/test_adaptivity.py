import json

import numpy as np
import pytest
from scipy.linalg import toeplitz

import dense_oracles as dense
from ellipfim.cli import _parameterization_from_spec, main
from ellipfim.fim import IdentifiabilityError, fim_theta
from ellipfim.generators import gaussian, generalized_gaussian, student_t
from ellipfim.matcalc import vecs, vecs_len
from ellipfim.parameterize import (
    ADAPTIVITY_TOL,
    LowRankModel,
    breaking_example,
    breaking_parameterization,
    condition_check,
    identity_parameterization,
    linear_split_parameterization,
    low_rank_example,
    low_rank_parameterization,
    shape_scale_example,
    shape_scale_parameterization,
    sinusoid_steering,
    split_example,
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


ORACLE_GENS = [gaussian(), student_t(5), student_t(8), generalized_gaussian(0.5),
               generalized_gaussian(2.0)]
ORACLE_SPECS = [
    {"name": name, "m": m, **extra}
    for m in (4, 16, 32)
    for name, extra in [("split", {}), ("low_rank", {}), ("breaking", {}),
                        *(("shape_scale", {"scale": s}) for s in ("first", "trace", "det"))]
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: "-".join(map(str, s.values())))
def test_rank_one_route_matches_the_two_fim_oracle(spec):
    # the semiparametric efficient FIM as the parametric one plus kappa r r^T,
    # against the complement of sfim_theta factored on its own
    param, theta0 = _parameterization_from_spec(spec)
    m = spec["m"]
    for gen in ORACLE_GENS:
        report = verify_adaptivity_by_fim(param, theta0, gen)
        eff_par, eff_semi, gap_rel = dense.adaptivity_two_fims(param, theta0, gen)
        np.testing.assert_array_equal(report.fim_interest, eff_par)
        scale = np.abs(eff_semi).max()
        assert np.abs(report.sfim_interest - eff_semi).max() <= 1e-14 * scale, gen
        assert report.adaptive == (gap_rel < ADAPTIVITY_TOL), (gen, gap_rel, report.gap_rel)
        if gen.name == "gaussian":
            assert report.gap == report.gap_rel == 0.0
        if spec["name"] == "breaking":
            # I_theta = alpha m (1 + m c) / (2 gamma0^2), c the t t^T coefficient
            alpha = gen.alpha(m)
            c_par = 0.5 * (1.0 - 1.0 / alpha)
            c_semi = 2.0 / (alpha * gen.sigma_q2(m)) - 1.0 / m
            want = m * abs(c_par - c_semi) / (1.0 + m * c_semi)
            assert report.gap_rel == pytest.approx(want, rel=1e-12, abs=0.0), gen


def test_semiparametric_nuisance_block_not_positive_definite_is_named(
    monkeypatch, tmp_path, capsys
):
    # a sigma_q^2 that makes delta = 1 / sigma_q^2 - alpha / (2m) - (alpha - 1) / 4
    # so negative that 1 + delta s_e < 0
    param, theta0 = lowrank_setup()
    monkeypatch.setattr(type(student_t(8)), "sigma_q2", lambda self, m: -1e-3)
    with pytest.raises(IdentifiabilityError, match="singular nuisance information block"):
        verify_adaptivity_by_fim(param, theta0, student_t(8))
    # the oracle's own factor of I_e + delta t_e t_e^T fails there too
    with pytest.raises(IdentifiabilityError, match="singular nuisance information block"):
        dense.adaptivity_two_fims(param, theta0, student_t(8))
    # the parametric prefix does not read sigma_q^2
    assert condition_check(param, theta0, student_t(8)).satisfied
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "parameterization": {"name": "low_rank"}}))
    assert main(["adaptivity", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: IdentifiabilityError: singular nuisance information block"]


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


# ---------------------------------------------------------------------------
# the example-model builders
# ---------------------------------------------------------------------------


def test_split_example_is_the_hand_built_split_model():
    m, q, rho = 5, 3, -0.4
    rng = np.random.default_rng(21)
    h = rng.standard_normal((m, q))
    theta0 = np.concatenate([rng.standard_normal(q), vecs(toeplitz(rho ** np.arange(m)))])
    param, got = split_example(np.random.default_rng(21), m, q, rho)
    np.testing.assert_array_equal(got, theta0)
    np.testing.assert_array_equal(param.jacobian_mu(got)[:, :q], h)
    assert (param.q, param.r, param.name) == (q, vecs_len(m), "split")


def test_low_rank_example_is_the_hand_built_low_rank_model():
    m, gamma0, noise = 7, np.array([0.2, 0.9, 1.4]), 1.1
    rng = np.random.default_rng(22)
    a_fn, a_jac = sinusoid_steering(m)
    b = rng.standard_normal((3, 3))
    model = LowRankModel(
        a_fn=a_fn, a_jac=a_jac, signal_cov=b @ b.T + 3 * np.eye(3), noise_level=noise, q=3
    )
    param, theta0 = low_rank_example(np.random.default_rng(22), m, list(gamma0), noise)
    np.testing.assert_array_equal(theta0, model.theta0(gamma0))
    want = low_rank_parameterization(model)
    np.testing.assert_array_equal(param.sigma_fn(theta0), want.sigma_fn(theta0))
    np.testing.assert_array_equal(param.jacobian_sigma(theta0), want.jacobian_sigma(theta0))
    assert (param.q, param.r, param.name) == (want.q, want.r, "low_rank")


def test_identity_is_the_split_model_at_h_identity():
    m = 4
    sigma0 = toeplitz(0.6 ** np.arange(m))
    theta0 = np.concatenate([np.arange(1.0, m + 1), vecs(sigma0)])
    param = identity_parameterization(m)
    assert (param.q, param.r, param.name) == (m + vecs_len(m), 0, "identity")
    np.testing.assert_array_equal(param.mu_fn(theta0), theta0[:m])
    np.testing.assert_array_equal(param.sigma_fn(theta0), sigma0)
    np.testing.assert_array_equal(param.jacobian_mu(theta0), np.eye(m, param.d))


SPEC_BUILDERS = {
    "split": (
        {"name": "split", "seed": 5, "m": 5, "q": 3, "rho": -0.3},
        lambda: split_example(np.random.default_rng(5), 5, 3, -0.3),
    ),
    "low_rank": (
        {"name": "low_rank", "seed": 4, "m": 6, "p": 1, "gamma": [0.3], "noise": 1.2},
        lambda: low_rank_example(np.random.default_rng(4), 6, [0.3], 1.2),
    ),
    "shape_scale": (
        {"name": "shape_scale", "m": 5, "scale": "det", "rho": 0.4, "s": 3.0},
        lambda: shape_scale_example(DET_ROOT, 5, 0.4, 3.0),
    ),
    "breaking": (
        {"name": "breaking", "m": 5, "rho": 0.2, "gamma0": 2.5},
        lambda: breaking_example(5, 0.2, 2.5),
    ),
    # the CLI's defaults
    "split_default": (
        {"name": "split"},
        lambda: split_example(np.random.default_rng(0), 4, 2, 0.7),
    ),
    "low_rank_default": (
        {"name": "low_rank"},
        lambda: low_rank_example(np.random.default_rng(0), 6, [0.6, 1.7], 0.8),
    ),
    "shape_scale_default": (
        {"name": "shape_scale"},
        lambda: shape_scale_example(NORMALIZED_TRACE, 4, 0.8, 1.5),
    ),
    "breaking_default": ({"name": "breaking"}, lambda: breaking_example(3, 0.5, 1.3)),
}


@pytest.mark.parametrize("name", sorted(SPEC_BUILDERS))
def test_cli_spec_builds_the_example_model(name):
    spec, build = SPEC_BUILDERS[name]
    param, theta0 = _parameterization_from_spec(spec)
    want, want_theta0 = build()
    np.testing.assert_array_equal(theta0, want_theta0)
    np.testing.assert_array_equal(param.sigma_fn(theta0), want.sigma_fn(want_theta0))
    assert (param.q, param.r, param.name) == (want.q, want.r, want.name)
