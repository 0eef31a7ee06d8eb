import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.linalg import toeplitz
from scipy.optimize import bisect
from scipy.special import betainc, gammainc

import dense_oracles as dense
from ellipfim import estimators
from ellipfim.bounds import crb_shape
from ellipfim.estimators import (
    ShapeEstimate,
    TScore,
    TylerNonConvergenceError,
    VanDerWaerden,
    mse_index,
    r_estimator,
    r_step_batch,
    ranks,
    scm_batch,
    scm_shape,
    tyler_batch,
    tyler_shape,
    _rank_delta,
)
from ellipfim.generators import gaussian, psd_sqrt, sample, student_t
from ellipfim.invariants import ALL_SCALES, upsilon_annihilation
from ellipfim.matcalc import ovecs, vec, vecs
from ellipfim.scale import DET_ROOT, FIRST_ELEMENT, NORMALIZED_TRACE, decompose, renormalize


# ---------------------------------------------------------------------------
# score functions against independent quantile oracles
# ---------------------------------------------------------------------------


def chi2_quantile_oracle(u, m):
    # bisection on the regularized lower incomplete gamma function
    return bisect(lambda x: gammainc(m / 2.0, x / 2.0) - u, 1e-12, 500.0, xtol=1e-12)


def fisher_quantile_oracle(u, d1, d2):
    # F cdf via the regularized incomplete beta: I_{d1 x/(d1 x + d2)}(d1/2, d2/2)
    def cdf(x):
        return betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))

    return bisect(lambda x: cdf(x) - u, 1e-12, 1e6, xtol=1e-12, rtol=1e-14)


def test_vdw_score_is_chi2_quantile():
    k = VanDerWaerden()
    m = 4
    assert k(0.5, m) == pytest.approx(chi2_quantile_oracle(0.5, m), abs=1e-6)
    assert k(0.5, m) == pytest.approx(3.3567, abs=1e-4)
    for u in (0.1, 0.33, 0.9):
        assert k(u, m) == pytest.approx(chi2_quantile_oracle(u, m), abs=1e-6)


def test_tscore_against_fisher_oracle():
    m, nu = 4, 3.0
    k = TScore(nu)
    for u in (0.1, 0.5, 0.9):
        f_inv = fisher_quantile_oracle(u, m, nu)
        expected = m * (m + nu) * f_inv / (nu + m * f_inv)
        assert k(u, m) == pytest.approx(expected, rel=1e-8)


def test_tscore_at_u_one_is_its_limit():
    # the F quantile is +inf at u = 1, where m (m + nu) f / (nu + m f) -> m + nu
    m, k = 4, TScore(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_one = k(1.0, m)
        grid = k(np.array([0.5, 1.0]), m)
    assert np.ndim(at_one) == 0 and at_one == m + 3.0
    assert grid[1] == m + 3.0 and grid[0] == k(0.5, m)


@pytest.mark.parametrize("m", [4, 10, 55])
@pytest.mark.parametrize("nu", [1e160, 1e300])
def test_tscore_beyond_the_f_quantile_range_is_its_vdw_limit(nu, m):
    # scipy's F quantile is NaN or wrong there; the chi2_m score is the limit
    got = TScore(nu).table(50, m)
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got, VanDerWaerden().table(50, m))


def test_tscore_limits_to_vdw():
    m = 4
    k_t = TScore(1e6)
    k_v = VanDerWaerden()
    for u in (0.1, 0.5, 0.9):
        assert abs(k_t(u, m) - k_v(u, m)) < 1e-3


def test_scores_nonnegative_and_nondecreasing():
    m = 4
    grid = np.linspace(0.01, 0.99, 99)
    for k in (VanDerWaerden(), TScore(3)):
        vals = k(grid, m)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) >= 0)


def test_tscore_rejects_nonpositive_nu():
    with pytest.raises(ValueError):
        TScore(0.0)


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------


def test_ranks_basic():
    np.testing.assert_array_equal(ranks([3.2, 1.1, 2.7]), [3, 1, 2])


def test_ranks_sorted_is_identity():
    np.testing.assert_array_equal(ranks([1.0, 2.0, 5.0]), [1, 2, 3])


def test_ranks_idempotent_on_permutations():
    rng = np.random.default_rng(2)
    r = ranks(rng.standard_normal(40))
    np.testing.assert_array_equal(ranks(r.astype(float)), r)


def test_ranks_ties_stable():
    np.testing.assert_array_equal(ranks([1.0, 1.0, 0.5]), [2, 3, 1])


def test_ranks_equal_the_stable_ranks():
    # rows without ties take the default sort, the rest the stable one;
    # -0.0 and 0.0 are a tie, and so is a repeated infinity
    rng = np.random.default_rng(17)
    shape = (3, 8, 12)
    values = rng.standard_normal(shape)
    rows = values.reshape(-1, shape[-1])
    for row, kind in zip(rows, rng.permutation(np.arange(len(rows)) % 6)):
        spots = rng.choice(shape[-1], 3, replace=False)
        if kind == 1:
            row[:] = rng.integers(0, 4, shape[-1])
        elif kind == 2:
            row[spots[:2]] = np.nan
        elif kind == 3:
            row[spots] = [np.inf, -np.inf, np.inf]
        elif kind == 4:
            row[spots[:2]] = [0.0, -0.0] if spots[0] < spots[1] else [-0.0, 0.0]
        elif kind == 5:
            row[spots[:2]] = [np.inf, -np.inf]
    want = np.argsort(np.argsort(values, axis=-1, kind="stable"), axis=-1) + 1
    for got, ref in (
        (ranks(values), want),
        (ranks(rows), want.reshape(rows.shape)),
        (ranks(values[1, 2]), want[1, 2]),
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# SCM shape
# ---------------------------------------------------------------------------


def test_scm_cycling_basis_rows():
    m, k = 3, 10
    data = np.tile(np.sqrt(m) * np.eye(m), (k, 1))
    est = scm_shape(data, NORMALIZED_TRACE)
    np.testing.assert_allclose(est.v_hat, np.eye(m), atol=1e-14)


def test_scm_consistency_large_n():
    m = 4
    sigma = toeplitz(0.8 ** np.arange(m))
    v0 = decompose(NORMALIZED_TRACE, sigma).v
    x = sample(10_000, np.zeros(m), sigma, gaussian(), seed=64)
    est = scm_shape(x, NORMALIZED_TRACE)
    assert np.linalg.norm(est.v_hat - v0) < 0.1


def test_scm_exactly_on_manifold():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((50, 3))
    for scale in ALL_SCALES:
        est = scm_shape(data, scale)
        assert scale.value(est.v_hat) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Tyler
# ---------------------------------------------------------------------------


def test_tyler_fixed_point_residual():
    m = 4
    sigma = toeplitz(0.8 ** np.arange(m))
    x = sample(500, np.zeros(m), sigma, student_t(3), seed=11)
    est = tyler_shape(x, NORMALIZED_TRACE)
    v = est.v_hat
    n = x.shape[0]
    w = np.linalg.solve(v, x.T).T
    q = np.einsum("ij,ij->i", x, w)
    fp = (m / n) * x.T @ (x / q[:, None])
    fp /= NORMALIZED_TRACE.value(fp)
    assert np.linalg.norm(fp - v) / np.linalg.norm(v) < 1e-9


def test_tyler_depends_only_on_directions():
    # same directions, different radial draws -> identical estimates
    m, n = 4, 300
    sigma = toeplitz(0.8 ** np.arange(m))
    rng = np.random.default_rng(21)
    z = rng.standard_normal((n, m))
    u = z / np.linalg.norm(z, axis=1, keepdims=True)
    root = psd_sqrt(sigma)
    q_heavy = student_t(2.5).sample_q(n, m, np.random.default_rng(1))
    q_light = student_t(20).sample_q(n, m, np.random.default_rng(2))
    x_heavy = np.sqrt(q_heavy)[:, None] * (u @ root)
    x_light = np.sqrt(q_light)[:, None] * (u @ root)
    a = tyler_shape(x_heavy, FIRST_ELEMENT)
    b = tyler_shape(x_light, FIRST_ELEMENT)
    # equality up to float rounding: the fixed point sees only x/||x||,
    # but the intermediate quotients round differently per radial draw
    np.testing.assert_allclose(a.v_hat, b.v_hat, rtol=0, atol=1e-14)


def test_tyler_scale_invariance():
    m = 3
    x = sample(200, np.zeros(m), np.eye(m), student_t(4), seed=5)
    a = tyler_shape(x, NORMALIZED_TRACE)
    b = tyler_shape(10.0 * x, NORMALIZED_TRACE)
    np.testing.assert_allclose(a.v_hat, b.v_hat, atol=1e-12)


def test_tyler_rejects_zero_rows():
    x = np.vstack([np.zeros(3), np.eye(3)])
    with pytest.raises(ValueError):
        tyler_shape(np.vstack([x, np.eye(3)]), NORMALIZED_TRACE)


def test_tyler_nonconvergence_reports_residual(monkeypatch):
    monkeypatch.setattr(estimators, "TYLER_TOL", 1e-16)
    monkeypatch.setattr(estimators, "TYLER_MAX_ITER", 3)
    x = sample(100, np.zeros(3), np.eye(3), gaussian(), seed=9)
    with pytest.raises(TylerNonConvergenceError) as exc_info:
        tyler_shape(x, NORMALIZED_TRACE)
    assert exc_info.value.residual > 0


# ---------------------------------------------------------------------------
# R-estimator
# ---------------------------------------------------------------------------


def run_r(data, scale, score, **kw):
    pre = tyler_shape(data, scale)
    return r_estimator(data, scale, score, pre, **kw)


def test_r_estimator_permutation_invariant():
    m = 4
    sigma = toeplitz(0.8 ** np.arange(m))
    x = sample(120, np.zeros(m), sigma, student_t(4), seed=7)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(x))
    a = run_r(x, NORMALIZED_TRACE, VanDerWaerden())
    b = run_r(x[perm], NORMALIZED_TRACE, VanDerWaerden())
    np.testing.assert_allclose(a.v_hat, b.v_hat, atol=1e-12)


def test_r_estimator_manifold_deviation_shrinks_with_n():
    m = 4
    sigma = toeplitz(0.8 ** np.arange(m))
    devs = []
    for n in (100, 1600):
        # average over trials; the deviation is O(1/n) in probability
        d = []
        for t in range(20):
            x = sample(n, np.zeros(m), sigma, student_t(6), seed=(n, t))
            d.append(run_r(x, DET_ROOT, VanDerWaerden()).manifold_dev)
        devs.append(np.mean(d))
    assert devs[1] < devs[0] / 4


def test_r_estimator_alpha_hat_near_alpha_for_matched_score():
    m, n = 4, 1000
    sigma = toeplitz(0.8 ** np.arange(m))
    nu = 5
    vals = []
    for t in range(20):
        x = sample(n, np.zeros(m), sigma, student_t(nu), seed=(3, t))
        vals.append(run_r(x, NORMALIZED_TRACE, TScore(nu)).alpha_hat)
    target = student_t(nu).alpha(m)
    assert np.mean(vals) == pytest.approx(target, abs=0.03)


def test_r_estimator_gaussian_vdw_tracks_scm():
    # vdW one-step is asymptotically the Gaussian constrained MLE, whose
    # shape estimate is the SCM shape
    m, n = 4, 4000
    sigma = toeplitz(0.8 ** np.arange(m))
    v0 = decompose(NORMALIZED_TRACE, sigma).v
    dist_pairs = []
    dist_truth = []
    for t in range(10):
        x = sample(n, np.zeros(m), sigma, gaussian(), seed=(10, t))
        r_est = run_r(x, NORMALIZED_TRACE, VanDerWaerden())
        scm = scm_shape(x, NORMALIZED_TRACE)
        dist_pairs.append(np.linalg.norm(ovecs(r_est.v_hat - scm.v_hat)))
        dist_truth.append(np.linalg.norm(ovecs(scm.v_hat - v0)))
    assert np.mean(dist_pairs) < 0.5 * np.mean(dist_truth)


def test_r_estimator_requires_enough_samples():
    x = sample(5, np.zeros(3), np.eye(3), gaussian(), seed=1)  # n <= m(m+1)/2
    pre = ShapeEstimate(v_hat=np.eye(3), scale_kind="trace", method="scm")
    with pytest.raises(ValueError):
        r_estimator(x, NORMALIZED_TRACE, VanDerWaerden(), pre)


def test_r_estimator_scale_kind_mismatch():
    x = sample(100, np.zeros(3), np.eye(3), gaussian(), seed=1)
    pre = tyler_shape(x, FIRST_ELEMENT)
    with pytest.raises(ValueError):
        r_estimator(x, NORMALIZED_TRACE, VanDerWaerden(), pre)


def test_upsilon_annihilates_identity_direction():
    # Upsilon^T vecs(V) is the projection of the whitened vec(I), which is
    # zero, so vecs(V) is in the kernel of the R-step's Gram; the R-step's
    # closed-form solve rests on it and equals Xi Delta on every scale
    annihilation, gap = upsilon_annihilation(np.random.default_rng(12), 4)
    assert annihilation <= 1e-12
    assert gap <= 1e-10


def test_rank_statistic_zero_for_degenerate_configuration():
    # Exact degeneracy needs every axis to receive the same score mass;
    # with strictly increasing scores the deterministic tie-breaking makes
    # that impossible, so the exact case is realized with a constant score
    # (a legitimate member of the score class) on an axis-symmetric cloud.
    class FlatScore(VanDerWaerden):
        name = "flat"

        def __call__(self, u, m):
            return np.full_like(np.asarray(u, dtype=float), 2.0)

    m = 3
    basis = np.sqrt(m) * np.vstack([np.eye(m), -np.eye(m)])
    data = np.tile(basis, (4, 1))
    table = FlatScore().table(len(data), m)
    delta = _rank_delta(data.T[None], np.eye(m)[None], table[None])[0, 0]
    np.testing.assert_allclose(delta, 0.0, atol=1e-12)
    pre = ShapeEstimate(v_hat=np.eye(m), scale_kind="trace", method="scm")
    est = r_estimator(data, NORMALIZED_TRACE, FlatScore(), pre)
    np.testing.assert_allclose(est.v_hat, np.eye(m), atol=1e-12)
    assert est.step_rejected


# ---------------------------------------------------------------------------
# efficiency orderings (Monte Carlo, seeded)
# ---------------------------------------------------------------------------


def test_matched_tscore_beats_vdw_on_heavy_tails():
    m, n, trials = 4, 100, 400
    sigma = toeplitz(0.8 ** np.arange(m))
    v0 = decompose(NORMALIZED_TRACE, sigma).v
    by_score = {"vdw": [], "t3": []}
    for t in range(trials):
        x = sample(n, np.zeros(m), sigma, student_t(3), seed=(77, t))
        pre = tyler_shape(x, NORMALIZED_TRACE)
        by_score["vdw"].append(r_estimator(x, NORMALIZED_TRACE, VanDerWaerden(), pre))
        by_score["t3"].append(r_estimator(x, NORMALIZED_TRACE, TScore(3), pre))
    assert mse_index(by_score["t3"], v0) <= mse_index(by_score["vdw"], v0)


def test_r_estimator_near_bound_gaussian_vdw():
    m, n, trials = 4, 100, 400
    sigma = toeplitz(0.8 ** np.arange(m))
    v0 = decompose(FIRST_ELEMENT, sigma).v
    bound = np.trace(crb_shape(FIRST_ELEMENT, v0, gaussian()))
    ests = []
    for t in range(trials):
        x = sample(n, np.zeros(m), sigma, gaussian(), seed=(88, t))
        ests.append(run_r(x, FIRST_ELEMENT, VanDerWaerden()))
    ratio = n * mse_index(ests, v0) / bound
    assert 0.85 < ratio < 1.15


# ---------------------------------------------------------------------------
# MSE index
# ---------------------------------------------------------------------------


def test_mse_index_zero_for_exact_estimates():
    v0 = decompose(NORMALIZED_TRACE, toeplitz(0.8 ** np.arange(3))).v
    ests = [
        ShapeEstimate(v_hat=v0.copy(), scale_kind="trace", method="scm")
        for _ in range(5)
    ]
    assert mse_index(ests, v0) == 0.0


def test_mse_index_single_coordinate():
    m = 3
    v0 = np.eye(m)
    bump = v0.copy()
    bump[1, 0] = bump[0, 1] = 0.1  # ovecs first entry
    est = ShapeEstimate(v_hat=bump, scale_kind="trace", method="scm")
    assert mse_index([est], v0) == pytest.approx(0.01)


def test_mse_index_matches_elementwise_oracle():
    rng = np.random.default_rng(15)
    m = 3
    v0 = decompose(NORMALIZED_TRACE, toeplitz(0.5 ** np.arange(m))).v
    ests = []
    oracle_acc = 0.0
    for _ in range(100):
        pert = rng.standard_normal((m, m)) * 0.01
        v = v0 + pert + pert.T
        ests.append(ShapeEstimate(v_hat=v, scale_kind="trace", method="x"))
        acc = 0.0
        for i in range(m):
            for j in range(i + 1):
                if (i, j) == (0, 0):
                    continue
                acc += (v[i, j] - v0[i, j]) ** 2
        oracle_acc += acc
    assert mse_index(ests, v0) == pytest.approx(oracle_acc / 100, rel=1e-12)


def test_mse_index_rejects_mixed_scales():
    a = ShapeEstimate(v_hat=np.eye(2), scale_kind="trace", method="scm")
    b = ShapeEstimate(v_hat=np.eye(2), scale_kind="det", method="scm")
    with pytest.raises(ValueError):
        mse_index([a, b], np.eye(2))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 10, 32])
def test_score_tables_equal_the_scipy_stats_quantiles(m):
    # the scores call the scipy.special functions behind chi2.ppf and f.ppf
    for n in (5, 100, 101, 300, 2000):
        u = np.arange(1, n + 1) / (n + 1.0)
        np.testing.assert_array_equal(VanDerWaerden().table(n, m), stats.chi2.ppf(u, df=m))
        for nu in (0.5, 1, 2.1, 3, 10, 1e3):
            f_inv = stats.f.ppf(u, m, nu)
            want = m * (m + nu) * f_inv / (nu + m * f_inv)
            np.testing.assert_array_equal(TScore(nu).table(n, m), want)


# ---------------------------------------------------------------------------
# stacked kernels against the single-dataset calls
# ---------------------------------------------------------------------------


class FlatScore(VanDerWaerden):
    name = "flat"

    def __call__(self, u, m):
        return np.full_like(np.asarray(u, dtype=float), 2.0)


@pytest.mark.parametrize(
    "score", [VanDerWaerden(), TScore(3), FlatScore()], ids=lambda s: s.name
)
def test_score_table_indexed_by_ranks_equals_score_of_ranks(score):
    m, n = 4, 100
    rk = ranks(np.random.default_rng(4).standard_normal(n))
    np.testing.assert_array_equal(score.table(n, m)[rk - 1], score(rk / (n + 1.0), m))


def _datasets(trials, m=4, n=100, nu=4.0, seed=31):
    sigma = toeplitz(0.8 ** np.arange(m))
    return np.stack(
        [
            sample(n, np.zeros(m), sigma, student_t(nu), seed=(seed, t))
            for t in range(trials)
        ]
    )


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_batched_estimators_match_single_dataset_calls(scale):
    data = _datasets(5)
    scores = [VanDerWaerden(), TScore(3)]
    n, m = data.shape[1:]
    scm = scm_batch(data, scale)
    tyler, iterations, residual = tyler_batch(data, scale)
    tables = np.stack([k.table(n, m) for k in scores])
    r_v, r_alpha, r_rejected = r_step_batch(data, tyler, scale, tables)
    for t, x in enumerate(data):
        np.testing.assert_allclose(scm[t], scm_shape(x, scale).v_hat, rtol=1e-10)
        pre = tyler_shape(x, scale)
        np.testing.assert_allclose(tyler[t], pre.v_hat, rtol=1e-10)
        assert iterations[t] == pre.iterations
        assert residual[t] == pytest.approx(pre.final_residual, rel=1e-6)
        for j, score in enumerate(scores):
            est = r_estimator(x, scale, score, pre)
            np.testing.assert_allclose(r_v[j, t], est.v_hat, rtol=1e-10)
            assert r_alpha[j, t] == pytest.approx(est.alpha_hat, rel=1e-10)
            assert r_rejected[j, t] == est.step_rejected


def test_per_dataset_score_tables_match_one_table_per_call():
    # trial t uses the scores vdW and t(3 + t): an (S, T, n) table stack
    data = _datasets(4)
    n, m = data.shape[1:]
    tyler = tyler_batch(data, NORMALIZED_TRACE)[0]
    tables = np.stack(
        [
            [VanDerWaerden().table(n, m)] * len(data),
            [TScore(3 + t).table(n, m) for t in range(len(data))],
        ]
    )
    stacked = r_step_batch(data, tyler, NORMALIZED_TRACE, tables)
    for t in range(len(data)):
        single = r_step_batch(data[t : t + 1], tyler[t : t + 1], NORMALIZED_TRACE, tables[:, t])
        for got, want in zip(stacked, single):
            assert np.array_equal(got[:, t], want[:, 0])


def test_rank_statistic_matches_dense_upsilon_oracle():
    # Delta = Upsilon vec(sum_l K_l u_l u_l^T) / (2 sqrt(n)), with the
    # Kronecker-product Upsilon; the kernel applies it in matrix form
    m, n = 4, 100
    x = _datasets(1)[0]
    v = tyler_shape(x, NORMALIZED_TRACE).v_hat
    score = TScore(3)
    root_inv = np.linalg.inv(psd_sqrt(v))
    w = x @ root_inv
    q = np.einsum("ij,ij->i", w, w)
    u_dirs = w / np.sqrt(q)[:, None]
    outer = np.einsum("l,li,lj->ij", score(ranks(q) / (n + 1.0), m), u_dirs, u_dirs)
    delta = _rank_delta(x.T[None], (root_inv @ root_inv)[None], score.table(n, m)[None])[0, 0]
    ups = dense.upsilon(root_inv)
    np.testing.assert_allclose(delta, ups @ vec(outer) / (2.0 * np.sqrt(n)), rtol=1e-10)


def test_batched_failures_stay_in_their_trial():
    data = _datasets(4)
    # rank-deficient dataset: its sample covariance and Tyler iterates are singular
    data[1, :, 2:] = 0.0
    scale = NORMALIZED_TRACE
    tyler, _, residual = tyler_batch(data, scale)
    assert np.isnan(tyler[1]).all() and np.isnan(residual[1])
    with pytest.raises(np.linalg.LinAlgError):
        tyler_shape(data[1], scale)
    for t in (0, 2, 3):
        single = tyler_shape(data[t], scale).v_hat
        np.testing.assert_allclose(tyler[t], single, rtol=1e-10)
    r_v = r_step_batch(data, tyler, scale, VanDerWaerden().table(100, 4)[None])[0]
    assert np.isnan(r_v[0, 1]).all()
    assert np.isfinite(r_v[0, [0, 2, 3]]).all()
    # a non-PD starting shape fails its R-step only
    v_bad = tyler.copy()
    v_bad[1] = np.diag([2.0, 1.0, 1.0, -0.5])
    r_v = r_step_batch(data, v_bad, scale, VanDerWaerden().table(100, 4)[None])[0]
    assert np.isnan(r_v[0, 1]).all()
    assert np.isfinite(r_v[0, [0, 2, 3]]).all()


def test_batched_tyler_nonconvergence_is_per_trial(monkeypatch):
    data = _datasets(6)
    _, iterations, _ = tyler_batch(data, NORMALIZED_TRACE)
    cap = int(iterations.min())
    assert iterations.max() > cap
    monkeypatch.setattr(estimators, "TYLER_MAX_ITER", cap)
    v, _, residual = tyler_batch(data, NORMALIZED_TRACE)
    slow = iterations > cap
    assert np.isnan(v[slow]).all() and np.all(residual[slow] >= 1e-10)
    assert np.isfinite(v[~slow]).all() and np.all(residual[~slow] < 1e-10)


# ---------------------------------------------------------------------------
# coordinate-major kernels: layout, trial independence, row-major oracles
# ---------------------------------------------------------------------------

_SIZES = {2: 50, 4: 100, 10: 300}  # n per m


def _kernel_outputs(data, scale):
    """scm_batch, tyler_batch and r_step_batch (vdW and t(3)) on one stack."""
    n, m = data.shape[1:]
    tables = np.stack([VanDerWaerden().table(n, m), TScore(3).table(n, m)])
    tyler = tyler_batch(data, scale)
    return scm_batch(data, scale), tyler, r_step_batch(data, tyler[0], scale, tables)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_kernels_give_the_same_bits_for_either_memory_layout(scale):
    data = _datasets(5)
    view = np.swapaxes(np.ascontiguousarray(np.swapaxes(data, -1, -2)), -1, -2)
    assert data.flags.c_contiguous and not view.flags.c_contiguous
    scm, tyler, r_step = _kernel_outputs(data, scale)
    scm_v, tyler_v, r_step_v = _kernel_outputs(view, scale)
    assert np.array_equal(scm_v, scm)
    for got, want in zip((*tyler_v, *r_step_v), (*tyler, *r_step)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [4, 10])
@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_kernel_trials_equal_their_single_trial_calls(scale, m):
    data = _datasets(7, m=m, n=_SIZES[m])
    scm, tyler, r_step = _kernel_outputs(data, scale)
    for t in range(len(data)):
        scm_1, tyler_1, r_step_1 = _kernel_outputs(data[t : t + 1], scale)
        assert np.array_equal(scm_1[0], scm[t])
        for got, want in zip(tyler_1, tyler):
            assert np.array_equal(got[0], want[t])
        for got, want in zip(r_step_1, r_step):
            assert np.array_equal(got[:, 0], want[:, t])


@pytest.mark.parametrize("m", [2, 4, 10])
@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_tyler_matches_the_row_major_oracle(scale, m):
    data = _datasets(6, m=m, n=_SIZES[m])
    v, iterations, residual = tyler_batch(data, scale)
    v_o, iterations_o, residual_o = dense.tyler_row_major(data, scale)
    assert np.array_equal(iterations, iterations_o)
    np.testing.assert_allclose(v, v_o, rtol=1e-12, atol=0)
    assert np.all(residual < 1e-10) and np.all(residual_o < 1e-10)


@pytest.mark.parametrize("m", [2, 4, 10])
@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_tyler_agrees_with_the_plain_iteration(scale, m):
    # Each returns F(V) at an iterate V with |F(V) - V| < TYLER_TOL |V|.  The
    # plain map contracts at a rate c near 2 / (m + 2) at these n, so F(V) is
    # within c / (1 - c) TYLER_TOL <= 2 TYLER_TOL of the fixed point for
    # c <= 2/3, and the two estimates are within 4 TYLER_TOL of each other.
    data = _datasets(20, m=m, n=_SIZES[m])
    v, iterations, residual = tyler_batch(data, scale)
    v_p, iterations_p, residual_p = dense.tyler_row_major(data, scale, plain=True)
    assert np.all(residual < estimators.TYLER_TOL)
    assert np.all(residual_p < estimators.TYLER_TOL)
    err = np.linalg.norm(v - v_p, axis=(-2, -1)) / np.linalg.norm(v_p, axis=(-2, -1))
    assert err.max() < 4.0 * estimators.TYLER_TOL
    # measured: 13.7 against 38 iterations at m = 2, 14.5 / 27 at 4, 12.9 / 18 at 10
    assert iterations.mean() < 0.8 * iterations_p.mean()


@pytest.mark.parametrize("m", [2, 4, 10])
@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_tyler_loses_no_trial_of_the_plain_iteration(scale, m):
    # A trial is lost when the plain iteration converges on it and the
    # over-relaxed one does not.  From n = m + 2 on none is; at n = m + 1 a
    # fixed point can be nearly singular and the over-relaxed residual
    # stall near 1e-9 (2 and 4 of 13,500 trials at m = 4 and 10).
    for n in (m + 2, _SIZES[m]):
        data = np.concatenate(
            [_datasets(100, m=m, n=n, nu=nu, seed=(53, n)) for nu in (2.1, 5.0, 50.0)]
        )
        residual = tyler_batch(data, scale)[2]
        residual_p = dense.tyler_row_major(data, scale, plain=True)[2]
        plain_converged = residual_p < estimators.TYLER_TOL
        assert plain_converged.any()
        assert np.all(residual[plain_converged] < estimators.TYLER_TOL)


@pytest.mark.parametrize(
    "m, n",
    [(m, n) for m in (2, 4, 10) for n in (m + 2, _SIZES[m])],
    ids=lambda v: str(v),
)
def test_tyler_is_scale_equivariant(m, n):
    # The iterates are not normalized, so the three scales run the same
    # iteration and differ only in the scale of the returned F(V).  At
    # n = m + 2 the fixed point is near singular, and many trials (17 of
    # 30 at m = 10) use up TYLER_MAX_ITER, for every scale alike.
    data = _datasets(30, m=m, n=n, seed=(71, n))
    runs = [tyler_batch(data, scale) for scale in ALL_SCALES]
    ok = np.isfinite(runs[0][0]).all(axis=(-2, -1))
    assert ok.sum() >= 10
    for _, iterations, residual in runs[1:]:
        assert np.array_equal(iterations, runs[0][1])
        assert np.array_equal(residual, runs[0][2], equal_nan=True)
    # The det scale's slogdet of a matrix of condition number k is off by
    # about k eps relative (measured below k eps / 4), so past k = 100 the
    # bound on the gap grows with k: the n = m + 2 fixed points reach 2e4.
    for scale, (v, _, _) in zip(ALL_SCALES, runs):
        assert np.array_equal(np.isfinite(v).all(axis=(-2, -1)), ok)
        bound = np.maximum(1e-14, 1e-16 * np.linalg.cond(v[ok]))
        for other, _, _ in runs:
            back = renormalize(scale, other[ok])
            gap = np.linalg.norm(back - v[ok], axis=(-2, -1)) / np.linalg.norm(v[ok], axis=(-2, -1))
            assert np.all(gap < bound)


def test_tyler_guard_takes_the_plain_step_trial_by_trial(monkeypatch):
    # From V = I the step of a strongly anisotropic dataset fails the guard
    # |V^-1 F(V) - I|_F < m / (2 (m + 2)), so that trial's first step is the
    # plain F(I); the near-spherical datasets take the over-relaxed step.
    # The iterates are observed as the stacks the kernel inverts.
    m, n = 4, 400
    rng = np.random.default_rng(61)
    data = rng.standard_normal((6, n, m))
    data[[1, 4]] *= np.array([10.0, 1.0, 1.0, 0.3])
    rec = _RecordingInverse()
    monkeypatch.setattr(np.linalg, "inv", rec)
    got = tyler_batch(data, NORMALIZED_TRACE)
    monkeypatch.undo()
    f1 = _tyler_map(data, rec.seen[0])
    plain = np.all(rec.seen[1] == f1, axis=(-2, -1))
    assert plain.tolist() == [False, True, False, False, True, False]
    omega = (m + 2.0) / m
    step = np.eye(m) + omega * (f1 - np.eye(m))
    assert np.array_equal(rec.seen[1][~plain], step[~plain])
    assert np.all(got[2] < estimators.TYLER_TOL)
    for t in range(len(data)):
        for stacked, single in zip(got, tyler_batch(data[t : t + 1], NORMALIZED_TRACE)):
            assert np.array_equal(stacked[t], single[0])


class _RecordingInverse:
    """``np.linalg.inv`` keeping a copy of every stack it inverts: in
    ``tyler_batch``, the active iterates of each iteration."""

    def __init__(self):
        self.inv, self.seen = np.linalg.inv, []

    def __call__(self, a):
        self.seen.append(np.array(a))
        return self.inv(a)


def _tyler_map(data, v):
    """F(V) of each dataset with the kernel's operations, bit for bit."""
    n, m = data.shape[1:]
    xt = np.ascontiguousarray(np.swapaxes(data, -1, -2))
    v_inv = np.linalg.inv(v)
    q = np.sum((np.swapaxes(v_inv, -1, -2) @ xt) * xt, axis=-2)
    return (m / n) * (xt / q[:, None, :]) @ np.swapaxes(xt, -1, -2)


@pytest.mark.parametrize("m", [2, 4])
def test_tyler_weights_are_the_row_major_quadratic_forms(m, monkeypatch):
    # The stacked inverse is not exactly symmetric.  The kernel reads it
    # transposed, so each weight x_i^T V^-1 x_i is the same k-ordered sum
    # as in the row-major (x V^-1) * x, bit for bit; reading V^-1 as it is
    # gives the transposed sums, equal only up to rounding.
    # The iterate V_1 is inverted at the second iteration, and the next,
    # F(V_1) or V_1 + omega (F(V_1) - V_1) as the guard decides, at the third.
    data = _datasets(5, m=m, n=_SIZES[m])
    rec = _RecordingInverse()
    monkeypatch.setattr(estimators, "TYLER_MAX_ITER", 3)
    monkeypatch.setattr(np.linalg, "inv", rec)
    tyler_batch(data, NORMALIZED_TRACE)
    monkeypatch.undo()
    v1, v2 = rec.seen[1], rec.seen[2]
    v1_inv = np.linalg.inv(v1)
    assert not np.array_equal(v1_inv, np.swapaxes(v1_inv, -1, -2))
    q = np.sum((data @ v1_inv) * data, axis=-1)
    xt = np.ascontiguousarray(np.swapaxes(data, -1, -2))
    want = (m / _SIZES[m]) * (xt / q[:, None, :]) @ np.swapaxes(xt, -1, -2)
    r = v1_inv @ want - np.eye(m)
    safe = np.sum(r * r, axis=(-2, -1)) < (m / (2.0 * (m + 2.0))) ** 2
    omega = (m + 2.0) / m
    assert np.array_equal(v2, np.where(safe[:, None, None], v1 + omega * (want - v1), want))


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_rank_statistic_matches_the_row_major_oracle(scale):
    # the V^-1 kernel against the V^-1/2 oracle, one V^-1/2 per dataset
    # (T,) and one per score and dataset (S, T)
    data = _datasets(4)
    n, m = data.shape[1:]
    v = tyler_batch(data, scale)[0]
    root_inv = np.linalg.inv(np.stack([psd_sqrt(x) for x in v]))
    tables = np.stack([VanDerWaerden().table(n, m), TScore(3).table(n, m)])
    xt = np.swapaxes(data, -1, -2)
    for r in (root_inv, np.stack([root_inv, 1.1 * root_inv])):
        np.testing.assert_allclose(
            _rank_delta(xt, r @ r, tables),
            dense.rank_delta_row_major(data, r, tables),
            rtol=1e-12,
            atol=1e-14,
        )


_SPD_FACTOR = hnp.arrays(
    float, (4, 4), elements=st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
)


@given(_SPD_FACTOR)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_rank_statistic_from_v_inverse_matches_the_square_root_oracle(a):
    # over random SPD V: Delta from V^-1 equals the unit-direction form
    v = a @ a.T + 0.5 * np.eye(4)
    data = _datasets(2, n=40)
    n, m = data.shape[1:]
    tables = np.stack([VanDerWaerden().table(n, m), TScore(3).table(n, m)])
    want = dense.rank_delta_row_major(data, dense.inv_sqrt(v)[None], tables)
    got = _rank_delta(np.swapaxes(data, -1, -2), np.linalg.inv(v)[None], tables)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("m", [2, 4, 10])
@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_r_step_matches_the_square_root_oracle(scale, m):
    # the V^-1 step against the step through V^-1/2 and the unit directions
    data = _datasets(6, m=m, n=_SIZES[m])
    n = _SIZES[m]
    tables = np.stack([VanDerWaerden().table(n, m), TScore(3).table(n, m)])
    tyler = tyler_batch(data, scale)[0]
    v_new, alpha_hat, rejected = r_step_batch(data, tyler, scale, tables)
    v_o, alpha_o, rejected_o = dense.r_step_square_root(data, tyler, scale, tables)
    assert np.array_equal(rejected, rejected_o)
    np.testing.assert_allclose(v_new, v_o, rtol=1e-10, atol=0)
    np.testing.assert_allclose(alpha_hat, alpha_o, rtol=1e-8)


# invertible and indefinite, with a positive first element, trace and determinant
_INDEFINITE = np.diag([2.0, 1.0, -1.0, -0.5])


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_indefinite_preliminary_fails_its_r_step_only(scale):
    data = _datasets(4)
    tables = VanDerWaerden().table(100, 4)[None]
    tyler = tyler_batch(data, scale)[0]
    v_bad = tyler.copy()
    v_bad[2] = _INDEFINITE
    assert np.isfinite(np.linalg.inv(_INDEFINITE)).all()
    assert scale.value(_INDEFINITE) > 0.0
    want = r_step_batch(data, tyler, scale, tables)[0]
    got = r_step_batch(data, v_bad, scale, tables)[0]
    assert np.isnan(got[0, 2]).all()
    assert np.array_equal(got[0, [0, 1, 3]], want[0, [0, 1, 3]])


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_indefinite_probe_fails_its_r_step_only(scale, monkeypatch):
    # the step of trial 1 is replaced by one whose probe is indefinite
    data = _datasets(4)
    tables = VanDerWaerden().table(100, 4)[None]
    tyler = tyler_batch(data, scale)[0]
    want = r_step_batch(data, tyler, scale, tables)
    tangent_step = estimators._tangent_step
    base = vecs(renormalize(scale, tyler[1]))

    def indefinite_probe(v, g, delta, pd):
        step = tangent_step(v, g, delta, pd)
        step[:, 1] = np.sqrt(100) * (vecs(_INDEFINITE) - base)
        return step

    monkeypatch.setattr(estimators, "_tangent_step", indefinite_probe)
    got = r_step_batch(data, tyler, scale, tables)
    # a failed step is not a rejected one
    assert np.isnan(got[0][0, 1]).all() and not got[2][0, 1]
    for g, w in zip(got, want):
        assert np.array_equal(g[:, [0, 2, 3]], w[:, [0, 2, 3]])
