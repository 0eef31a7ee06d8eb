"""Acceptance suite: one test per headline criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion.  Every expected value is either a closed form verified against
an independent oracle inside the test, or a Monte-Carlo band with its
tolerance stated in the assertion.
"""

import math
import os

import mpmath
import numpy as np
import pytest
from scipy.linalg import toeplitz

from ellipfim.bounds import (
    crb_scale,
    crb_scale_det_root,
    crb_shape,
    crb_shape_det_root,
    crb_vecs_sigma,
    pd_inverse,
    verify_chain,
)
from ellipfim.complexces import (
    cces_fim_location,
    cces_lowrank_fim,
    complex_student_t,
    doa_fim,
    embedded_location_parameterization,
    embedded_lowrank_parameterization,
    embedded_rectilinear_parameterization,
    rectilinear_fim,
)
from ellipfim.fim import (
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
from ellipfim.generators import (
    expect,
    gaussian,
    generalized_gaussian,
    sample,
    student_t,
)
from ellipfim.matcalc import vecs_len
from ellipfim.parameterize import (
    LowRankModel,
    breaking_parameterization,
    condition_check,
    linear_split_parameterization,
    low_rank_parameterization,
    sinusoid_steering,
    verify_adaptivity_by_fim,
)
from ellipfim.matcalc import vecs
from ellipfim.scale import DET_ROOT, FIRST_ELEMENT, NORMALIZED_TRACE, decompose
from ellipfim.simulate import SimConfig, run_simulation

ALL_SCALES = (FIRST_ELEMENT, NORMALIZED_TRACE, DET_ROOT)
GEN_GRID = (gaussian(), student_t(6), student_t(8), generalized_gaussian(0.5))
DIMS = (2, 3, 4)


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} {detail}".rstrip())
    assert passed, f"criterion {number}: {label} {detail}"


def random_shape(rng, m, scale):
    a = rng.standard_normal((m, m))
    return decompose(scale, a @ a.T + m * np.eye(m)).v


# ---------------------------------------------------------------------------


def test_criterion_1_restricted_adaptivity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for scale in ALL_SCALES:
        for gen in GEN_GRID:
            for m in DIMS:
                v = random_shape(rng, m, scale)
                blocks = fim_eta(v, 1.6, scale, gen)
                schur = blocks.i_v - np.outer(blocks.i_vs, blocks.i_vs) / blocks.i_s
                eff = efficient_fim_shape(v, scale, gen)
                worst = max(worst, np.linalg.norm(schur - eff) / np.linalg.norm(eff))
    report(
        1,
        "efficient shape FIM equals the scale-projected Schur complement",
        worst < 1e-10,
        f"(max rel Frobenius {worst:.2e}, tol 1e-10)",
    )


def test_criterion_2_crb_closed_forms():
    rng = np.random.default_rng(102)
    worst_inv = 0.0
    worst_det = 0.0
    worst_psi_det = 0.0
    min_psi_other = np.inf
    for scale in ALL_SCALES:
        for gen in GEN_GRID:
            for m in DIMS:
                v = random_shape(rng, m, scale)
                k = vecs_len(m) - 1
                prod = crb_shape(scale, v, gen) @ efficient_fim_shape(v, scale, gen)
                worst_inv = max(
                    worst_inv, np.linalg.norm(prod - np.eye(k)) / math.sqrt(k)
                )
                sigma = 1.4 * v
                kk = vecs_len(m)
                prod2 = crb_vecs_sigma(sigma, gen) @ fim_vecs_sigma(sigma, gen)
                worst_inv = max(
                    worst_inv, np.linalg.norm(prod2 - np.eye(kk)) / math.sqrt(kk)
                )
                sb = crb_scale(scale, v, 1.4, gen)
                if scale is DET_ROOT:
                    worst_det = max(
                        worst_det,
                        np.linalg.norm(
                            crb_shape(scale, v, gen) - crb_shape_det_root(v, gen)
                        )
                        / np.linalg.norm(crb_shape_det_root(v, gen)),
                    )
                    worst_det = max(
                        worst_det,
                        abs(sb.value - crb_scale_det_root(sigma, gen)) / sb.value,
                    )
                    worst_psi_det = max(worst_psi_det, np.abs(sb.psi).max())
                else:
                    min_psi_other = min(min_psi_other, np.linalg.norm(sb.psi))
    ok = (
        worst_inv < 1e-8
        and worst_det < 1e-12
        and worst_psi_det < 1e-12
        and min_psi_other > 1e-8
    )
    report(
        2,
        "shape/scatter bounds invert their FIMs; det-root forms specialize",
        ok,
        f"(inv {worst_inv:.2e} tol 1e-8; det forms {worst_det:.2e} tol 1e-12; "
        f"det psi {worst_psi_det:.2e}; other-scale psi >= {min_psi_other:.2e})",
    )


def test_criterion_3_equality_chain():
    rng = np.random.default_rng(103)
    all_ok = True
    details = []
    for scale in ALL_SCALES:
        v = random_shape(rng, 3, scale)
        rep = verify_chain(scale, v, list(GEN_GRID), 3)
        all_ok &= rep.passed
        if scale is DET_ROOT:
            eq = [l for l in rep.links if l.name == "no_nuisance_bound_equality"]
            details.append(f"det equality rel {max(l.value for l in eq):.1e}")
            all_ok &= all(l.value < 1e-10 for l in eq)
        else:
            gaps = [l for l in rep.links if l.name == "no_nuisance_bound_strict_gap"]
            nongauss = [
                l for l in gaps if l.generator != "gaussian"
            ]
            all_ok &= all(l.value > 0 for l in nongauss)
    report(
        3,
        "no-nuisance bound joins the chain iff det-root scale",
        all_ok,
        f"({'; '.join(details)}; non-det gaps PSD and nonzero)",
    )


def test_criterion_4_parameterized_adaptivity():
    rng = np.random.default_rng(104)
    # split model
    h = rng.standard_normal((4, 2))
    split = linear_split_parameterization(h, 4)
    theta_split = np.concatenate(
        [rng.standard_normal(2), vecs(toeplitz(0.7 ** np.arange(4)))]
    )
    # low-rank model, m=6, p=2
    a_fn, a_jac = sinusoid_steering(6)
    b = rng.standard_normal((2, 2))
    model = LowRankModel(
        a_fn=a_fn, a_jac=a_jac, signal_cov=b @ b.T + 2 * np.eye(2),
        noise_level=0.8, q=2,
    )
    lowrank = low_rank_parameterization(model)
    theta_lr = model.theta0(np.array([0.6, 1.7]))
    gen = student_t(8)
    ok = True
    worst_res = 0.0
    worst_gap = 0.0
    for param, theta in ((split, theta_split), (lowrank, theta_lr)):
        cond = condition_check(param, theta, gen)
        rep = verify_adaptivity_by_fim(param, theta, gen)
        scale_ref = max(1.0, np.abs(cond.interest_term).max())
        worst_res = max(worst_res, np.abs(cond.residual).max() / scale_ref)
        worst_gap = max(worst_gap, rep.gap_rel)
        ok &= cond.satisfied and rep.adaptive
    # breaking parameterization: nonzero residual, nonzero gap for t(8),
    # zero gap for the Gaussian
    breaking = breaking_parameterization(toeplitz(0.5 ** np.arange(3)))
    theta_b = np.array([1.3])
    cond_b = condition_check(breaking, theta_b, gen)
    rep_t = verify_adaptivity_by_fim(breaking, theta_b, gen)
    rep_g = verify_adaptivity_by_fim(breaking, theta_b, gaussian())
    ok &= (not cond_b.satisfied) and (rep_t.gap_rel > 1e-4) and (
        rep_g.gap_rel < 1e-12
    )
    report(
        4,
        "adaptivity condition and FIM gaps (split, low-rank, breaking)",
        ok,
        f"(residual {worst_res:.2e}, gap {worst_gap:.2e}, tol 1e-8; breaking "
        f"gap t(8) {rep_t.gap_rel:.2e}, gaussian {rep_g.gap_rel:.2e})",
    )
    assert worst_res < 1e-8 and worst_gap < 1e-8


def _mp_expect(gen, m, f, dps=40):
    with mpmath.workdps(dps):
        norm = mpmath.pi ** (mpmath.mpf(m) / 2) / mpmath.gamma(mpmath.mpf(m) / 2)

        def integrand(q):
            if q <= 0:
                return mpmath.mpf(0)
            logg = float(gen.log_gbar(np.array([float(q)]), m)[0])
            return (
                norm
                * f(q)
                * q ** (mpmath.mpf(m) / 2 - 1)
                * mpmath.e ** mpmath.mpf(logg)
            )

        return float(mpmath.quad(integrand, [0, 1, m, 10 * m, mpmath.inf]))


def test_criterion_5_moment_identities():
    worst_moment = 0.0
    for gen in (gaussian(), student_t(6), generalized_gaussian(0.5)):
        for m in (2, 4, 8):
            worst_moment = max(
                worst_moment, abs(expect(gen, m, lambda q: q) - m) / m
            )
            worst_moment = max(
                worst_moment,
                abs(expect(gen, m, lambda q: q * gen.phi_bar(q, m)) - m) / m,
            )
            t2 = m * (m + 2)
            worst_moment = max(
                worst_moment,
                abs(expect(gen, m, lambda q: q * q * gen.phi_bar(q, m)) - t2) / t2,
            )
    worst_coeff = 0.0
    for m in (2, 4, 8):
        g = gaussian()
        alpha_q = _mp_expect(g, m, lambda q: q * q) and _mp_expect(
            g, m, lambda q: (q * 1.0) ** 2
        ) / (m * (m + 2))
        # Gaussian: phi == 1 so alpha reduces to E{Q^2}/(m(m+2))
        worst_coeff = max(worst_coeff, abs(g.alpha(m) - alpha_q))
        sigma_q = _mp_expect(g, m, lambda q: q * q) - m * m
        worst_coeff = max(worst_coeff, abs(g.sigma_q2(m) - sigma_q) / (2 * m))
        worst_coeff = max(worst_coeff, abs(g.sigma_q2(m) - 2 * m) / (2 * m))
        for nu in (6, 8):
            t = student_t(nu)
            alpha_q = _mp_expect(
                t, m, lambda q: (q * (nu + m) / (nu - 2.0 + q)) ** 2
            ) / (m * (m + 2))
            worst_coeff = max(
                worst_coeff, abs(t.alpha(m) - alpha_q) / alpha_q
            )
            worst_coeff = max(
                worst_coeff,
                abs(t.alpha(m) - (m + nu) / (m + nu + 2)) / t.alpha(m),
            )
            sigma_q = _mp_expect(t, m, lambda q: q * q) - m * m
            closed = (2.0 * m / (nu - 4.0)) * (m + nu - 2.0)
            worst_coeff = max(worst_coeff, abs(t.sigma_q2(m) - sigma_q) / closed)
            worst_coeff = max(worst_coeff, abs(t.sigma_q2(m) - closed) / closed)
    report(
        5,
        "moment identities (1e-6, quadrature) and closed coefficients (1e-10)",
        worst_moment < 1e-6 and worst_coeff < 1e-10,
        f"(moments {worst_moment:.2e}; coefficients {worst_coeff:.2e})",
    )


def test_criterion_6_empirical_fims():
    n = 20_000
    m = 4
    sigma0 = toeplitz(0.8 ** np.arange(m))
    worst_z = 0.0
    for gen, seed in ((gaussian(), 601), (student_t(8), 602)):
        # (mu, shape, scale) block FIM against score outer products
        dec = decompose(NORMALIZED_TRACE, sigma0)
        x = sample(n, np.zeros(m), sigma0, gen, seed=seed)
        scores = score_eta(x, np.zeros(m), dec.v, dec.s, NORMALIZED_TRACE, gen)
        prods = np.einsum("ni,nj->nij", scores, scores)
        se = prods.std(axis=0, ddof=1) / math.sqrt(n)
        target = fim_eta(dec.v, dec.s, NORMALIZED_TRACE, gen).full()
        worst_z = max(
            worst_z, float((np.abs(prods.mean(axis=0) - target) / (se + 1e-12)).max())
        )
        # scatter-parameterization FIM
        scores_s = score_vecs_sigma(x, np.zeros(m), sigma0, gen)
        prods_s = np.einsum("ni,nj->nij", scores_s, scores_s)
        se_s = prods_s.std(axis=0, ddof=1) / math.sqrt(n)
        worst_z = max(
            worst_z,
            float(
                (
                    np.abs(prods_s.mean(axis=0) - fim_vecs_sigma(sigma0, gen))
                    / (se_s + 1e-12)
                ).max()
            ),
        )
        # parameterized model: full and efficient scores
        a_fn, a_jac = sinusoid_steering(m)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((2, 2))
        model = LowRankModel(
            a_fn=a_fn, a_jac=a_jac, signal_cov=b @ b.T + 2 * np.eye(2),
            noise_level=0.5, q=2,
        )
        param = low_rank_parameterization(model)
        theta0 = model.theta0(np.array([0.7, 1.9]))
        sig_t = param.sigma_fn(theta0)
        y = sample(n, np.zeros(m), sig_t, gen, seed=seed + 10)
        for score_fn, target in (
            (score_theta, fim_theta(param, theta0, gen)),
            (efficient_score_theta, sfim_theta(param, theta0, gen)),
        ):
            s = score_fn(y, param, theta0, gen)
            prods_t = np.einsum("ni,nj->nij", s, s)
            se_t = prods_t.std(axis=0, ddof=1) / math.sqrt(n)
            worst_z = max(
                worst_z,
                float((np.abs(prods_t.mean(axis=0) - target) / (se_t + 1e-12)).max()),
            )
    report(
        6,
        "analytic FIMs match Monte-Carlo score outer products",
        worst_z < 3.0,
        f"(max |z| = {worst_z:.2f} over all entries at n = 2e4, band 3 s.e.)",
    )


@pytest.mark.slow
def test_criterion_7_simulation_study():
    workers = min(8, os.cpu_count() or 1)
    checks = []

    def add(label, ok, detail):
        checks.append((label, bool(ok), detail))

    for scale_kind in ("first", "trace", "det"):
        config = SimConfig(
            m=4,
            n=100,
            rho=0.8,
            nu_grid=(2.1, 3.0, 5.0, 10.0, 20.0),
            trials=2000,
            scale_kind=scale_kind,
            root_seed=20240813,
            parallelism=workers,
        )
        result = run_simulation(config)
        n = config.n
        for nu in config.nu_grid:
            scrb_total = result.bounds[nu][0] * n  # bounds are stored per /n
            tyler = result.cell(nu, "tyler").mse
            add(
                f"{scale_kind}/nu={nu:g}: Tyler above bound",
                n * tyler >= 0.95 * scrb_total,
                f"n*mse={n * tyler:.3f} vs 0.95*bound={0.95 * scrb_total:.3f}",
            )
        for nu in (5.0, 10.0, 20.0):
            scrb_total = result.bounds[nu][0] * n
            matched = result.cell(nu, "r_tnu").mse
            ratio = n * matched / scrb_total
            add(
                f"{scale_kind}/nu={nu:g}: matched R within 15% of bound",
                abs(ratio - 1.0) <= 0.15,
                f"ratio={ratio:.3f}",
            )
        scm = result.cell(2.1, "scm").mse
        tyler = result.cell(2.1, "tyler").mse
        add(
            f"{scale_kind}/nu=2.1: SCM > 2x Tyler",
            scm > 2.0 * tyler,
            f"scm={scm:.3f} tyler={tyler:.3f}",
        )
        scm20 = result.cell(20.0, "scm").mse
        vdw20 = result.cell(20.0, "r_vdw").mse
        add(
            f"{scale_kind}/nu=20: SCM within 25% of vdW-R",
            abs(scm20 - vdw20) <= 0.25 * vdw20,
            f"scm={scm20:.4f} vdw={vdw20:.4f}",
        )
        t3_heavy = result.cell(3.0, "r_t3").mse
        vdw_heavy = result.cell(3.0, "r_vdw").mse
        add(
            f"{scale_kind}/nu=3: t3-score <= vdW",
            t3_heavy <= vdw_heavy,
            f"t3={t3_heavy:.4f} vdw={vdw_heavy:.4f}",
        )
        t3_light = result.cell(20.0, "r_t3").mse
        vdw_light = result.cell(20.0, "r_vdw").mse
        add(
            f"{scale_kind}/nu=20: vdW <= 1.05 * t3-score",
            vdw_light <= 1.05 * t3_light,
            f"vdw={vdw_light:.4f} t3={t3_light:.4f}",
        )
        if scale_kind == "det":
            worst = max(
                abs(result.bounds[nu][0] - result.bounds[nu][1])
                / result.bounds[nu][0]
                for nu in config.nu_grid
            )
            add(
                "det: parametric and semiparametric traces coincide",
                worst < 1e-10,
                f"max rel gap {worst:.2e}",
            )
        failed_cells = [c for c in result.cells if not c.valid]
        add(
            f"{scale_kind}: all cells valid",
            not failed_cells,
            f"{len(failed_cells)} invalid cells",
        )
    bad = [c for c in checks if not c[1]]
    for label, ok, detail in checks:
        if not ok:
            print(f"    subcheck FAIL: {label} ({detail})")
    report(
        7,
        "desk-scale simulation study bands (3 scales x 5 nu x 2000 trials)",
        not bad,
        f"({len(checks) - len(bad)}/{len(checks)} subchecks)",
    )


def test_criterion_8_complex_consistency():
    rng = np.random.default_rng(108)
    worst = 0.0
    gen_pool = [complex_student_t(6), complex_student_t(9)]
    # location, 20 instances
    for i in range(20):
        gen_c = gen_pool[i % 2]
        m, q = 4 + (i % 2), 2
        b = rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        sigma_c = c @ c.conj().T + m * np.eye(m)
        closed = cces_fim_location(b, sigma_c, gen_c)
        param = embedded_location_parameterization(
            lambda g, b=b: b @ g, lambda g, b=b: b, sigma_c, None, q
        )
        oracle = fim_theta(param, rng.standard_normal(q), gen_c.real())
        worst = max(worst, np.linalg.norm(closed - oracle) / np.linalg.norm(oracle))
    # circular low-rank (incl. the DOA Hadamard form), 20 instances
    m, p, q = 6, 2, 2
    j_idx = np.arange(m)[:, None]

    def a_fn(gamma):
        return np.exp(1j * np.pi * j_idx * np.sin(gamma)[None, :])

    def a_jac(gamma):
        a = a_fn(gamma)
        out = np.zeros((m, p, q), dtype=complex)
        for k in range(q):
            out[:, k, k] = 1j * np.pi * j_idx[:, 0] * np.cos(gamma[k]) * a[:, k]
        return out

    for i in range(20):
        gen_c = gen_pool[i % 2]
        gamma0 = np.array([0.3, 1.1]) + 0.1 * rng.standard_normal(2)
        w = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        xi0 = w @ w.conj().T + p * np.eye(p)
        lam0 = 0.4 + rng.uniform(0, 1)
        a0, da0 = a_fn(gamma0), a_jac(gamma0)
        closed = cces_lowrank_fim(a0, da0, xi0, lam0, gen_c)
        param, theta0_fn = embedded_lowrank_parameterization(a_fn, a_jac, p, q)
        oracle = efficient_fim_interest(
            fim_theta(param, theta0_fn(gamma0, xi0, lam0), gen_c.real()), q
        )
        worst = max(worst, np.linalg.norm(closed - oracle) / np.linalg.norm(oracle))
        d0 = np.stack([da0[:, k, k] for k in range(p)], axis=1)
        hadamard = doa_fim(a0, d0, xi0, lam0, gen_c)
        worst = max(
            worst, np.linalg.norm(hadamard - closed) / np.linalg.norm(closed)
        )
    # rectilinear, 20 instances
    m2, p2, q2 = 4, 2, 2
    j2 = np.arange(m2)[:, None]

    def ar_fn(gamma):
        return np.exp(1j * (np.pi * j2 * np.sin(gamma)[None, :] + 0.2))

    def ar_jac(gamma):
        a = ar_fn(gamma)
        out = np.zeros((m2, p2, q2), dtype=complex)
        for k in range(q2):
            out[:, k, k] = 1j * np.pi * j2[:, 0] * np.cos(gamma[k]) * a[:, k]
        return out

    for i in range(20):
        gen_c = gen_pool[i % 2]
        gamma0 = np.array([0.4, 1.0]) + 0.1 * rng.standard_normal(2)
        xr = rng.standard_normal((p2, p2))
        xi_r = xr @ xr.T + p2 * np.eye(p2)
        lam0 = 0.4 + rng.uniform(0, 1)
        closed = rectilinear_fim(ar_fn(gamma0), ar_jac(gamma0), xi_r, lam0, gen_c)
        param, theta0_fn = embedded_rectilinear_parameterization(ar_fn, ar_jac, p2, q2)
        oracle = efficient_fim_interest(
            fim_theta(param, theta0_fn(gamma0, xi_r, lam0), gen_c.real()), q2
        )
        worst = max(worst, np.linalg.norm(closed - oracle) / np.linalg.norm(oracle))
    report(
        8,
        "complex closed forms match the real-embedded pipeline",
        worst < 1e-8,
        f"(max rel deviation {worst:.2e} over 60 instances, tol 1e-8)",
    )
