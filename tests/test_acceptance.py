"""Acceptance suite: one test per headline criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion.  Criteria 1-6 and 8 compute their identities with the
`ellipfim.invariants` bodies that `ellipfim verify` also runs (the module
docstring there lists which), each at this file's own seeds, grids and
tolerances.  The independent oracles stay in the tests: criterion 5's
mpmath quadrature of the coefficients (``dense_oracles.mp_expect``).
Every Monte-Carlo band is stated in its assertion.
"""

import os

import numpy as np
import pytest
from scipy.linalg import toeplitz

from dense_oracles import mp_expect
from ellipfim.complexces import complex_student_t
from ellipfim.fim import fim_eta, fim_vecs_sigma, score_eta, score_vecs_sigma
from ellipfim.generators import gaussian, sample, student_t
from ellipfim.invariants import (
    ALL_SCALES,
    GEN_GRID,
    adaptivity_condition,
    bound_closed_forms,
    complex_consistency,
    empirical_fims_mc,
    equality_chains,
    max_z,
    moment_identities,
    restricted_adaptivity,
)
from ellipfim.parameterize import low_rank_example
from ellipfim.scale import NORMALIZED_TRACE, decompose
from ellipfim.simulate import SimConfig, run_simulation

DIMS = (2, 3, 4)


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} {detail}".rstrip())
    assert passed, f"criterion {number}: {label} {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_restricted_adaptivity():
    worst = restricted_adaptivity(np.random.default_rng(101), ALL_SCALES, GEN_GRID, DIMS)
    report(
        1,
        "efficient shape FIM equals the scale-projected Schur complement",
        worst < 1e-10,
        f"(max rel Frobenius {worst:.2e}, tol 1e-10)",
    )


def test_criterion_2_crb_closed_forms():
    dev = bound_closed_forms(np.random.default_rng(102), ALL_SCALES, GEN_GRID, DIMS, 1.4)
    ok = (
        dev.inversion < 1e-8
        and dev.det_forms < 1e-12
        and dev.det_psi < 1e-12
        and dev.other_psi > 1e-8
    )
    report(
        2,
        "shape/scatter bounds invert their FIMs; det-root forms specialize",
        ok,
        f"(inv {dev.inversion:.2e} tol 1e-8; det forms {dev.det_forms:.2e} tol 1e-12; "
        f"det psi {dev.det_psi:.2e}; other-scale psi >= {dev.other_psi:.2e})",
    )


def test_criterion_3_equality_chain():
    worst_det, failed = equality_chains(np.random.default_rng(103), ALL_SCALES, GEN_GRID, 3)
    for table in failed:
        print(table)
    report(
        3,
        "no-nuisance bound joins the chain iff det-root scale",
        not failed and worst_det < 1e-10,
        f"(det equality rel {worst_det:.1e}; non-det gaps PSD and nonzero)",
    )


def test_criterion_4_parameterized_adaptivity():
    # split, low-rank (m=6, p=2) and breaking models; the breaking model has
    # a nonzero residual and gap for t(8) but no gap for the Gaussian
    dev = adaptivity_condition(np.random.default_rng(104), (student_t(8),))
    ok = (
        not dev.wrong
        and dev.residual < 1e-8
        and dev.gap < 1e-8
        and dev.breaking_gap > 1e-4
        and dev.gaussian_gap < 1e-12
    )
    wrong = f"; wrong verdicts {', '.join(dev.wrong)}" if dev.wrong else ""
    report(
        4,
        "adaptivity condition and FIM gaps (split, low-rank, breaking)",
        ok,
        f"(residual {dev.residual:.2e}, gap {dev.gap:.2e}, tol 1e-8; breaking "
        f"gap t(8) {dev.breaking_gap:.2e}, gaussian {dev.gaussian_gap:.2e}{wrong})",
    )


def test_criterion_5_moment_identities():
    worst_moment = moment_identities(GEN_GRID, (2, 4, 8))
    worst_coeff = 0.0
    for m in (2, 4, 8):
        g = gaussian()
        # Gaussian: phi == 1, so alpha reduces to E{Q^2}/(m(m+2)) and
        # sigma_q^2 to E{Q^2} - m^2
        q2 = mp_expect(g, m, lambda q: q * q)
        worst_coeff = max(worst_coeff, abs(g.alpha(m) - q2 / (m * (m + 2))))
        worst_coeff = max(worst_coeff, abs(g.sigma_q2(m) - (q2 - m * m)) / (2 * m))
        worst_coeff = max(worst_coeff, abs(g.sigma_q2(m) - 2 * m) / (2 * m))
        for nu in (6, 8):
            t = student_t(nu)
            alpha_q = mp_expect(
                t, m, lambda q: (q * (nu + m) / (nu - 2.0 + q)) ** 2
            ) / (m * (m + 2))
            worst_coeff = max(
                worst_coeff, abs(t.alpha(m) - alpha_q) / alpha_q
            )
            worst_coeff = max(
                worst_coeff,
                abs(t.alpha(m) - (m + nu) / (m + nu + 2)) / t.alpha(m),
            )
            sigma_q = mp_expect(t, m, lambda q: q * q) - m * m
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
    n, m, band = 20_000, 4, 3.0
    sigma0 = toeplitz(0.8 ** np.arange(m))
    dec = decompose(NORMALIZED_TRACE, sigma0)
    worst_z = 0.0
    for gen, seed in ((gaussian(), 601), (student_t(8), 602)):
        # the (mu, shape, scale) block FIM and the scatter-parameterization
        # FIM against score outer products
        x = sample(n, np.zeros(m), sigma0, gen, seed=seed)
        for scores, info in (
            (score_eta(x, np.zeros(m), dec.v, dec.s, NORMALIZED_TRACE, gen),
             fim_eta(dec.v, dec.s, NORMALIZED_TRACE, gen).full()),
            (score_vecs_sigma(x, np.zeros(m), sigma0, gen), fim_vecs_sigma(sigma0, gen)),
        ):
            worst_z = max(worst_z, max_z(np.einsum("ni,nj->nij", scores, scores), info))
    # parameterized model: full and efficient scores, the model drawn at the
    # same seed and the sample at seed + 10
    cases = [(gen, *low_rank_example(np.random.default_rng(seed), m, [0.7, 1.9], 0.5), seed + 10)
             for gen, seed in ((gaussian(), 601), (student_t(8), 602))]
    worst_z = max(worst_z, *empirical_fims_mc(cases, n))
    report(
        6,
        "analytic FIMs match Monte-Carlo score outer products",
        worst_z < band,
        f"(max |z| = {worst_z:.3f} (band {band:g}) over all entries at n = 2e4)",
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
    # location, circular low-rank (with the DOA Hadamard form) and
    # rectilinear, 20 instances each, alternating t(6) and t(9)
    gens = (complex_student_t(6), complex_student_t(9))
    worst = complex_consistency(np.random.default_rng(108), gens, 20)
    report(
        8,
        "complex closed forms match the real-embedded pipeline",
        worst < 1e-8,
        f"(max rel deviation {worst:.2e} over 60 instances, tol 1e-8)",
    )
