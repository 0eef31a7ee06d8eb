"""Executable invariant suite: every module's defining identities as checks.

The fast level runs the algebraic identities (seconds); the full level
adds the Monte-Carlo statistical checks (zero-mean scores, empirical
FIMs, sampling moments).  Failures are report entries, never exceptions,
so a broken build still produces a complete table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from . import bounds as bounds_mod
from . import fim as fim_mod
from .complexces import (
    cces_fim_location,
    cces_lowrank_fim,
    complex_student_t,
    embedded_location_parameterization,
    embedded_lowrank_parameterization,
    rectilinear_fim,
    embedded_rectilinear_parameterization,
    sigma_bar_from_complex,
)
from .generators import (
    expect,
    gaussian,
    generalized_gaussian,
    modular_variate,
    sample,
    student_t,
)
from .matcalc import (
    _dup_t_vec,
    commutation_matrix,
    duplication_matrix,
    dup_pinv,
    vec,
    vecs,
    vecs_len,
)
from .parameterize import (
    breaking_example,
    condition_check,
    low_rank_example,
    split_example,
    verify_adaptivity_by_fim,
)
from .scale import (
    DET_ROOT,
    FIRST_ELEMENT,
    NORMALIZED_TRACE,
    constraint_gradient_vecs,
    decompose,
    jacobian_w,
    m_matrix,
    u_basis,
)

ALL_SCALES = (FIRST_ELEMENT, NORMALIZED_TRACE, DET_ROOT)
GEN_GRID = (gaussian(), student_t(6), student_t(8), generalized_gaussian(0.5))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass
class InvariantReport:
    level: str
    entries: list

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def format_table(self) -> str:
        width = max(len(e.name) for e in self.entries) + 2
        lines = [f"invariant suite ({self.level}): "
                 f"{sum(e.passed for e in self.entries)}/{len(self.entries)} passed"]
        for e in self.entries:
            mark = "pass" if e.passed else "FAIL"
            lines.append(f"  [{mark}] {e.name:<{width}} {e.detail} ({e.seconds:.2f}s)")
        return "\n".join(lines)


def _random_spd(rng, m):
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_duplication():
    rng = np.random.default_rng(1)
    worst = 0.0
    for m in (2, 3, 4):
        d = duplication_matrix(m)
        for _ in range(20):
            a = rng.standard_normal((m, m))
            a = a + a.T
            worst = max(worst, float(np.abs(d @ vecs(a) - vec(a)).max()))
        # the entrywise D_m^T vec(B) of the compute paths, B not symmetric
        b = rng.standard_normal((m, m))
        worst = max(worst, float(np.abs(_dup_t_vec(b) - d.T @ vec(b)).max()))
        k = commutation_matrix(m)
        worst = max(worst, float(np.abs(k @ k - np.eye(m * m)).max()))
        worst = max(worst, float(np.abs(k @ d - d).max()))
        dpi = dup_pinv(m)
        worst = max(worst, float(np.abs(dpi @ d - np.eye(vecs_len(m))).max()))
        worst = max(worst, float(np.abs(d @ dpi - 0.5 * (np.eye(m * m) + k)).max()))
    return worst < 1e-12, f"max identity violation {worst:.2e}"


def _check_duplication_rank():
    for m in range(1, 7):
        sv = np.linalg.svd(duplication_matrix(m), compute_uv=False)
        if sv.min() <= 1e-10 or sv.size != vecs_len(m):
            return False, f"rank deficiency at m={m}"
    return True, "full column rank for m in 1..6"


def _check_moment_identities():
    worst = 0.0
    for gen in GEN_GRID:
        for m in (2, 4, 8):
            worst = max(worst, abs(expect(gen, m, lambda q: np.ones_like(q)) - 1.0))
            worst = max(worst, abs(expect(gen, m, lambda q: q) - m) / m)
            worst = max(
                worst, abs(expect(gen, m, lambda q: q * gen.phi_bar(q, m)) - m) / m
            )
            target = m * (m + 2)
            worst = max(
                worst,
                abs(expect(gen, m, lambda q: q * q * gen.phi_bar(q, m)) - target)
                / target,
            )
    return worst < 1e-6, f"max relative deviation {worst:.2e}"


def _check_coefficient_closed_forms():
    worst = 0.0
    for gen in GEN_GRID:
        for m in (2, 4, 8):
            alpha_q = expect(gen, m, lambda q: (q * gen.phi_bar(q, m)) ** 2) / (
                m * (m + 2)
            )
            beta_q = expect(gen, m, lambda q: q * gen.phi_bar(q, m) ** 2) / m
            worst = max(worst, abs(gen.alpha(m) - alpha_q) / alpha_q)
            worst = max(worst, abs(gen.beta(m) - beta_q) / beta_q)
    return worst < 1e-8, f"max closed-form vs quadrature deviation {worst:.2e}"


def _check_scale_geometry():
    rng = np.random.default_rng(3)
    worst = 0.0
    for scale in ALL_SCALES:
        for m in (3, 4):
            sigma = _random_spd(rng, m)
            for c in (0.5, 2.0, 10.0):
                worst = max(
                    worst,
                    abs(scale.value(c * sigma) - c * scale.value(sigma))
                    / scale.value(sigma),
                )
            dec = decompose(scale, sigma)
            again = decompose(scale, dec.v)
            worst = max(worst, abs(again.s - 1.0))
            worst = max(worst, float(np.abs(again.v - dec.v).max()))
            g = scale.gradient(sigma)
            worst = max(
                worst, abs(np.trace(g @ sigma) - scale.value(sigma)) / scale.value(sigma)
            )
            if np.linalg.matrix_rank(jacobian_w(scale, dec.v, dec.s)) < vecs_len(m):
                return False, f"jacobian_w is singular for {scale.kind} at m={m}"
            u = u_basis(scale, dec.v)
            # at s = 1 the leading columns of jacobian_w are K_V
            qk, _ = np.linalg.qr(jacobian_w(scale, dec.v, 1.0)[:, :-1])
            worst = max(worst, float(np.abs(u @ u.T - qk @ qk.T).max()))
            worst = max(
                worst,
                float(np.abs(constraint_gradient_vecs(scale, dec.v) @ u).max()),
            )
            ker = m_matrix(scale, dec.v) @ vec(np.linalg.inv(dec.v))
            if scale is DET_ROOT:
                worst = max(worst, float(np.abs(ker).max()))
            elif float(np.abs(ker).max()) < 1e-3:
                return False, f"kernel vector unexpectedly small for {scale.kind}"
    return worst < 1e-9, f"max geometric identity violation {worst:.2e}"


def _check_restricted_adaptivity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for scale in ALL_SCALES:
        for gen in GEN_GRID:
            for m in (2, 3, 4):
                v = decompose(scale, _random_spd(rng, m)).v
                blocks = fim_mod.fim_eta(v, 1.6, scale, gen)
                schur = blocks.i_v - np.outer(blocks.i_vs, blocks.i_vs) / blocks.i_s
                worst = max(
                    worst, _rel(schur, fim_mod.efficient_fim_shape(v, scale, gen))
                )
    return worst < 1e-10, f"max Schur-vs-closed-form deviation {worst:.2e}"


def _check_projection_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for scale in ALL_SCALES:
        m, s = 3, 2.2
        v = decompose(scale, _random_spd(rng, m)).v
        blocks = fim_mod.fim_eta(v, s, scale, student_t(7))
        lhs = blocks.i_vs / blocks.i_s / (2 * s)
        rhs = m_matrix(scale, v) @ vec(np.linalg.inv(v)) / (2 * m)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst < 1e-12, f"max coefficient deviation {worst:.2e}"


def _check_fim_chain_rule():
    rng = np.random.default_rng(6)
    worst = 0.0
    for scale in ALL_SCALES:
        m, s = 3, 1.4
        v = decompose(scale, _random_spd(rng, m)).v
        jw = jacobian_w(scale, v, s)
        conj = jw.T @ fim_mod.fim_vecs_sigma(s * v, student_t(9)) @ jw
        expected = fim_mod.fim_eta(v, s, scale, student_t(9)).full()[m:, m:]
        worst = max(worst, _rel(conj, expected))
    return worst < 1e-10, f"max congruence deviation {worst:.2e}"


def _check_bound_inversions():
    rng = np.random.default_rng(7)
    worst = 0.0
    for scale in ALL_SCALES:
        for gen in GEN_GRID:
            for m in (2, 3, 4):
                v = decompose(scale, _random_spd(rng, m)).v
                k = vecs_len(m) - 1
                prod = bounds_mod.crb_shape(scale, v, gen) @ fim_mod.efficient_fim_shape(
                    v, scale, gen
                )
                worst = max(
                    worst, float(np.linalg.norm(prod - np.eye(k)) / np.sqrt(k))
                )
                sigma = 1.5 * v
                prod2 = bounds_mod.crb_vecs_sigma(sigma, gen) @ fim_mod.fim_vecs_sigma(
                    sigma, gen
                )
                kk = vecs_len(m)
                worst = max(
                    worst, float(np.linalg.norm(prod2 - np.eye(kk)) / np.sqrt(kk))
                )
    return worst < 1e-8, f"max inversion residual {worst:.2e}"


def _check_det_specializations():
    rng = np.random.default_rng(8)
    worst = 0.0
    psi_first = 0.0
    for gen in GEN_GRID:
        v = decompose(DET_ROOT, _random_spd(rng, 4)).v
        worst = max(
            worst,
            _rel(
                bounds_mod.crb_shape(DET_ROOT, v, gen),
                bounds_mod.crb_shape_det_root(v, gen),
            ),
        )
        sb = bounds_mod.crb_scale(DET_ROOT, v, 1.8, gen)
        worst = max(worst, float(np.abs(sb.psi).max()))
        worst = max(
            worst,
            abs(sb.value - bounds_mod.crb_scale_det_root(1.8 * v, gen))
            / sb.value,
        )
        v_first = decompose(FIRST_ELEMENT, _random_spd(rng, 4)).v
        psi_first = max(
            psi_first,
            float(
                np.abs(bounds_mod.crb_scale(FIRST_ELEMENT, v_first, 1.8, gen).psi).max()
            ),
        )
    ok = worst < 1e-12 and psi_first > 1e-6
    return ok, f"det deviations {worst:.2e}; non-det psi magnitude {psi_first:.2e}"


def _check_chain_reports():
    rng = np.random.default_rng(9)
    for scale in ALL_SCALES:
        v = decompose(scale, _random_spd(rng, 3)).v
        report = bounds_mod.verify_chain(scale, v, list(GEN_GRID), 3)
        if not report.passed:
            return False, report.format_table()
    return True, "chain equalities hold for all scales and generators"


def _check_adaptivity_condition():
    rng = np.random.default_rng(10)
    split, theta_split = split_example(rng, 4, 2, 0.7)
    lowrank, theta_lr = low_rank_example(rng, 6, [0.6, 1.7], 0.8)
    breaking, theta_break = breaking_example(3, 0.5, 1.3)

    for gen in (student_t(6), student_t(8), generalized_gaussian(0.5)):
        for param, theta in ((split, theta_split), (lowrank, theta_lr)):
            cond = condition_check(param, theta, gen)
            rep = verify_adaptivity_by_fim(param, theta, gen)
            if not (cond.satisfied and rep.adaptive):
                return False, f"{param.name}/{gen.name}: scaled residual {cond.scaled_residual}"
        cond = condition_check(breaking, theta_break, gen)
        rep = verify_adaptivity_by_fim(breaking, theta_break, gen)
        if cond.satisfied or rep.adaptive:
            return False, f"breaking model not detected under {gen.name}"
    rep = verify_adaptivity_by_fim(breaking, theta_break, gaussian())
    if not rep.adaptive or rep.condition.satisfied:
        return False, "gaussian exceptionality violated"
    return True, "sufficiency, necessity and gaussian exceptionality all hold"


def _check_loewner_ordering():
    param, theta0 = low_rank_example(np.random.default_rng(11), 4, [0.7, 1.9], 0.5)
    g_diff = fim_mod.fim_theta(param, theta0, gaussian()) - fim_mod.sfim_theta(
        param, theta0, gaussian()
    )
    if np.abs(g_diff).max() > 1e-10:
        return False, "gaussian equality violated"
    for nu in (6, 8):
        diff = fim_mod.fim_theta(param, theta0, student_t(nu)) - fim_mod.sfim_theta(
            param, theta0, student_t(nu)
        )
        eigs = np.linalg.eigvalsh(0.5 * (diff + diff.T))
        if eigs.min() < -1e-10 or np.trace(diff) <= 0:
            return False, f"t({nu}) ordering violated: min eig {eigs.min():.2e}"
    return True, "fim - sfim is PSD (zero at the Gaussian, strict for t)"


def _ula_steering(m, phase):
    """Complex ULA steering a(gamma)_jk = exp(i (pi j sin gamma_k + phase))
    with its (m, p, p) Jacobian, diagonal in (k, l)."""

    def a_fn(gamma):
        return np.exp(1j * (np.pi * np.arange(m)[:, None] * np.sin(gamma) + phase))

    def a_jac(gamma):
        d = 1j * np.pi * np.arange(m)[:, None] * np.cos(gamma) * a_fn(gamma)
        return d[:, :, None] * np.eye(len(gamma))

    return a_fn, a_jac


def _check_complex_consistency():
    rng = np.random.default_rng(12)
    gen_c = complex_student_t(7)
    worst = 0.0
    # location
    m, q = 4, 2
    b = rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    sigma_c = c @ c.conj().T + m * np.eye(m)
    closed = cces_fim_location(b, sigma_c, gen_c)
    param = embedded_location_parameterization(
        lambda g: b @ g, lambda g: b, sigma_c, None, q
    )
    worst = max(
        worst, _rel(closed, fim_mod.fim_theta(param, rng.standard_normal(q), gen_c.real()))
    )

    # low rank
    m, p, q = 6, 2, 2
    a_fn, a_jac = _ula_steering(m, 0.0)
    gamma0 = np.array([0.3, 1.1])
    w = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    xi0 = w @ w.conj().T + p * np.eye(p)
    closed = cces_lowrank_fim(a_fn(gamma0), a_jac(gamma0), xi0, 0.7, gen_c)
    param, theta0_fn = embedded_lowrank_parameterization(a_fn, a_jac, p, q)
    worst = max(worst, _embedded_interest_gap(closed, param, theta0_fn(gamma0, xi0, 0.7), gen_c))

    # rectilinear
    m2, p2, q2 = 4, 2, 2
    ar_fn, ar_jac = _ula_steering(m2, 0.2)
    gamma0 = np.array([0.4, 1.0])
    xr = rng.standard_normal((p2, p2))
    xi_r = xr @ xr.T + p2 * np.eye(p2)
    closed = rectilinear_fim(ar_fn(gamma0), ar_jac(gamma0), xi_r, 0.9, gen_c)
    param, theta0_fn = embedded_rectilinear_parameterization(ar_fn, ar_jac, p2, q2)
    worst = max(worst, _embedded_interest_gap(closed, param, theta0_fn(gamma0, xi_r, 0.9), gen_c))
    return worst < 1e-8, f"max closed-form vs embedding deviation {worst:.2e} (FIM and SFIM)"


def _embedded_interest_gap(closed, param, theta0, gen_c):
    """Relative gap of a complex gamma closed form to the efficient interest
    FIM of its real embedding, through the FIM and through the SFIM: the
    closed form is both the CRB and the SCRB."""
    return max(
        _rel(closed, fim_mod.efficient_fim_interest(info(param, theta0, gen_c.real()), param.q))
        for info in (fim_mod.fim_theta, fim_mod.sfim_theta)
    )


def _check_gram_annihilation():
    # Upsilon^T vecs(V) = 0, so the R-step's Gram Upsilon Upsilon^T has
    # the scale direction in its kernel
    rng = np.random.default_rng(13)
    m = 4
    v = decompose(NORMALIZED_TRACE, _random_spd(rng, m)).v
    gram = fim_mod._vecs_information(np.linalg.inv(v), 1.0, -1.0 / m)[0]
    worst = float(np.abs(gram @ vecs(v)).max())
    return worst < 1e-12, f"scale-direction residual {worst:.2e}"


# -- full-level Monte-Carlo checks ------------------------------------------


def _check_score_zero_mean_mc():
    m, n = 4, 100_000
    sigma = toeplitz(0.8 ** np.arange(m))
    gen = student_t(6)
    dec = decompose(NORMALIZED_TRACE, sigma)
    x = sample(n, np.zeros(m), sigma, gen, seed=7531)
    scores = fim_mod.score_eta(x, np.zeros(m), dec.v, dec.s, NORMALIZED_TRACE, gen)
    se = scores.std(axis=0, ddof=1) / np.sqrt(n)
    z = np.abs(scores.mean(axis=0)) / se
    return bool(np.all(z < 3)), f"max |z| = {z.max():.2f} over {len(z)} components"


def _check_empirical_fims_mc():
    worst_z = 0.0
    for gen, seed in ((gaussian(), 11), (student_t(8), 12)):
        m, n = 4, 20_000
        param, theta0 = low_rank_example(np.random.default_rng(seed), m, [0.7, 1.9], 0.5)
        sigma = param.sigma_fn(theta0)
        x = sample(n, np.zeros(m), sigma, gen, seed=(seed, 99))
        for score_fn, target in (
            (fim_mod.score_theta, fim_mod.fim_theta(param, theta0, gen)),
            (fim_mod.efficient_score_theta, fim_mod.sfim_theta(param, theta0, gen)),
        ):
            s = score_fn(x, param, theta0, gen)
            prods = np.einsum("ni,nj->nij", s, s)
            se = prods.std(axis=0, ddof=1) / np.sqrt(n)
            z = np.abs(prods.mean(axis=0) - target) / (se + 1e-12)
            worst_z = max(worst_z, float(z.max()))
    return worst_z < 3, f"max |z| = {worst_z:.2f}"


def _check_sampling_moments_mc():
    m, n = 4, 100_000
    sigma = toeplitz(0.8 ** np.arange(m))
    x = sample(n, np.zeros(m), sigma, gaussian(), seed=99)
    prods = np.einsum("ni,nj->nij", x, x)
    se = prods.std(axis=0, ddof=1) / np.sqrt(n)
    z_cov = float((np.abs(prods.mean(axis=0) - sigma) / se).max())
    zs = [z_cov]
    for gen in (gaussian(), student_t(6)):
        y = sample(n, np.zeros(m), np.eye(m), gen, seed=2024)
        q = modular_variate(y, np.zeros(m), np.eye(m))
        zs.append(abs(q.mean() - m) / (q.std(ddof=1) / np.sqrt(n)))
    worst = max(zs)
    return worst < 3, f"max |z| = {worst:.2f}"


def _check_complex_sampling_mc():
    rng = np.random.default_rng(14)
    m, n = 3, 100_000
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    sigma_c = w @ w.conj().T + m * np.eye(m)
    bar = sigma_bar_from_complex(sigma_c, None)
    x_bar = sample(n, np.zeros(2 * m), bar, gaussian(), seed=4321)
    x = x_bar[:, :m] + 1j * x_bar[:, m:]
    prods = np.einsum("ni,nj->nij", x, x.conj())
    se = np.abs(prods.std(axis=0, ddof=1)) / np.sqrt(n)
    z = float((np.abs(prods.mean(axis=0) - sigma_c) / (se + 1e-12)).max())
    return z < 3, f"max |z| = {z:.2f}"


FAST_CHECKS = [
    ("matcalc.duplication_identities", _check_duplication),
    ("matcalc.duplication_rank", _check_duplication_rank),
    ("elliptical.moment_identities", _check_moment_identities),
    ("elliptical.coefficient_closed_forms", _check_coefficient_closed_forms),
    ("scale_shape.geometry", _check_scale_geometry),
    ("scores_fim.restricted_adaptivity", _check_restricted_adaptivity),
    ("scores_fim.projection_identity", _check_projection_identity),
    ("scores_fim.chain_rule", _check_fim_chain_rule),
    ("scores_fim.loewner_ordering", _check_loewner_ordering),
    ("bounds.inversions", _check_bound_inversions),
    ("bounds.det_specializations", _check_det_specializations),
    ("bounds.equality_chain", _check_chain_reports),
    ("adaptivity.condition", _check_adaptivity_condition),
    ("complex_ces.recipe_consistency", _check_complex_consistency),
    ("estimators.upsilon_annihilation", _check_gram_annihilation),
]

FULL_CHECKS = [
    ("mc.score_zero_mean", _check_score_zero_mean_mc),
    ("mc.empirical_fims", _check_empirical_fims_mc),
    ("mc.sampling_moments", _check_sampling_moments_mc),
    ("mc.complex_sampling", _check_complex_sampling_mc),
]


def run_invariant_suite(level: str = "fast") -> InvariantReport:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    checks = list(FAST_CHECKS)
    if level == "full":
        checks += FULL_CHECKS
    entries = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure entry, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        entries.append(
            CheckResult(
                name=name,
                passed=bool(passed),
                detail=detail,
                seconds=time.perf_counter() - start,
            )
        )
    return InvariantReport(level=level, entries=entries)
