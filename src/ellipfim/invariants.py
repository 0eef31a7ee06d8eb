"""Executable invariant suite: every module's defining identities as checks.

The fast level runs the algebraic identities (seconds); the full level
adds the Monte-Carlo statistical checks (zero-mean scores, empirical
FIMs, sampling moments).  Failures are report entries, never exceptions,
so a broken build still produces a complete table.

Fifteen identities have one body each, shared by ``ellipfim verify`` and
the tests.  A body takes its draws (an rng or seeds), its grid and its
instance count and returns its worst deviations; the caller sets the
seeds, the grid and the tolerance and passes the verdict.  Each body,
with the tests (criterion n: ``tests/test_acceptance.py``) and the
``verify`` entry that call it:

    restricted_adaptivity  criterion 1, test_efficient_fim_shape_is_schur_complement;
                           scores_fim.restricted_adaptivity
    bound_closed_forms     criterion 2, test_crb_shape_inverts_efficient_fim;
                           bounds.inversions, bounds.det_specializations
    equality_chains        criterion 3; bounds.equality_chain
    adaptivity_condition   criterion 4; adaptivity.condition
    moment_identities      criterion 5; elliptical.moment_identities
    empirical_fims_mc      criterion 6, test_fim_theta_monte_carlo,
                           test_sfim_theta_monte_carlo; mc.empirical_fims
    complex_consistency    criterion 8; complex_ces.recipe_consistency
    duplication_rank       test_duplication_full_column_rank; matcalc.duplication_rank
    projection_identity    test_projection_identity_coefficients; scores_fim.projection_identity
    fim_chain_rule         test_fim_vecs_sigma_chain_rule; scores_fim.chain_rule
    loewner_ordering       test_fim_theta_equals_sfim_for_gaussian,
                           test_fim_minus_sfim_psd_for_t; scores_fim.loewner_ordering
    upsilon_annihilation   test_upsilon_annihilates_identity_direction;
                           estimators.upsilon_annihilation
    score_zero_mean        test_score_eta_zero_mean_monte_carlo; mc.score_zero_mean
    sampling_moments       test_sample_mean_q_is_m,
                           test_sample_covariance_matches_toeplitz_scatter; mc.sampling_moments
    complex_sampling       test_embedded_samples_reproduce_hermitian_covariance;
                           mc.complex_sampling

Every Monte-Carlo band, here and in the tests (criterion 6 and the bands
of ``test_fim.py``, ``test_generators.py`` and ``test_complexces.py``),
reads its z from ``max_z``; each caller keeps its own seed, n and band.

The independent oracles stay in the tests: the mpmath quadrature that
criterion 5 and the generator tests share, the dense Kronecker forms and
the granular scale and matcalc cases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from . import bounds as bounds_mod
from . import estimators as estimators_mod
from . import fim as fim_mod
from .complexces import (
    cces_fim_location,
    cces_lowrank_fim,
    complex_from_real,
    complex_student_t,
    doa_fim,
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
    psd_sqrt,
    sample,
    student_t,
)
from .matcalc import (
    _dup_t_vec,
    _vecs_fill,
    commutation_matrix,
    duplication_matrix,
    dup_pinv,
    vec,
    vecs,
    vecs_len,
)
from .parameterize import (
    breaking_example,
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


def random_shape(rng, m, scale):
    """The shape under ``scale`` of A A^T + m I, A an m x m normal draw."""
    return decompose(scale, _random_spd(rng, m)).v


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _z_verdict(z, band, what=""):
    return bool(z < band), f"max |z| = {z:.3f} (band {band:g}){what}"


# ---------------------------------------------------------------------------
# shared bodies
# ---------------------------------------------------------------------------


def restricted_adaptivity(rng, scales, gens, dims):
    """Largest relative gap of the scale-projected Schur complement of
    ``fim_eta`` (at s = 1.6) to ``efficient_fim_shape``, one random shape
    per (scale, generator, m)."""
    worst = 0.0
    for scale in scales:
        for gen in gens:
            for m in dims:
                v = random_shape(rng, m, scale)
                blocks = fim_mod.fim_eta(v, 1.6, scale, gen)
                schur = blocks.i_v - np.outer(blocks.i_vs, blocks.i_vs) / blocks.i_s
                worst = max(
                    worst, _rel(schur, fim_mod.efficient_fim_shape(v, scale, gen))
                )
    return worst


@dataclass
class BoundDeviations:
    inversion: float = 0.0  # largest ||CRB FIM - I||_F / sqrt(k), shape and scatter
    det_forms: float = 0.0  # largest relative gap of a det-root closed form
    det_psi: float = 0.0  # largest |psi| on the det-root scale
    other_psi: float = np.inf  # smallest ||psi|| on the other scales


def bound_closed_forms(rng, scales, gens, dims, s):
    """The shape and scatter bounds against the FIMs they invert, and the
    det-root closed forms against the general ones, at one random shape V
    and Sigma = s V per (scale, generator, m).  psi, the shape-scale
    coupling of the scale bound, vanishes on the det-root scale only."""
    dev = BoundDeviations()
    for scale in scales:
        for gen in gens:
            for m in dims:
                v = random_shape(rng, m, scale)
                sigma = s * v
                shape = bounds_mod.crb_shape(scale, v, gen)
                for bound, info in (
                    (shape, fim_mod.efficient_fim_shape(v, scale, gen)),
                    (bounds_mod.crb_vecs_sigma(sigma, gen), fim_mod.fim_vecs_sigma(sigma, gen)),
                ):
                    k = bound.shape[0]
                    dev.inversion = max(
                        dev.inversion,
                        float(np.linalg.norm(bound @ info - np.eye(k)) / np.sqrt(k)),
                    )
                sb = bounds_mod.crb_scale(scale, v, s, gen)
                if scale is DET_ROOT:
                    dev.det_forms = max(
                        dev.det_forms,
                        _rel(shape, bounds_mod.crb_shape_det_root(v, gen)),
                        abs(sb.value - bounds_mod.crb_scale_det_root(sigma, gen)) / sb.value,
                    )
                    dev.det_psi = max(dev.det_psi, float(np.abs(sb.psi).max()))
                else:
                    dev.other_psi = min(dev.other_psi, float(np.linalg.norm(sb.psi)))
    return dev


def equality_chains(rng, scales, gens, m):
    """``verify_chain`` at one random m x m shape per scale.

    Returns the largest residual of the det-root no-nuisance equality and
    the tables of the chains that fail: a link fails, the det-root scale
    has a strict gap, or another scale has none under a non-Gaussian
    generator.
    """
    worst_det, failed = 0.0, []
    for scale in scales:
        rep = bounds_mod.verify_chain(scale, random_shape(rng, m, scale), list(gens), m)
        gaps = [l for l in rep.links if l.name.startswith("no_nuisance_bound_")]
        if scale is DET_ROOT:
            joins = all(l.name.endswith("equality") for l in gaps)
            worst_det = max([worst_det] + [l.value for l in gaps])
        else:
            joins = any(
                l.name.endswith("equality") for l in gaps if l.generator != "gaussian"
            )
        if not rep.passed or joins != (scale is DET_ROOT):
            failed.append(rep.format_table())
    return worst_det, failed


@dataclass
class AdaptivityDeviations:
    residual: float = 0.0  # largest |r| / max(1, |t_gamma|), adaptive models
    gap: float = 0.0  # largest relative FIM gap, adaptive models
    breaking_gap: float = np.inf  # smallest relative FIM gap of the breaking model
    gaussian_gap: float = 0.0  # the breaking model's relative FIM gap, Gaussian
    wrong: list = field(default_factory=list)  # model/generator with a wrong verdict


def adaptivity_condition(rng, gens):
    """Condition and FIM verdicts on models of known adaptivity.

    ``split_example`` and ``low_rank_example``, drawn from ``rng``, are
    adaptive: under each of the non-Gaussian ``gens`` the condition holds
    and the FIM gap vanishes.  ``breaking_example`` violates the condition
    and has a gap under each of ``gens``, but none under the Gaussian.
    """
    split = split_example(rng, 4, 2, 0.7)
    lowrank = low_rank_example(rng, 6, [0.6, 1.7], 0.8)
    breaking, theta_b = breaking_example(3, 0.5, 1.3)
    dev = AdaptivityDeviations()
    for gen in gens:
        for param, theta in (split, lowrank):
            rep = verify_adaptivity_by_fim(param, theta, gen)
            cond = rep.condition
            dev.residual = max(
                dev.residual,
                float(np.abs(cond.residual).max())
                / max(1.0, float(np.abs(cond.interest_term).max())),
            )
            dev.gap = max(dev.gap, rep.gap_rel)
            if not (cond.satisfied and rep.adaptive):
                dev.wrong.append(f"{param.name}/{gen.name}")
        rep = verify_adaptivity_by_fim(breaking, theta_b, gen)
        dev.breaking_gap = min(dev.breaking_gap, rep.gap_rel)
        if rep.condition.satisfied or rep.adaptive:
            dev.wrong.append(f"{breaking.name}/{gen.name}")
    rep = verify_adaptivity_by_fim(breaking, theta_b, gaussian())
    dev.gaussian_gap = rep.gap_rel
    if rep.condition.satisfied or not rep.adaptive:
        dev.wrong.append(f"{breaking.name}/gaussian")
    return dev


def moment_identities(gens, dims):
    """Largest relative deviation of E{1} = 1, E{Q} = m, E{Q phi} = m and
    E{Q^2 phi} = m (m + 2) by quadrature, per generator and m."""
    worst = 0.0
    for gen in gens:
        for m in dims:
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
    return worst


def duplication_rank(dims):
    """The smallest singular value of D_m over m in ``dims`` and the m it
    is reached at; 0 where D_m has not m(m+1)/2 columns."""
    worst = (np.inf, None)
    for m in dims:
        sv = np.linalg.svd(duplication_matrix(m), compute_uv=False)
        worst = min(worst, (float(sv.min()) if sv.size == vecs_len(m) else 0.0, m))
    return worst


def _m_s_vec(scale, v, a):
    """M_S vec(A) = K_V^T D_m^T vec(A) from the dense K_V of ``jacobian_w``
    and the dense D_m, apart from the compute paths' entrywise forms."""
    k_v = jacobian_w(scale, v, 1.0)[:, :-1]
    return k_v.T @ (duplication_matrix(v.shape[0]).T @ vec(a))


def projection_identity(rng, scales, m, s, gen):
    """Largest |I_Vs I_s^-1 / (2s) - M_S vec(V^-1) / (2m)|, the coefficient
    of the projection onto the scale direction, at one random m x m shape
    per scale."""
    worst = 0.0
    for scale in scales:
        v = random_shape(rng, m, scale)
        blocks = fim_mod.fim_eta(v, s, scale, gen)
        lhs = blocks.i_vs / blocks.i_s / (2 * s)
        rhs = _m_s_vec(scale, v, np.linalg.inv(v)) / (2 * m)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def fim_chain_rule(rng, scales, m, s, gen):
    """Largest relative gap of J_W^T I(vecs Sigma) J_W, at Sigma = s V, to
    the (shape, scale) block of ``fim_eta``, one random m x m shape per
    scale."""
    worst = 0.0
    for scale in scales:
        v = random_shape(rng, m, scale)
        jw = jacobian_w(scale, v, s)
        conj = jw.T @ fim_mod.fim_vecs_sigma(s * v, gen) @ jw
        worst = max(worst, _rel(conj, fim_mod.fim_eta(v, s, scale, gen).full()[m:, m:]))
    return worst


@dataclass
class LoewnerDeviations:
    gaussian_gap: float  # largest |FIM - SFIM| under the Gaussian
    gaussian_norm: float  # ||FIM||_F under the Gaussian
    min_eig: float = np.inf  # smallest eigenvalue of FIM - SFIM under gens
    min_trace: float = np.inf  # smallest trace of FIM - SFIM under gens


def loewner_ordering(param, theta0, gens):
    """FIM - SFIM of ``param`` at ``theta0``: zero under the Gaussian, PSD
    with a positive trace under each of the non-Gaussian ``gens``."""
    fim_g = fim_mod.fim_theta(param, theta0, gaussian())
    dev = LoewnerDeviations(
        float(np.abs(fim_g - fim_mod.sfim_theta(param, theta0, gaussian())).max()),
        float(np.linalg.norm(fim_g)),
    )
    for gen in gens:
        diff = fim_mod.fim_theta(param, theta0, gen) - fim_mod.sfim_theta(param, theta0, gen)
        dev.min_eig = min(dev.min_eig, float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min()))
        dev.min_trace = min(dev.min_trace, float(np.trace(diff)))
    return dev


def upsilon_annihilation(rng, m):
    """``(|G vecs(V)|, gap)`` at random shapes: the largest entry for the
    Gram G = Upsilon Upsilon^T (``_vecs_fill``) of one trace-scale V, and
    the largest relative gap of ``estimators._tangent_step`` to Xi Delta,
    Xi = 2 U [U^T G U]^{-1} U^T from the dense Upsilon =
    D_m^T (V^-1/2 (x) V^-1/2)(I - vec(I) vec(I)^T / m), one V per scale."""
    v = random_shape(rng, m, NORMALIZED_TRACE)
    annihilation = float(np.abs(_vecs_fill(np.linalg.inv(v), 1.0, -1.0 / m) @ vecs(v)).max())
    gap = 0.0
    for scale in ALL_SCALES:
        v = random_shape(rng, m, scale)[None]
        r = np.linalg.inv(psd_sqrt(v[0]))
        ups = duplication_matrix(m).T @ (np.kron(r, r) - np.outer(vec(r @ r), vec(np.eye(m))) / m)
        u, delta = u_basis(scale, v[0]), rng.standard_normal((3, 1, vecs_len(m)))
        xi_delta = 2.0 * u @ np.linalg.solve(u.T @ ups @ ups.T @ u, u.T @ delta[:, 0].T)
        step = estimators_mod._tangent_step(v, constraint_gradient_vecs(scale, v), delta)
        gap = max(gap, _rel(step[:, 0].T, xi_delta))
    return annihilation, gap


def max_z(samples, target=0.0):
    """Largest |z| = |mean - target| / se of the n draws ``samples``
    (n, ...), real or complex, entry by entry; se is the standard error of
    the mean.  An entry with no spread gives inf or nan, which fails any
    band."""
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    return float((np.abs(samples.mean(axis=0) - target) / se).max())


def empirical_fims_mc(cases, n):
    """Largest |z| of the parametric FIM against the score outer products,
    and of the SFIM against those of the efficient score, as a pair.

    Each case is (generator, parameterization, theta0, sample seed): the
    n observations are drawn at Sigma(theta0) from the sample seed.
    """
    worst = [0.0, 0.0]
    for gen, param, theta0, sample_seed in cases:
        sigma = param.sigma_fn(theta0)
        x = sample(n, np.zeros(len(sigma)), sigma, gen, seed=sample_seed)
        for i, (score_fn, info) in enumerate((
            (fim_mod.score_theta, fim_mod.fim_theta),
            (fim_mod.efficient_score_theta, fim_mod.sfim_theta),
        )):
            scores = score_fn(x, param, theta0, gen)
            z = max_z(np.einsum("ni,nj->nij", scores, scores), info(param, theta0, gen))
            worst[i] = max(worst[i], z)
    return tuple(worst)


def score_zero_mean(gen, scale, sigma, n, seed):
    """Largest |z| of the mean (mu, shape, scale) score of n draws from
    ``gen`` at scatter ``sigma`` (seed ``seed``) against zero."""
    m = sigma.shape[0]
    dec = decompose(scale, sigma)
    x = sample(n, np.zeros(m), sigma, gen, seed=seed)
    return max_z(fim_mod.score_eta(x, np.zeros(m), dec.v, dec.s, scale, gen))


def sampling_moments(gen, sigma, n, seed):
    """|z| of the second moment of n draws from ``gen`` at scatter
    ``sigma`` (seed ``seed``) against sigma, and of their mean Q against m."""
    m = sigma.shape[0]
    x = sample(n, np.zeros(m), sigma, gen, seed=seed)
    q = modular_variate(x, np.zeros(m), sigma)
    return max_z(np.einsum("ni,nj->nij", x, x), sigma), max_z(q, m)


def complex_sampling(rng, m, n, gen, seed):
    """|z| of the Hermitian second moment E{x x^H} of n complex draws
    against their scatter W W^H + m I, W drawn from ``rng``; the draws are
    real-embedded draws of the real generator ``gen`` (seed ``seed``)."""
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    sigma_c = w @ w.conj().T + m * np.eye(m)
    bar = sigma_bar_from_complex(sigma_c, None)
    x = complex_from_real(sample(n, np.zeros(2 * m), bar, gen, seed=seed))
    return max_z(np.einsum("ni,nj->nij", x, x.conj()), sigma_c)


def _ula_steering(m, phase):
    """Complex ULA steering a(gamma)_jk = exp(i (pi j sin gamma_k + phase))
    with its (m, p, p) Jacobian, diagonal in (k, l)."""

    def a_fn(gamma):
        return np.exp(1j * (np.pi * np.arange(m)[:, None] * np.sin(gamma) + phase))

    def a_jac(gamma):
        d = 1j * np.pi * np.arange(m)[:, None] * np.cos(gamma) * a_fn(gamma)
        return d[:, :, None] * np.eye(len(gamma))

    return a_fn, a_jac


def complex_consistency(rng, gens, instances):
    """Largest relative gap of the complex closed forms to their real
    embeddings, over ``instances`` draws per model, cycling through the
    complex generators ``gens``.

    Location (q = 2, m = 4 and 5 in turn) against ``fim_theta``; circular
    low-rank (m = 6, ULA, p = q = 2), and its DOA Hadamard form, and
    rectilinear (m = 4, p = q = 2) against the efficient interest FIM of
    the embedding, through the FIM and the SFIM.
    """
    worst = 0.0
    q = 2
    for i in range(instances):
        gen_c = gens[i % len(gens)]
        m = 4 + i % 2
        b = rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        sigma_c = c @ c.conj().T + m * np.eye(m)
        param = embedded_location_parameterization(
            lambda g, b=b: b @ g, lambda g, b=b: b, sigma_c, None, q
        )
        oracle = fim_mod.fim_theta(param, rng.standard_normal(q), gen_c.real())
        worst = max(worst, _rel(cces_fim_location(b, sigma_c, gen_c), oracle))

    a_fn, a_jac = _ula_steering(6, 0.0)
    param, theta0_fn = embedded_lowrank_parameterization(a_fn, a_jac, q, q)
    for i in range(instances):
        gen_c = gens[i % len(gens)]
        gamma0 = np.array([0.3, 1.1]) + 0.1 * rng.standard_normal(q)
        w = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        xi0 = w @ w.conj().T + q * np.eye(q)
        lam0 = 0.4 + rng.uniform(0, 1)
        a0, da0 = a_fn(gamma0), a_jac(gamma0)
        closed = cces_lowrank_fim(a0, da0, xi0, lam0, gen_c)
        theta0 = theta0_fn(gamma0, xi0, lam0)
        hadamard = doa_fim(a0, np.einsum("jkk->jk", da0), xi0, lam0, gen_c)
        worst = max(
            worst,
            _embedded_interest_gap(closed, param, theta0, gen_c),
            _rel(hadamard, closed),
        )

    ar_fn, ar_jac = _ula_steering(4, 0.2)
    param, theta0_fn = embedded_rectilinear_parameterization(ar_fn, ar_jac, q, q)
    for i in range(instances):
        gen_c = gens[i % len(gens)]
        gamma0 = np.array([0.4, 1.0]) + 0.1 * rng.standard_normal(q)
        xr = rng.standard_normal((q, q))
        xi_r = xr @ xr.T + q * np.eye(q)
        lam0 = 0.4 + rng.uniform(0, 1)
        closed = rectilinear_fim(ar_fn(gamma0), ar_jac(gamma0), xi_r, lam0, gen_c)
        theta0 = theta0_fn(gamma0, xi_r, lam0)
        worst = max(worst, _embedded_interest_gap(closed, param, theta0, gen_c))
    return worst


def _embedded_interest_gap(closed, param, theta0, gen_c):
    """Relative gap of a complex gamma closed form to the efficient interest
    FIM of its real embedding, through the FIM and through the SFIM: the
    closed form is both the CRB and the SCRB."""
    return max(
        _rel(closed, fim_mod.efficient_fim_interest(info(param, theta0, gen_c.real()), param.q))
        for info in (fim_mod.fim_theta, fim_mod.sfim_theta)
    )


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
    sv, m = duplication_rank(range(1, 7))
    if sv <= 1e-10:
        return False, f"rank deficiency at m={m}"
    return True, "full column rank for m in 1..6"


def _check_moment_identities():
    worst = moment_identities(GEN_GRID, (2, 4, 8))
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
            ker = _m_s_vec(scale, dec.v, np.linalg.inv(dec.v))
            if scale is DET_ROOT:
                worst = max(worst, float(np.abs(ker).max()))
            elif float(np.abs(ker).max()) < 1e-3:
                return False, f"kernel vector unexpectedly small for {scale.kind}"
    return worst < 1e-9, f"max geometric identity violation {worst:.2e}"


def _check_restricted_adaptivity():
    worst = restricted_adaptivity(np.random.default_rng(4), ALL_SCALES, GEN_GRID, (2, 3, 4))
    return worst < 1e-10, f"max Schur-vs-closed-form deviation {worst:.2e}"


def _check_projection_identity():
    worst = projection_identity(np.random.default_rng(5), ALL_SCALES, 3, 2.2, student_t(7))
    return worst < 1e-12, f"max coefficient deviation {worst:.2e}"


def _check_fim_chain_rule():
    worst = fim_chain_rule(np.random.default_rng(6), ALL_SCALES, 3, 1.4, student_t(9))
    return worst < 1e-10, f"max congruence deviation {worst:.2e}"


def _check_bound_inversions():
    dev = bound_closed_forms(np.random.default_rng(7), ALL_SCALES, GEN_GRID, (2, 3, 4), 1.5)
    return dev.inversion < 1e-8, f"max inversion residual {dev.inversion:.2e}"


def _check_det_specializations():
    dev = bound_closed_forms(
        np.random.default_rng(8), (DET_ROOT, FIRST_ELEMENT), GEN_GRID, (4,), 1.8
    )
    det = max(dev.det_forms, dev.det_psi)
    ok = det < 1e-12 and dev.other_psi > 1e-6
    return ok, f"det deviations {det:.2e}; non-det psi magnitude >= {dev.other_psi:.2e}"


def _check_chain_reports():
    _, failed = equality_chains(np.random.default_rng(9), ALL_SCALES, GEN_GRID, 3)
    if failed:
        return False, "\n".join(failed)
    return True, "chain equalities hold for all scales and generators"


def _check_adaptivity_condition():
    dev = adaptivity_condition(
        np.random.default_rng(10), (student_t(6), student_t(8), generalized_gaussian(0.5))
    )
    if dev.wrong:
        return False, f"wrong verdicts: {', '.join(dev.wrong)}"
    return True, "sufficiency, necessity and gaussian exceptionality all hold"


def _check_loewner_ordering():
    param, theta0 = low_rank_example(np.random.default_rng(11), 4, [0.7, 1.9], 0.5)
    dev = loewner_ordering(param, theta0, (student_t(6), student_t(8)))
    if dev.gaussian_gap > 1e-10:
        return False, "gaussian equality violated"
    if dev.min_eig < -1e-10 or dev.min_trace <= 0:
        return False, f"t ordering violated: min eig {dev.min_eig:.2e}, trace {dev.min_trace:.2e}"
    return True, "fim - sfim is PSD (zero at the Gaussian, strict for t)"


def _check_complex_consistency():
    worst = complex_consistency(np.random.default_rng(12), (complex_student_t(7),), 1)
    return worst < 1e-8, f"max closed-form vs embedding deviation {worst:.2e} (FIM and SFIM)"


def _check_gram_annihilation():
    res, gap = upsilon_annihilation(np.random.default_rng(13), 4)
    return res < 1e-12 and gap < 1e-10, f"scale-direction residual {res:.2e}, step gap {gap:.2e}"


# -- full-level Monte-Carlo checks ------------------------------------------


def _check_score_zero_mean_mc():
    m = 4
    z = score_zero_mean(
        student_t(6), NORMALIZED_TRACE, toeplitz(0.8 ** np.arange(m)), 100_000, 7531
    )
    return _z_verdict(z, 3, f" over {m + vecs_len(m)} components")


def _check_empirical_fims_mc():
    cases = [(gen, *low_rank_example(np.random.default_rng(seed), 4, [0.7, 1.9], 0.5), (seed, 99))
             for gen, seed in ((gaussian(), 11), (student_t(8), 12))]
    return _z_verdict(max(empirical_fims_mc(cases, 20_000)), 3)


def _check_sampling_moments_mc():
    m, n = 4, 100_000
    z_cov, _ = sampling_moments(gaussian(), toeplitz(0.8 ** np.arange(m)), n, 99)
    z_q = [sampling_moments(gen, np.eye(m), n, 2024)[1] for gen in (gaussian(), student_t(6))]
    return _z_verdict(max(z_cov, *z_q), 3)


def _check_complex_sampling_mc():
    return _z_verdict(complex_sampling(np.random.default_rng(14), 3, 100_000, gaussian(), 4321), 3)


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
