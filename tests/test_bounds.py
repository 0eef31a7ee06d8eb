import dataclasses
import errno
import math
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz

import dense_oracles as dense
from ellipfim import bounds, fim
from ellipfim.bounds import (
    SingularCoefficientError,
    bound_set,
    crb_location,
    crb_scale,
    crb_scale_det_root,
    crb_shape,
    crb_shape_det_root,
    crb_vecs_sigma,
    pd_inverse,
    verify_chain,
    write_bounds_csv,
)
from ellipfim.fim import fim_eta, fim_vecs_sigma
from ellipfim.generators import (
    gaussian,
    generalized_gaussian,
    student_t,
)
from ellipfim.invariants import ALL_SCALES, GEN_GRID, bound_closed_forms, random_shape
from ellipfim.matcalc import vecs_len
from ellipfim.scale import DET_ROOT, FIRST_ELEMENT, NORMALIZED_TRACE, decompose


# ---------------------------------------------------------------------------
# location
# ---------------------------------------------------------------------------


def test_crb_location_gaussian_identity():
    np.testing.assert_allclose(crb_location(np.eye(3), 1.0, gaussian()), np.eye(3))


@pytest.mark.parametrize("gen", GEN_GRID, ids=str)
def test_crb_location_inverts_fim(gen):
    rng = np.random.default_rng(1)
    v = random_shape(rng, 4, NORMALIZED_TRACE)
    s = 2.3
    blocks = fim_eta(v, s, NORMALIZED_TRACE, gen)
    prod = crb_location(v, s, gen) @ blocks.i_mu
    np.testing.assert_allclose(prod, np.eye(4), atol=1e-12)


def test_crb_location_t6_beta_scaling():
    v = np.eye(4)
    gen = student_t(6)
    expected = v / gen.beta(4)
    np.testing.assert_allclose(crb_location(v, 1.0, gen), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# shape bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("gen", GEN_GRID, ids=str)
def test_crb_shape_inverts_efficient_fim(scale, m, gen):
    # and the scatter bound at Sigma = 1.5 V its FIM
    rng = np.random.default_rng(10 * m + 1)
    assert bound_closed_forms(rng, (scale,), (gen,), (m,), 1.5).inversion < 1e-8


def test_crb_shape_det_specialization_matches_general():
    rng = np.random.default_rng(23)
    v = random_shape(rng, 4, DET_ROOT)
    gen = student_t(6)
    np.testing.assert_allclose(
        crb_shape(DET_ROOT, v, gen),
        crb_shape_det_root(v, gen),
        atol=1e-12 * np.linalg.norm(crb_shape_det_root(v, gen)),
    )


def test_crb_shape_generator_ratio():
    rng = np.random.default_rng(29)
    v = random_shape(rng, 3, FIRST_ELEMENT)
    g = crb_shape(FIRST_ELEMENT, v, gaussian())
    t = crb_shape(FIRST_ELEMENT, v, student_t(7))
    np.testing.assert_allclose(t, g / student_t(7).alpha(3), rtol=1e-12)


def test_crb_shape_lifted_trace_invariant_under_rotation():
    # Basis-independent scales only; first-element is excluded by design.
    # The invariant functional is the trace of the bound lifted to vec
    # coordinates, tr(M_S^T CRB M_S): the raw ovecs trace counts each
    # off-diagonal once and drops v11, so it is not basis-covariant.
    rng = np.random.default_rng(31)
    for scale in (NORMALIZED_TRACE, DET_ROOT):
        v = random_shape(rng, 3, scale)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v_rot = decompose(scale, q @ v @ q.T).v

        def lifted_trace(vv):
            ms = dense.m_matrix(scale, vv)
            return np.trace(ms.T @ crb_shape(scale, vv, student_t(6)) @ ms)

        assert lifted_trace(v) == pytest.approx(lifted_trace(v_rot), rel=1e-10)


# ---------------------------------------------------------------------------
# scale bound
# ---------------------------------------------------------------------------


def test_crb_scale_gaussian_det_m2_identity_sigma():
    sb = crb_scale(DET_ROOT, np.eye(2), 1.0, gaussian())
    assert sb.value == pytest.approx(1.0, rel=1e-12)
    assert crb_scale_det_root(np.eye(2), gaussian()) == pytest.approx(1.0, rel=1e-12)


def test_crb_scale_psi_vanishes_only_for_det():
    rng = np.random.default_rng(37)
    gen = student_t(6)
    for scale in ALL_SCALES:
        v = random_shape(rng, 4, scale)
        sb = crb_scale(scale, v, 1.8, gen)
        if scale is DET_ROOT:
            assert np.linalg.norm(sb.psi) < 1e-12
        else:
            assert np.linalg.norm(sb.psi) > 1e-6


def test_crb_scale_det_closed_form_matches_general():
    rng = np.random.default_rng(41)
    gen = student_t(8)
    v = random_shape(rng, 3, DET_ROOT)
    s = 2.6
    sb = crb_scale(DET_ROOT, v, s, gen)
    closed = crb_scale_det_root(s * v, gen)
    assert sb.value == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
@pytest.mark.parametrize("gen", GEN_GRID, ids=str)
def test_assembled_bounds_invert_assembled_fim(scale, gen):
    rng = np.random.default_rng(43)
    m = 3
    v = random_shape(rng, m, scale)
    s = 1.45
    fim_vs = fim_eta(v, s, scale, gen).full()[m:, m:]
    nh = vecs_len(m)
    sb = crb_scale(scale, v, s, gen)
    crb_vs = np.zeros((nh, nh))
    crb_vs[: nh - 1, : nh - 1] = crb_shape(scale, v, gen)
    crb_vs[: nh - 1, -1] = sb.psi
    crb_vs[-1, : nh - 1] = sb.psi
    crb_vs[-1, -1] = sb.value
    err = np.linalg.norm(crb_vs @ fim_vs - np.eye(nh)) / np.sqrt(nh)
    assert err < 1e-8


# ---------------------------------------------------------------------------
# scatter bound
# ---------------------------------------------------------------------------


def test_crb_vecs_sigma_gaussian_identity():
    from ellipfim.matcalc import dup_pinv

    m = 2
    dpi = dup_pinv(m)
    np.testing.assert_allclose(
        crb_vecs_sigma(np.eye(m), gaussian()), 2.0 * dpi @ dpi.T, atol=1e-12
    )


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("gen", [student_t(8), gaussian(), generalized_gaussian(0.5)], ids=str)
def test_crb_vecs_sigma_inverts_fim(m, gen):
    rng = np.random.default_rng(m + 5)
    a = rng.standard_normal((m, m))
    sigma = a @ a.T + m * np.eye(m)
    prod = crb_vecs_sigma(sigma, gen) @ fim_vecs_sigma(sigma, gen)
    err = np.linalg.norm(prod - np.eye(prod.shape[0])) / np.sqrt(prod.shape[0])
    assert err < 1e-8


def test_crb_vecs_sigma_symmetric_pd_many_trials():
    rng = np.random.default_rng(59)
    gen = student_t(6)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        out = crb_vecs_sigma(sigma, gen)
        np.testing.assert_allclose(out, out.T, atol=1e-12)
        assert np.linalg.eigvalsh(out).min() > 0


def test_singular_alpha_rejected():
    class FakeGen(type(gaussian())):
        def alpha(self, m):
            return m / (m + 2)

    with pytest.raises(SingularCoefficientError):
        crb_vecs_sigma(np.eye(3), FakeGen())


@pytest.mark.parametrize("m", [4, 16, 32])
@pytest.mark.parametrize(
    "gen", [student_t(2.001), student_t(3.0), student_t(6.0), generalized_gaussian(0.1)], ids=str
)
def test_rank_one_coefficient_keeps_its_digits_at_heavy_tails(m, gen):
    # (alpha - 1) / ((m + 2) alpha - m) for the double alpha, exactly as a
    # fraction: the denominator nears 0 as alpha nears m / (m + 2), and
    # formed as written it loses 20 eps at t(6), m = 32
    alpha = Fraction(gen.alpha(m))
    want = (alpha - 1) / ((m + 2) * alpha - m)
    got = bounds._rank1_coeff(gen.alpha(m), m)
    assert abs(Fraction(got) - want) <= 2 * np.finfo(float).eps * abs(want)


# ---------------------------------------------------------------------------
# chain verification
# ---------------------------------------------------------------------------


def test_verify_chain_det_scale_closes():
    rng = np.random.default_rng(61)
    v = random_shape(rng, 3, DET_ROOT)
    report = verify_chain(DET_ROOT, v, GEN_GRID, 3)
    assert report.passed
    names = {l.name for l in report.links}
    assert "no_nuisance_bound_equality" in names


@pytest.mark.parametrize("scale", [FIRST_ELEMENT, NORMALIZED_TRACE], ids=lambda s: s.kind)
def test_verify_chain_non_det_strict_gap(scale):
    rng = np.random.default_rng(67)
    v = random_shape(rng, 3, scale)
    report = verify_chain(scale, v, [student_t(6)], 3)
    assert report.passed
    gap_links = [l for l in report.links if l.name == "no_nuisance_bound_strict_gap"]
    assert gap_links and all(l.value > 0 for l in gap_links)


def test_verify_chain_gaussian_trivial():
    report = verify_chain(NORMALIZED_TRACE, np.eye(3), [gaussian()], 3)
    assert report.links[0].passed
    assert "one formula" in report.links[0].note
    assert isinstance(report.format_table(), str)


def random_scatter(m, decades, seed):
    """Eigenvalues 1 and 10^decades and others between them, in a random basis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = 10.0 ** (decades * np.r_[0.0, 1.0, rng.uniform(0.0, 1.0, m - 2)])
    sigma = (q * lam) @ q.T
    return 0.5 * (sigma + sigma.T)


@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.0, max_value=8.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(ALL_SCALES),
    st.sampled_from(GEN_GRID),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bound_set_is_pd_on_random_scatters(m, decades, seed, scale, gen):
    bs = bound_set(scale, random_scatter(m, decades, seed), gen)
    np.linalg.cholesky(bs.crb_shape)
    np.linalg.cholesky(bs.crb_vecs_sigma)
    assert bs.crb_scale > 0


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.0, max_value=8.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_verify_chain_passes_on_random_scatters(m, decades, seed):
    sigma = random_scatter(m, decades, seed)
    gens = [gaussian(), student_t(6), generalized_gaussian(0.5)]
    real = bounds.crb_shape
    for scale in ALL_SCALES:
        v = decompose(scale, sigma).v
        report = verify_chain(scale, v, gens, m)
        assert report.passed, report.format_table()
        status = [l.passed for l in report.links]
        if decades <= 1.0:  # a spread of at most 10 resolves every link
            assert all(status), report.format_table()
        gap = {l.name for l in report.links[1::2]}
        if scale is DET_ROOT:
            assert gap == {"no_nuisance_bound_equality"}
        elif scale is FIRST_ELEMENT or decades >= 1e-3:
            assert gap == {"no_nuisance_bound_strict_gap"}
        # a bound off by a relative 1e-6 fails every resolved link
        with mock.patch.object(bounds, "crb_shape", lambda *a: real(*a) * (1.0 + 1e-6)):
            scaled = verify_chain(scale, v, gens, m)
        assert [l.passed for l in scaled.links] == [None if p is None else False for p in status]


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
def test_verify_chain_matches_the_two_factorization_oracle(m):
    # the one-factorization chain against the route it replaced: the
    # efficient FIM filled on its own, factored, and the bound whitened
    # against it; spreads up to 1e8 take in resolved and unresolved links
    for decades in (0.0, 1.0, 2.0, 4.0, 6.0, 8.0):
        sigma = random_scatter(m, decades, 1000 * m + int(decades))
        for scale in ALL_SCALES:
            v = decompose(scale, sigma).v
            report = verify_chain(scale, v, GEN_GRID, m)
            want = dense.chain_two_factorizations(scale, v, GEN_GRID)
            got = [(l.name, l.passed, l.value) for l in report.links]
            assert [x[:2] for x in got] == [x[:2] for x in want], (decades, scale.kind)
            for (_, _, value), (_, _, oracle), l in zip(got, want, report.links):
                assert math.isfinite(value) == math.isfinite(oracle), (decades, scale.kind)
                if math.isfinite(oracle):
                    assert abs(value - oracle) < l.tol, (decades, scale.kind, value, oracle)


@pytest.mark.parametrize("scale", [FIRST_ELEMENT, NORMALIZED_TRACE], ids=lambda s: s.kind)
def test_verify_chain_reads_inf_where_the_efficient_fim_is_not_pd(scale, monkeypatch):
    # I_Vs scaled up until |R^-T I_Vs| / sqrt(I_s) >= 1: I_V - I_Vs I_Vs^T / I_s
    # is not PD, and the efficient link reads inf, with no NaN, exception or
    # numpy warning; the no-nuisance link does not read I_Vs
    v = random_shape(np.random.default_rng(97), 4, scale)
    real = fim.fim_eta
    want = verify_chain(scale, v, GEN_GRID, 4)
    monkeypatch.setattr(
        fim, "fim_eta", lambda *a: dataclasses.replace(real(*a), i_vs=1e3 * real(*a).i_vs)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_chain(scale, v, GEN_GRID, 4)
    for got, before in zip(report.links, want.links):
        if got.name == "shared_bound_inverts_efficient_fim":
            assert got.value == math.inf and got.passed in (False, None)
        else:
            assert (got.name, got.passed, got.value) == (before.name, before.passed, before.value)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
def test_verify_chain_trace_scale_at_identity_is_an_equality(m):
    # D_S = I / m is proportional to V^-1 at V = I: the gap vector u is
    # rounding, far below the tolerance, so no strict gap is claimed
    report = verify_chain(NORMALIZED_TRACE, np.eye(m), GEN_GRID, m)
    assert all(l.passed is True for l in report.links), report.format_table()
    assert {l.name for l in report.links[1::2]} == {"no_nuisance_bound_equality"}


def test_verify_chain_reports_unresolved_links_instead_of_passing(monkeypatch):
    # cond(V) = 1e8 in a random basis, and [V]_11 = 1e-12 [V]_22 on the trace
    # scale (the ovecs chart solves the tiny [V]_11 from the trace): the
    # tolerance is above sqrt(eps), so no link passes, not even a wrong one
    q, _ = np.linalg.qr(np.random.default_rng(89).standard_normal((4, 4)))
    dense = (q * np.logspace(0, 8, 4)) @ q.T
    cases = [(scale, 0.5 * (dense + dense.T)) for scale in ALL_SCALES]
    cases.append((NORMALIZED_TRACE, np.diag([1e-12, 1.0, 1.0, 1.0])))
    for scale, sigma in cases:
        v = decompose(scale, sigma).v
        report = verify_chain(scale, v, GEN_GRID, 4)
        assert report.passed and all(l.passed is None for l in report.links)
        table = report.format_table()
        assert "[unresolved]" in table and "[pass]" not in table
        real = bounds.crb_shape
        monkeypatch.setattr(bounds, "crb_shape", lambda *a: 2.0 * real(*a))
        assert all(l.passed is None for l in verify_chain(scale, v, GEN_GRID, 4).links)
        monkeypatch.undo()


def _chain_with_bound(monkeypatch, scale, v, corrupt):
    """``verify_chain`` over GEN_GRID with ``crb_shape`` replaced by
    ``corrupt(bound, gen)``; the links that failed, by name."""
    real = bounds.crb_shape
    monkeypatch.setattr(
        bounds, "crb_shape", lambda scale, v, gen: corrupt(real(scale, v, gen), gen)
    )
    report = verify_chain(scale, v, GEN_GRID, v.shape[0])
    monkeypatch.undo()
    assert verify_chain(scale, v, GEN_GRID, v.shape[0]).passed
    return [l.name for l in report.links if not l.passed]


@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_verify_chain_fails_a_scaled_bound(scale, monkeypatch):
    v = random_shape(np.random.default_rng(71), 3, scale)
    failed = _chain_with_bound(monkeypatch, scale, v, lambda bound, gen: bound * (1.0 + 1e-6))
    assert failed.count("shared_bound_inverts_efficient_fim") == len(GEN_GRID)


@pytest.mark.parametrize("scale", [FIRST_ELEMENT, NORMALIZED_TRACE], ids=lambda s: s.kind)
def test_verify_chain_fails_the_scale_known_bound_off_the_det_scale(scale, monkeypatch):
    # CRB(.|s) in place of the shared bound closes the gap the chain requires
    v = random_shape(np.random.default_rng(73), 3, scale)
    failed = _chain_with_bound(
        monkeypatch, scale, v, lambda bound, gen: pd_inverse(fim_eta(v, 1.0, scale, gen).i_v)
    )
    assert failed.count("no_nuisance_bound_strict_gap") == len(GEN_GRID)


def test_verify_chain_fails_a_rank_one_gap_on_the_det_scale(monkeypatch):
    v = random_shape(np.random.default_rng(79), 3, DET_ROOT)
    w = np.random.default_rng(83).standard_normal(vecs_len(3) - 1)
    w /= np.linalg.norm(w)

    def lifted(bound, gen):
        return bound + 1e-8 * np.linalg.norm(bound) * np.outer(w, w)

    failed = _chain_with_bound(monkeypatch, DET_ROOT, v, lifted)
    assert failed.count("no_nuisance_bound_equality") == len(GEN_GRID)


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("scale", ALL_SCALES, ids=lambda s: s.kind)
def test_verify_chain_controls_fail_at_small_eigenvalues(scale, k, monkeypatch):
    # diag(1, 1, 1, 1e-k): cond(V) up to 1e12, yet every link resolves and
    # each negative control above fails its link for every generator
    v = decompose(scale, np.diag([1.0, 1.0, 1.0, 10.0**-k])).v
    assert all(l.passed is True for l in verify_chain(scale, v, GEN_GRID, 4).links)
    # at a scaled eigenvalue spread of 1 the check resolves far finer than 1e-6
    for delta in (1e-6, 1e-12):
        failed = _chain_with_bound(monkeypatch, scale, v, lambda bound, gen: bound * (1.0 + delta))
        assert failed.count("shared_bound_inverts_efficient_fim") == len(GEN_GRID)
    if scale is DET_ROOT:
        w = np.random.default_rng(83).standard_normal(vecs_len(4) - 1)
        w /= np.linalg.norm(w)
        failed = _chain_with_bound(
            monkeypatch, scale, v, lambda bound, gen: bound + 1e-8 * np.linalg.norm(bound) * np.outer(w, w)
        )
        assert failed.count("no_nuisance_bound_equality") == len(GEN_GRID)
    else:
        failed = _chain_with_bound(
            monkeypatch, scale, v, lambda bound, gen: pd_inverse(fim_eta(v, 1.0, scale, gen).i_v)
        )
        assert failed.count("no_nuisance_bound_strict_gap") == len(GEN_GRID)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------


def test_pd_inverse_rejects_asymmetric():
    with pytest.raises(ValueError):
        pd_inverse(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_bound_set_csv_roundtrip(tmp_path):
    sigma = toeplitz(0.8 ** np.arange(4))
    bs = bound_set(NORMALIZED_TRACE, sigma, student_t(6))
    path = tmp_path / "bounds.csv"
    write_bounds_csv(bs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "block,row,col,value"
    # 17 significant digits survive a parse round trip
    import csv

    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    shape_rows = [r for r in rows if r["block"] == "crb_shape"]
    k = bs.crb_shape.shape[0]
    assert len(shape_rows) == k * k
    val = float(shape_rows[0]["value"])
    assert val == pytest.approx(bs.crb_shape[0, 0], rel=1e-15)


def test_bound_set_csv_failed_rewrite_keeps_the_old_file(tmp_path, monkeypatch):
    # the lines go to a temporary file that replaces the old one only once
    # it is whole; a failed write removes it
    sigma = toeplitz(0.8 ** np.arange(4))
    path = tmp_path / "bounds.csv"
    write_bounds_csv(bound_set(NORMALIZED_TRACE, sigma, student_t(6)), path)
    old = path.read_bytes()
    other = bound_set(DET_ROOT, sigma, student_t(3))
    real = bounds._format_g17
    calls = []

    def failing(values):
        calls.append(values.size)
        if len(calls) == 2:  # after the header and the first block
            raise OSError("disk full")
        return real(values)

    monkeypatch.setattr(bounds, "_format_g17", failing)
    with pytest.raises(OSError, match="disk full"):
        write_bounds_csv(other, path)
    assert path.read_bytes() == old
    assert [f.name for f in tmp_path.iterdir()] == ["bounds.csv"]
    monkeypatch.undo()
    write_bounds_csv(other, path)
    fresh = tmp_path / "fresh.csv"
    write_bounds_csv(other, fresh)
    assert path.read_bytes() == fresh.read_bytes() != old
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bounds.csv", "fresh.csv"]


def test_bound_set_csv_failed_rename_keeps_the_new_file(tmp_path, monkeypatch):
    # once the old file is unlinked, a failed rename leaves the whole new
    # file under the temporary name the error gives
    sigma = toeplitz(0.8 ** np.arange(4))
    bset = bound_set(NORMALIZED_TRACE, sigma, student_t(6))
    fresh = tmp_path / "fresh.csv"
    write_bounds_csv(bset, fresh)
    path = tmp_path / "bounds.csv"
    write_bounds_csv(bound_set(DET_ROOT, sigma, student_t(3)), path)

    def failing(src, dst):
        raise OSError(errno.EXDEV, "cross-device link", src, dst)

    monkeypatch.setattr(bounds.os, "replace", failing)
    with pytest.raises(OSError) as info:
        write_bounds_csv(bset, path)
    tmp = Path(info.value.filename)
    assert not path.exists() and tmp.parent == tmp_path
    assert tmp.read_bytes() == fresh.read_bytes()


def test_bound_set_csv_follows_a_symbolic_link(tmp_path):
    sigma = toeplitz(0.8 ** np.arange(4))
    bset = bound_set(NORMALIZED_TRACE, sigma, student_t(6))
    target = tmp_path / "target.csv"
    target.write_bytes(b"old")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_bounds_csv(bset, link)
    fresh = tmp_path / "fresh.csv"
    write_bounds_csv(bset, fresh)
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["fresh.csv", "link.csv", "target.csv"]


def test_bound_set_det_psi_zero_and_psd():
    sigma = toeplitz(0.8 ** np.arange(3)) * 2.0
    bs = bound_set(DET_ROOT, sigma, student_t(8))
    assert np.linalg.norm(bs.psi_cross) < 1e-12
    for mat in (bs.crb_mu, bs.crb_shape, bs.crb_vecs_sigma):
        assert np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() > 0


def test_bound_set_gg_huge_shape_keeps_the_location_bound():
    # beta(4) of gg(1e200) is about 3.3e199, so (s / beta) V is tiny but not 0
    bs = bound_set(NORMALIZED_TRACE, toeplitz(0.8 ** np.arange(4)), generalized_gaussian(1e200))
    assert np.isfinite(bs.crb_mu).all()
    assert np.linalg.eigvalsh(bs.crb_mu).min() > 0


def test_bound_set_rejects_a_scatter_that_is_not_pd():
    with pytest.raises(np.linalg.LinAlgError):
        bound_set(NORMALIZED_TRACE, np.array([[1.0, 2.0], [2.0, 1.0]]), gaussian())
    with pytest.raises(ValueError):
        bound_set(NORMALIZED_TRACE, np.array([[2.0, 1.0], [0.0, 2.0]]), gaussian())
