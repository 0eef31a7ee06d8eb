"""Closed-form parametric CRBs and semiparametric bounds, plus the equality chain.

Every bound here is the inverse of a Fisher information computed in
``fim``; the test suite verifies the inversions numerically.  The
determinant-root scale gets its specialized forms as separate functions
so the general and specialized expressions can be compared directly.

Positive-definite inversions go through Cholesky after a strict symmetry
check: all bound matrices are PD by theory, so a factorization failure is
an upstream bug and should fail loudly.

Memory.  With d = m(m+1)/2, each bound is one d x d array (or one less),
filled a cache-sized row block of the entrywise core at a time by the
fill that also builds the FIMs (:func:`~ellipfim.matcalc._vecs_fill`),
and symmetric to the bit as written.  The ``ellipfim bounds`` command
keeps two of them, ``crb_shape`` and ``crb_vecs_sigma``, and
``verify_chain`` adds at most two (its bound and one FIM, each
overwritten in place), so four d x d arrays are alive at its peak;
``write_bounds_csv`` needs, per block, a 32-bit index and the texts of
the distinct entries, about two d x d arrays' worth.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .generators import DensityGenerator
from .matcalc import _row_slices, _vecs_fill, vecs, vecs_len
from .scale import DET_ROOT, ScaleFunctional, decompose, grad_v11
from . import fim as fim_mod

__all__ = [
    "SingularCoefficientError",
    "pd_inverse",
    "crb_location",
    "crb_shape",
    "crb_shape_det_root",
    "ScaleBound",
    "crb_scale",
    "crb_scale_det_root",
    "crb_vecs_sigma",
    "BoundSet",
    "bound_set",
    "ChainLink",
    "ChainReport",
    "verify_chain",
    "write_bounds_csv",
]


# a link's tolerance is _CHAIN_TOL m (kappa f)^2 (``_chain_tolerance``); one
# above _CHAIN_RESOLUTION cannot confirm half the digits of a bound
_CHAIN_TOL = 16.0 * np.finfo(float).eps
_CHAIN_RESOLUTION = np.sqrt(np.finfo(float).eps)
_CHAIN_NOTES = {
    "shared_bound_inverts_efficient_fim": "one formula realizes SCRB(.|g), SCRB(.|s,g), CRB(.|s,zeta), CRB(.|s)",
    "no_nuisance_bound_equality": "canonical scale: chain extends to the scale-known bound",
    "no_nuisance_bound_strict_gap": "non-canonical scale: scale-known bound sits strictly below (rank-one gap)",
}


class SingularCoefficientError(ValueError):
    """The rank-one correction coefficient is at its singular point."""


def _pd_cholesky(a):
    """Lower Cholesky factor after a strict symmetry check.

    Raises ``ValueError`` for a matrix that is not symmetric to working
    precision and ``LinAlgError`` for one that is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    # relative to the largest entry, so that no norm or sum overflows
    unit = a / max(np.abs(a).max(initial=0.0), np.finfo(float).tiny)
    if np.linalg.norm(unit - unit.T) > 1e-12 * np.linalg.norm(unit):
        raise ValueError("matrix is not symmetric to working precision")
    return linalg.cho_factor(0.5 * a + 0.5 * a.T, lower=True)


def pd_inverse(a):
    """Cholesky inverse of a symmetric positive-definite matrix."""
    cho = _pd_cholesky(a)
    inv = linalg.cho_solve(cho, np.eye(cho[0].shape[0]))
    return 0.5 * (inv + inv.T)


def _rank1_coeff(alpha: float, m: int) -> float:
    den = fim_mod._scale_coef(alpha, m)
    if abs(den) < 1e-12 * m:
        raise SingularCoefficientError(
            "alpha at the singular value m/(m+2); bound undefined"
        )
    return (alpha - 1.0) / den


def crb_location(v, s, gen: DensityGenerator):
    """CRB for the location: (s / beta) V, the inverse of the location FIM."""
    v = np.asarray(v, dtype=float)
    return (s / gen.beta(v.shape[0])) * v


def _require_ovecs(m):
    if m < 2:
        raise ValueError("ovecs requires m >= 2")


def crb_shape(scale: ScaleFunctional, v, gen: DensityGenerator):
    """Parametric-and-semiparametric bound on ovecs(V) with unknown scale.

    In vecs coordinates, with P_S = I - vec(V) vec(D_S)^T, G = D_S and
    N = (I + K_m)(V (x) V): D_m^+ P_S N P_S^T D_m^+T is the core of V minus
    the rank-two term a c^T + c a^T, where a = vecs(V) and
    c = 2 vecs(V G V) - tr(G V G V) a.
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    _require_ovecs(m)
    x, y = _shape_rank_two(scale, v)
    return _vecs_fill(v, x=x, y=y, start=1, coef=1.0 / gen.alpha(m))


def _shape_rank_two(scale: ScaleFunctional, v):
    """x = -a and y = c of ``crb_shape``'s rank-two term x y^T + y x^T,
    free of the generator, which enters the bound only as 1/alpha(m)."""
    g = scale.gradient(v)
    g = 0.5 * (g + g.T)
    vgv = v @ g @ v
    a = vecs(decompose(scale, v).v)
    return -a, 2.0 * vecs(vgv) - np.sum(g * vgv) * a


def crb_shape_det_root(v, gen: DensityGenerator):
    """Determinant-root specialization of the shape bound."""
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    _require_ovecs(m)
    a = vecs(v)
    return _vecs_fill(v, x=-a, y=a / m, start=1, coef=1.0 / gen.alpha(m))


@dataclass(frozen=True)
class ScaleBound:
    value: float
    psi: np.ndarray  # cross block between ovecs(V) and s in the CRB


def crb_scale(scale: ScaleFunctional, v, s, gen: DensityGenerator) -> ScaleBound:
    """CRB on the scale given the shape, with the shape/scale cross block.

    With G = D_S: vec(G)^T (V (x) V) vec(G) = tr(G^T V G V), and the cross
    block is the ovecs part of D_m^+ P_S vec(V G V).
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    _require_ovecs(m)
    alpha = gen.alpha(m)
    quad, proj = _scale_terms(scale, v)
    value = (2.0 * s * s / alpha) * (quad - _rank1_coeff(alpha, m))
    psi = (2.0 * s / alpha) * proj[1:]
    return ScaleBound(value=float(value), psi=psi)


def _scale_terms(scale: ScaleFunctional, v):
    """tr(G V G V) and p = vecs(V G V) - tr(G V G V) vecs(V), with G = D_S:
    the parts of ``crb_scale`` free of s and of the generator."""
    g = scale.gradient(v)
    vgv = v @ g @ v
    quad = float(np.sum(g * vgv))
    return quad, vecs(0.5 * (vgv + vgv.T)) - quad * vecs(decompose(scale, v).v)


def _scale_known_gap(scale: ScaleFunctional, v, gen: DensityGenerator, terms=None):
    """u with SCRB - CRB(.|s) = u u^T: by the block inverse of the (ovecs V, s)
    FIM, u = psi / sqrt(c) with c and psi of ``crb_scale``, free of s.  It is
    0 on the det-root scale, where G = V^-1 / m makes p = 0.  ``terms`` is
    ``_scale_terms(scale, v)``, computed here when not given."""
    m = v.shape[0]
    alpha = gen.alpha(m)
    if scale is DET_ROOT:
        return np.zeros(vecs_len(m) - 1)
    quad, p = _scale_terms(scale, v) if terms is None else terms
    return p[1:] * np.sqrt(2.0 / (alpha * (quad - _rank1_coeff(alpha, m))))


def crb_scale_det_root(sigma, gen: DensityGenerator) -> float:
    """Closed form 4 |Sigma|^(2/m) / (m (m (alpha - 1) + 2 alpha))."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    alpha = gen.alpha(m)
    det_pow = float(np.exp(2.0 * np.linalg.slogdet(sigma)[1] / m))
    return 4.0 * det_pow / (m * fim_mod._scale_coef(alpha, m))


def crb_vecs_sigma(sigma, gen: DensityGenerator):
    """CRB on vecs(Sigma) in the scatter parameterization."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    alpha = gen.alpha(m)
    a = vecs(sigma)
    return _vecs_fill(sigma, x=-a, y=_rank1_coeff(alpha, m) * a, coef=1.0 / alpha)


@dataclass
class BoundSet:
    """All bound blocks for one (scale, generator, Sigma) model."""

    crb_mu: np.ndarray
    crb_shape: np.ndarray
    crb_scale: float
    psi_cross: np.ndarray
    crb_vecs_sigma: np.ndarray
    scale_kind: str
    generator: str
    m: int
    s: float

    def blocks(self):
        return {
            "crb_mu": self.crb_mu,
            "crb_shape": self.crb_shape,
            "crb_scale": np.array([[self.crb_scale]]),
            "psi_cross": self.psi_cross.reshape(-1, 1),
            "crb_vecs_sigma": self.crb_vecs_sigma,
        }


# the scale and the scatter bound grow as Sigma (x) Sigma: an overflow is
# reported once, not as numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def bound_set(scale: ScaleFunctional, sigma, gen: DensityGenerator) -> BoundSet:
    """Every bound block for one model.

    Raises ``ValueError`` when Sigma is not symmetric or a bound is beyond
    the float range, and ``LinAlgError`` when Sigma is not positive definite.
    """
    sigma = np.asarray(sigma, dtype=float)
    # the structured forms invert nothing, so a bad scatter is caught here
    try:
        _pd_cholesky(sigma)
    except linalg.LinAlgError as exc:
        raise linalg.LinAlgError(f"scatter is not positive definite: {exc}") from exc
    dec = decompose(scale, sigma)
    sb = crb_scale(scale, dec.v, dec.s, gen)
    out = BoundSet(
        crb_mu=crb_location(dec.v, dec.s, gen),
        crb_shape=crb_shape(scale, dec.v, gen),
        crb_scale=sb.value,
        psi_cross=sb.psi,
        crb_vecs_sigma=crb_vecs_sigma(sigma, gen),
        scale_kind=scale.kind,
        generator=gen.name,
        m=sigma.shape[0],
        s=dec.s,
    )
    if not all(np.isfinite(b).all() for b in out.blocks().values()):
        raise ValueError("a bound of this scatter is beyond the float range")
    return out


# ---------------------------------------------------------------------------
# the equality chain
# ---------------------------------------------------------------------------


@dataclass
class ChainLink:
    name: str
    generator: str
    passed: bool | None  # None: float precision cannot resolve the link
    value: float
    note: str
    tol: float  # the bound on the link's residual (``_chain_tolerance``)


@dataclass
class ChainReport:
    scale_kind: str
    links: list

    @property
    def passed(self) -> bool:
        """No link failed; an unresolved link is reported, not failed."""
        return all(link.passed is not False for link in self.links)

    def format_table(self) -> str:
        width = max(len(l.name) for l in self.links) + 2
        lines = [f"equality chain for scale '{self.scale_kind}'"]
        for l in self.links:
            status = {True: "[pass]", False: "[FAIL]", None: "[unresolved]"}[l.passed]
            lines.append(
                f"  {status:<12} {l.name:<{width}} gen={l.generator:<10} "
                f"value={l.value:.3e}  {l.note}"
            )
        return "\n".join(lines)


def _chain_tolerance(scale: ScaleFunctional, v):
    """16 m eps (kappa f)^2, the rounding a link's residual can carry.

    kappa is cond_2 of V scaled to a unit diagonal and f (at least 1) the
    largest entry of grad_v11, the ovecs chart's gradient of [V]_11, in
    those units.  The form is fitted: over about 13,000 scatters (m 2 to
    32, scaled eigenvalue spreads up to 1e8, the three scales, five
    generators) the largest resolved residual was 4.3 m eps (kappa f)^2,
    with both links read from one factor of I_V as with the efficient
    FIM factored on its own.
    """
    d = np.sqrt(np.diag(v))
    kappa = np.linalg.cond(v / np.outer(d, d))
    f = max(1.0, np.abs(grad_v11(scale, v) * vecs(np.outer(d, d))[1:]).max() / v[0, 0])
    return _CHAIN_TOL * v.shape[0] * (kappa * f) ** 2


def _chain_residuals(x, a, u, g):
    """The residuals of the efficient and the no-nuisance link, in that
    order, from one Cholesky factor.

    X is the no-nuisance bound (the shared bound less u u^T), A = I_V =
    R^T R the scale-known FIM and g = I_Vs / sqrt(I_s).  A is factored in
    place and N = R X R^T - I is formed in X's memory (A^T = A and X^T = X
    are Fortran-ordered); ||N||_F is the no-nuisance residual.

    The efficient FIM I_V - g g^T is R^T (I - h h^T) R with h = R^-T g.
    Its root in R's frame is S = I - b h h^T, b = 1 / (1 + sqrt(1 - |h|^2)),
    which stays accurate as |h| -> 0 (the det-root scale), and with
    R (X + u u^T) R^T = N + I + w w^T, w = R u, the efficient residual is
    ||S N S + z z^T - h h^T||_F, z = S w.  For a true chain z = +-h, so
    z z^T - h h^T is formed as sym((z - h)(z + h)^T), z's sign matched to
    h's, and S N S - N as sym(h c^T): N is updated by small rank-two
    terms, a row block at a time, and no large term cancels.

    Each residual depends only on the eigenvalues of X times its FIM, not
    on the chart.  A FIM that is not PD to working precision (A's
    Cholesky fails, |h| >= 1, or a term is not finite) reads inf.
    """
    try:
        r = linalg.cholesky(a.T, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError:
        return np.inf, np.inf
    y = blas.dtrmm(1.0, r, x.T, overwrite_b=True)
    y = blas.dtrmm(1.0, r, y, side=1, trans_a=1, overwrite_b=True)
    y[np.diag_indices_from(y)] -= 1.0
    no_nuisance = float(np.linalg.norm(y))
    h = linalg.solve_triangular(r, g, trans="T", check_finite=False)
    t = float(h @ h)
    if not t < 1.0:
        return np.inf, no_nuisance
    b = 1.0 / (1.0 + np.sqrt(1.0 - t))
    z = r @ u
    z -= b * (h @ z) * h
    if h @ z < 0.0:
        z = -z
    # S N S - N = h c^T + c h^T, N h computed over the rows of N^T = X
    n = y.T
    q = n @ h
    c = 0.5 * b * b * (h @ q) * h - b * q
    z_minus, z_plus = z - h, 0.5 * (z + h)
    for p in _row_slices(len(h), len(h)):
        blk = h[p, None] * c
        blk += c[p, None] * h
        blk += z_minus[p, None] * z_plus
        blk += z_plus[p, None] * z_minus
        n[p] += blk
    efficient = float(np.linalg.norm(n))
    return (efficient if np.isfinite(efficient) else np.inf), no_nuisance


def _require_finite(fim, gen: DensityGenerator):
    if not np.isfinite(fim).all():
        raise ValueError(
            f"the shape FIM under {gen.name} is not finite: V^-1 (x) V^-1 overflows"
        )


# the FIMs grow as V^-1 (x) V^-1: a non-finite I_V raises
@np.errstate(over="ignore", invalid="ignore")
def verify_chain(
    scale: ScaleFunctional, v, gens: Sequence[DensityGenerator], m: int
) -> ChainReport:
    """Check the semiparametric/parametric bound equalities on the shape.

    The bounds with scale unknown (generator fully unknown, functionally
    unknown, known up to parameters, or fully known) all equal the single
    closed form by construction, so their shared numeric content is that
    this one formula inverts the one efficient FIM.  The no-nuisance
    parametric bound is that closed form minus u u^T (``_scale_known_gap``)
    and must invert the scale-known FIM.  Each link's value is the whitened
    residual of its bound against its FIM, and it passes below the
    tolerance of ``_chain_tolerance``.  The gap is strict where u^T I_V u,
    the one eigenvalue of the gap relative to the scale-known bound, is
    above that tolerance or sqrt(eps); it is 0 on the det-root scale.
    Where the tolerance exceeds sqrt(eps) every link is reported
    unresolved: float precision cannot tell a right bound from one wrong
    in half its digits.

    The efficient FIM is the Schur complement of the (shape, scale) block
    of ``fim_eta``, I_V - I_Vs I_Vs^T / I_s, so one ``fim_eta`` per
    generator serves both links: I_V is factored once, the no-nuisance
    bound is whitened against it in place, and the efficient link is read
    from that whitened bound through the rank-one projection of the scale
    (``_chain_residuals``).  At most two (m(m+1)/2 - 1)-square arrays are
    alive: the bound and I_V, each overwritten in place.
    """
    v = np.asarray(v, dtype=float)
    tol = _chain_tolerance(scale, v)
    resolved = tol < _CHAIN_RESOLUTION
    links = []

    def link(name, gen, err, value):
        note = _CHAIN_NOTES[name] if resolved else "float precision cannot resolve this link"
        passed = bool(err < tol) if resolved else None
        return ChainLink(name, gen.name, passed, value, f"{note} (tol {tol:.1e})", tol)

    for gen in gens:
        bound = crb_shape(scale, v, gen)
        eta = fim_mod.fim_eta(v, 1.0, scale, gen)
        _require_finite(eta.i_v, gen)
        u = _scale_known_gap(scale, v, gen)
        gap = float(u @ eta.i_v @ u)
        # the no-nuisance bound, bound - u u^T, in place
        for p in _row_slices(len(u), len(u)):
            bound[p] -= u[p, None] * u
        efficient, err = _chain_residuals(bound, eta.i_v, u, eta.i_vs / np.sqrt(eta.i_s))
        del bound, eta
        links.append(link("shared_bound_inverts_efficient_fim", gen, efficient, efficient))
        if gap > min(tol, _CHAIN_RESOLUTION):
            links.append(link("no_nuisance_bound_strict_gap", gen, err, gap))
        else:
            links.append(link("no_nuisance_bound_equality", gen, err, err))
    return ChainReport(scale_kind=scale.kind, links=links)


# the longest %.17g text of a double, as in "-1.2345678901234567e-308"
_VALUE_WIDTH = 24
_FORMAT_SLICE = 1 << 12  # distinct values formatted per _format_g17 call

# _format_g17 lays out |v| in [1e-16, 1e16) itself; there the leading digit
# is at 10**x, x in _G17_EXPONENTS (the double 1e-16 is 9.99...98e-17), and
# v 10**j, j = 16 - x, needs 10**j for j in [0, 33]
_G17_RANGE = (1e-16, 1e16)
_G17_EXPONENTS = range(-17, 16)
# 10**j is a double up to here, so the product is exact; beyond it, a value
# this close to half a unit of the 17th digit is left to %
_G17_EXACT_J = 22
_G17_HALF_MARGIN = 1e-12
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
# below this many values the kernel's fixed cost, about sixty numpy calls,
# is more than % takes
_G17_MIN_VALUES = 256
# each value's source row: its 17 digits, then these bytes
_G17_SOURCE = b"-.e 0123456789"
_G17_ROW = 17 + len(_G17_SOURCE)


def _g17_layout(negative, x, s):
    """Source-row positions of the %-24.17g text of a value with sign
    ``negative``, leading digit at 10**x and ``s`` significant digits.

    %g writes x in [-4, 17) positionally and every other x as d.ddde-XX;
    trailing zeros go, and so does a point with nothing after it.
    """
    minus, point, e, space, zero = range(17, 22)
    out = [minus] if negative else []
    if x >= 0:
        out += range(x + 1)
        if s > x + 1:
            out += [point, *range(x + 1, s)]
    elif x >= -4:
        out += [zero, point, *[zero] * (-x - 1), *range(s)]
    else:
        out += [0, *([point, *range(1, s)] if s > 1 else []), e, minus]
        out += [zero + (-x) // 10, zero + (-x) % 10]
    return out + [space] * (_VALUE_WIDTH - len(out))


@functools.lru_cache(maxsize=1)
def _g17_tables():
    """10**j, j = 0..33, as a double ``hi`` plus the double nearest the
    rest, and ``hi`` split in halves of 26 bits; the ASCII digits of each
    number below 10**4, four bytes in one uint32; and the source positions
    of every (sign, exponent, significant digits) layout."""
    exact = [10**j for j in range(17 - _G17_EXPONENTS.start)]
    hi = np.array([float(p) for p in exact])
    lo = np.array([float(p - int(h)) for p, h in zip(exact, hi)])
    hi_hi = hi * _SPLIT
    hi_hi -= hi_hi - hi
    quads = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    layouts = [
        _g17_layout(negative, x, s)
        for negative in (False, True)
        for x in _G17_EXPONENTS
        for s in range(1, 18)
    ]
    return (
        hi, lo, hi_hi, hi - hi_hi,
        quads.astype(np.uint8).view(np.uint32).ravel(),
        np.array(layouts, dtype=np.intp),
    )


def _scaled(a, j):
    """a 10**j as p + e, p = fl(a hi): Dekker's exact product of a and hi
    plus a times the rest of 10**j."""
    hi, lo, hi_hi, hi_lo = _g17_tables()[:4]
    p = a * hi[j]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    e = a_hi * hi_hi[j]
    e -= p
    e += a_hi * hi_lo[j]
    e += a_lo * hi_hi[j]
    e += a_lo * hi_lo[j]
    e += a * lo[j]
    return p, e


def _decade_step(p, e):
    """+1 where p + e < 10**16, -1 where p + e >= 10**17, else 0, exactly."""
    below = (p < 1e16) | ((p == 1e16) & (e < 0))
    above = (p > 1e17) | ((p == 1e17) & (e >= 0))
    return below.astype(np.intp) - above


def _percent_g17(values):
    """The (N, 24) bytes of ``"%-24.17g" % v``, by CPython's %."""
    text = (f"%-{_VALUE_WIDTH}.17g" * len(values)) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, _VALUE_WIDTH)


def _format_g17(values):
    """The (N, 24) bytes of ``"%-24.17g" % v`` for each v of a float64 vector.

    For |v| in [1e-16, 1e16) the 17 digits are round-half-even(|v| 10**j),
    j = 16 - x for the leading digit's 10**x, and are laid out by the
    template of (sign, x, significant digits); every other value, one too
    near a half to round, and a vector of fewer than _G17_MIN_VALUES take %.
    """
    v = np.asarray(values, dtype=float)
    size = len(v)
    if size < _G17_MIN_VALUES:
        return _percent_g17(v)
    *_, quads, layouts = _g17_tables()
    a = np.abs(v)
    with np.errstate(invalid="ignore"):
        fast = (a >= _G17_RANGE[0]) & (a < _G17_RANGE[1])
    a[~fast] = 1.0
    j = 16 - np.floor(np.log10(a)).astype(np.intp)
    p, e = _scaled(a, j)
    # log10 can miss the decade next to a power of ten: move j until
    # 10**16 <= a 10**j < 10**17
    step = _decade_step(p, e)
    redo = np.flatnonzero(step)
    while redo.size:
        j[redo] += step[redo]
        p[redo], e[redo] = _scaled(a[redo], j[redo])
        step = _decade_step(p[redo], e[redo])
        redo, step = redo[step != 0], step[step != 0]
    # p >= 10**16 > 2**53 is an integer: round p + e half to even
    whole = np.floor(e)
    e -= whole
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    n += (e > 0.5) | ((e == 0.5) & (n & 1).astype(bool))
    fast &= (j <= _G17_EXACT_J) | (np.abs(e - 0.5) >= _G17_HALF_MARGIN)
    carry = n == 10**17
    n[carry] = 10**16
    x = 16 - j + carry
    # the digits: the leading one, then four groups of four
    lead = n // 10**16
    n -= lead * 10**16
    high = n // 10**8
    low = n - high * 10**8
    groups = np.stack([high // 10**4, high, low // 10**4, low], axis=1)
    groups[:, 1] -= groups[:, 0] * 10**4
    groups[:, 3] -= groups[:, 2] * 10**4
    source = np.empty((size, _G17_ROW), dtype=np.uint8)
    source[:, 0] = lead + ord("0")
    source[:, 1:17].view(np.uint32)[:] = quads[groups]
    source[:, 17:] = np.frombuffer(_G17_SOURCE, dtype=np.uint8)
    # significant digits: 17, or up to the last nonzero one
    digits = np.full(size, 17, dtype=np.intp)
    tail = np.flatnonzero(source[:, 16] == ord("0"))
    nonzero = source[tail, 1:17] != ord("0")
    digits[tail] = 1 + (16 - nonzero[:, ::-1].argmax(axis=1)) * nonzero.any(axis=1)
    key = np.signbit(v) * len(_G17_EXPONENTS) + (x - _G17_EXPONENTS.start)
    key *= 17
    key += digits - 1
    index = np.take(layouts, key, axis=0)
    index += np.arange(0, size * _G17_ROW, _G17_ROW)[:, None]
    out = np.take(source.reshape(-1), index)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _percent_g17(v[slow])
    return out


def _distinct_bits(mat):
    """The sorted distinct bit patterns of ``mat`` and, per entry, its index.

    Bit patterns, not values, keep 0.0 and -0.0 apart.  A bitwise-symmetric
    block, such as ``crb_shape`` or ``crb_vecs_sigma`` (formed as x + x^T),
    sorts only its upper triangle.  The indices are 32-bit wherever they
    fit, and each temporary is dropped as soon as the next is formed.
    """
    bits = mat.view(np.uint64)
    upper = None
    if mat.shape[0] == mat.shape[1] and np.array_equal(bits, bits.T):
        upper = np.triu(np.ones(mat.shape, dtype=bool))
    vals = bits.reshape(-1) if upper is None else bits[upper]
    order = vals.argsort()
    vals = vals[order]
    first = np.empty(vals.size, dtype=bool)
    first[0] = True
    np.not_equal(vals[1:], vals[:-1], out=first[1:])
    distinct = vals[first]
    del vals
    index = np.int32 if first.size < 2**31 else np.intp
    rank = np.cumsum(first, dtype=index)
    rank -= 1
    inverse = np.empty(rank.size, dtype=index)
    inverse[order] = rank
    del order, rank
    if upper is None:
        return distinct, inverse.reshape(mat.shape)
    where = np.empty(mat.shape, dtype=index)
    where[upper] = inverse
    where.T[upper] = inverse
    return distinct, where


def write_bounds_csv(bounds: BoundSet, path):
    """Serialize all bound blocks row-major at 17 significant digits.

    Lines read ``block,row,col,value`` and end in a newline on every
    platform.  Each block formats every distinct bit pattern once, a fixed
    slice at a time, into a space-padded field of the widest %.17g text.
    ``_format_g17`` writes the text of a finite |v| in [1e-16, 1e16)
    itself, byte for byte that of %.17g: |v| 10**j lies in [10**16, 10**17)
    as p + e, Dekker's exact product of |v| and the double nearest 10**j
    plus |v| times the rest, and its 17 digits are p + e rounded half to even.
    For j <= 22, 10**j is a double, so p + e is |v| 10**j exactly and the
    rounding is exact.  Beyond it p + e is off by less than 1e-14, so only
    a value within 1e-12 of a half can round the wrong way, and that value,
    like zero, a subnormal, a non-finite value or one outside the range,
    takes CPython's %; so does every value of a slice too short to repay
    the kernel's fixed cost.
    The file is then streamed in row chunks of ``matcalc._row_slices``,
    each at most its block of doubles in bytes (a quarter mebibyte), built
    in one buffer per block: each line is laid out in fixed-width fields
    (row prefix, column, value, newline), the column and newline fields
    written once, and since no field's text holds a space, dropping every
    space byte leaves the lines.  Besides the block, the largest arrays
    alive are the 32-bit index of each entry's text and the texts (about
    4 and 12 bytes per entry of a symmetric block).
    The lines go to a temporary file beside ``path``, which takes the
    name once the old file is unlinked: rewriting a large file in place
    costs its truncation, and a failed write leaves the old file as it
    was and no temporary file.  Between the unlink and the rename no file
    is at ``path`` (an in-place rewrite shows a partial one instead); if
    the rename fails there, the temporary file, whole, is kept and named
    in the error.  A symbolic link at ``path`` is followed, so the link
    stays and its target is replaced.  The new file takes the default
    mode, and a hard link to the old file keeps the old bytes.
    """
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            _write_lines(bounds, fh)
        # ext4 starts writing a file out when it is renamed over an old one
        # or truncated: about 24 and 13 ms for a 22 MB CSV, against 8 ms
        # for a rename onto a free name after an unlink
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _write_lines(bounds: BoundSet, fh):
    """The lines of ``write_bounds_csv``, written to the binary file ``fh``."""
    fh.write(b"block,row,col,value\n")
    for name, mat in bounds.blocks().items():
        mat = np.ascontiguousarray(np.atleast_2d(mat), dtype=float)
        if not mat.size:
            continue
        nrow, ncol = mat.shape
        distinct, where = _distinct_bits(mat)
        text = np.empty((distinct.size, _VALUE_WIDTH), dtype=np.uint8)
        for k in range(0, distinct.size, _FORMAT_SLICE):
            text[k : k + _FORMAT_SLICE] = _format_g17(distinct[k : k + _FORMAT_SLICE].view(float))
        del distinct
        values = text.view(f"V{_VALUE_WIDTH}").reshape(-1)
        wr, wc = len(f"{name},{nrow - 1},"), len(f"{ncol - 1},")
        rows = np.array([f"{name},{i},".ljust(wr) for i in range(nrow)], dtype=f"S{wr}")
        cols = np.array([f"{j},".ljust(wc) for j in range(ncol)], dtype=f"S{wc}")
        line = np.dtype([("row", rows.dtype), ("col", cols.dtype), ("value", values.dtype), ("end", "S1")])
        # a row of lines is ncol * line.itemsize bytes, in doubles rounded up
        chunks = list(_row_slices(nrow, -(-ncol * line.itemsize // 8)))
        step = chunks[0].stop
        buffer = bytearray(step * ncol * line.itemsize)
        lines = np.frombuffer(buffer, dtype=line).reshape(step, ncol)
        lines["col"] = cols
        lines["end"] = b"\n"
        for p in chunks:
            k = p.stop - p.start
            lines["row"][:k] = rows[p, None]
            lines["value"][:k] = values[where[p]]
            chunk = buffer if k == step else buffer[: k * ncol * line.itemsize]
            fh.write(chunk.translate(None, b" "))
