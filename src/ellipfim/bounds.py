"""Closed-form parametric CRBs and semiparametric bounds, plus the equality chain.

Every bound here is the inverse of a Fisher information computed in
``fim``; the test suite verifies the inversions numerically.  The
determinant-root scale gets its specialized forms as separate functions
so the general and specialized expressions can be compared directly.

Positive-definite inversions go through Cholesky after a strict symmetry
check: all bound matrices are PD by theory, so a factorization failure is
an upstream bug and should fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg

from .generators import DensityGenerator
from .matcalc import _sym_kron_core, vecs
from .scale import DET_ROOT, ScaleFunctional, decompose
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


class SingularCoefficientError(ValueError):
    """The rank-one correction coefficient is at its singular point."""


def _pd_cholesky(a):
    """Lower Cholesky factor after a strict symmetry check.

    Raises ``ValueError`` for a matrix that is not symmetric to working
    precision and ``LinAlgError`` for one that is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a)
    if norm > 0 and np.linalg.norm(a - a.T) / norm > 1e-12:
        raise ValueError("matrix is not symmetric to working precision")
    return linalg.cho_factor(0.5 * (a + a.T), lower=True)


def pd_inverse(a):
    """Cholesky inverse of a symmetric positive-definite matrix."""
    cho = _pd_cholesky(a)
    inv = linalg.cho_solve(cho, np.eye(cho[0].shape[0]))
    return 0.5 * (inv + inv.T)


def _rank1_coeff(alpha: float, m: int) -> float:
    den = (m + 2) * alpha - m
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


def _core_minus_rank2(a, x, y):
    """D_m^+ (I + K_m)(A (x) A) D_m^+T - x y^T - y x^T."""
    out = _sym_kron_core(a)
    rank1 = np.outer(x, y)
    out -= rank1
    out -= rank1.T
    return out


def _symmetric_bound(x, alpha):
    out = x + x.T
    out *= 0.5 / alpha
    return out


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
    g = scale.gradient(v)
    g = 0.5 * (g + g.T)
    vgv = v @ g @ v
    a = vecs(decompose(scale, v).v)
    c = 2.0 * vecs(vgv) - np.sum(g * vgv) * a
    return _symmetric_bound(_core_minus_rank2(v, a, c)[1:, 1:], gen.alpha(m))


def crb_shape_det_root(v, gen: DensityGenerator):
    """Determinant-root specialization of the shape bound."""
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    _require_ovecs(m)
    a = vecs(v)
    return _symmetric_bound(_core_minus_rank2(v, a, a / m)[1:, 1:], gen.alpha(m))


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
    g = scale.gradient(v)
    vgv = v @ g @ v
    quad = float(np.sum(g * vgv))
    value = (2.0 * s * s / alpha) * (quad - _rank1_coeff(alpha, m))
    proj = vecs(0.5 * (vgv + vgv.T)) - quad * vecs(decompose(scale, v).v)
    psi = (2.0 * s / alpha) * proj[1:]
    return ScaleBound(value=float(value), psi=psi)


def crb_scale_det_root(sigma, gen: DensityGenerator) -> float:
    """Closed form 4 |Sigma|^(2/m) / (m (m (alpha - 1) + 2 alpha))."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    alpha = gen.alpha(m)
    det_pow = float(np.exp(2.0 * np.linalg.slogdet(sigma)[1] / m))
    return 4.0 * det_pow / (m * (m * (alpha - 1.0) + 2.0 * alpha))


def crb_vecs_sigma(sigma, gen: DensityGenerator):
    """CRB on vecs(Sigma) in the scatter parameterization."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    alpha = gen.alpha(m)
    a = vecs(sigma)
    return _symmetric_bound(_core_minus_rank2(sigma, a, _rank1_coeff(alpha, m) * a), alpha)


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


def bound_set(scale: ScaleFunctional, sigma, gen: DensityGenerator) -> BoundSet:
    """Every bound block for one model.

    Raises ``ValueError`` when Sigma is not symmetric and ``LinAlgError``
    when it is not positive definite.
    """
    sigma = np.asarray(sigma, dtype=float)
    # the structured forms invert nothing, so a bad scatter is caught here
    try:
        _pd_cholesky(sigma)
    except linalg.LinAlgError as exc:
        raise linalg.LinAlgError(f"scatter is not positive definite: {exc}") from exc
    dec = decompose(scale, sigma)
    sb = crb_scale(scale, dec.v, dec.s, gen)
    return BoundSet(
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


# ---------------------------------------------------------------------------
# the equality chain
# ---------------------------------------------------------------------------


@dataclass
class ChainLink:
    name: str
    generator: str
    passed: bool
    value: float
    note: str


@dataclass
class ChainReport:
    scale_kind: str
    links: list

    @property
    def passed(self) -> bool:
        return all(link.passed for link in self.links)

    def format_table(self) -> str:
        width = max(len(l.name) for l in self.links) + 2
        lines = [f"equality chain for scale '{self.scale_kind}'"]
        for l in self.links:
            status = "pass" if l.passed else "FAIL"
            lines.append(
                f"  [{status}] {l.name:<{width}} gen={l.generator:<10} "
                f"value={l.value:.3e}  {l.note}"
            )
        return "\n".join(lines)


# the FIMs grow as V^-1 (x) V^-1: a non-finite one raises, and an overflowed
# norm fails its link
@np.errstate(over="ignore", invalid="ignore")
def verify_chain(
    scale: ScaleFunctional, v, gens: Sequence[DensityGenerator], m: int
) -> ChainReport:
    """Check the semiparametric/parametric bound equalities on the shape.

    The bounds with scale unknown (generator fully unknown, functionally
    unknown, known up to parameters, or fully known) all equal the single
    closed form by construction, so their shared numeric content is that
    this one formula inverts the one efficient FIM.  The final link, the
    no-nuisance parametric bound, joins the chain exactly for the
    determinant-root scale and sits strictly below it otherwise.
    """
    v = np.asarray(v, dtype=float)
    links = []
    for gen in gens:
        bound = crb_shape(scale, v, gen)
        eff = fim_mod.efficient_fim_shape(v, scale, gen)
        i_v = fim_mod.fim_eta(v, 1.0, scale, gen).i_v
        if not (np.isfinite(eff).all() and np.isfinite(i_v).all()):
            raise ValueError(
                f"the shape FIM under {gen.name} is not finite: V^-1 (x) V^-1 overflows"
            )
        err = np.linalg.norm(bound @ eff - np.eye(bound.shape[0])) / np.sqrt(
            bound.shape[0]
        )
        links.append(
            ChainLink(
                name="shared_bound_inverts_efficient_fim",
                generator=gen.name,
                passed=bool(err < 1e-8),
                value=float(err),
                note="one formula realizes SCRB(.|g), SCRB(.|s,g), CRB(.|s,zeta), CRB(.|s)",
            )
        )
        no_nuisance = pd_inverse(i_v)
        diff = bound - no_nuisance
        rel = np.linalg.norm(diff) / max(np.linalg.norm(bound), 1e-300)
        if scale is DET_ROOT:
            links.append(
                ChainLink(
                    name="no_nuisance_bound_equality",
                    generator=gen.name,
                    passed=bool(rel < 1e-10),
                    value=float(rel),
                    note="det-root scale: chain extends to the scale-known bound",
                )
            )
        else:
            # the gap is rank one: PSD with a single positive eigenvalue,
            # so "strictly below in Loewner order" means PSD and nonzero
            eigs = np.linalg.eigvalsh(0.5 * (diff + diff.T))
            psd = bool(eigs[0] > -1e-10 * max(eigs[-1], 1.0))
            links.append(
                ChainLink(
                    name="no_nuisance_bound_strict_gap",
                    generator=gen.name,
                    passed=bool(psd and eigs[-1] > 0.0 and rel > 1e-10),
                    value=float(eigs[-1]),
                    note="non-canonical scale: scale-known bound sits strictly below (rank-one gap)",
                )
            )
    return ChainReport(scale_kind=scale.kind, links=links)


# the longest %.17g text of a double, as in "-1.2345678901234567e-308"
_VALUE_WIDTH = 24
_CHUNK_BYTES = 1 << 20
_FORMAT_SLICE = 1 << 14  # distinct values formatted per %-string


def _distinct_bits(mat):
    """The sorted distinct bit patterns of ``mat`` and, per entry, its index.

    Bit patterns, not values, keep 0.0 and -0.0 apart.  A bitwise-symmetric
    block, such as ``crb_shape`` or ``crb_vecs_sigma`` (formed as x + x^T),
    sorts only its upper triangle.
    """
    bits = mat.view(np.uint64)
    if mat.shape[0] != mat.shape[1] or not np.array_equal(bits, bits.T):
        distinct, where = np.unique(bits, return_inverse=True)
        return distinct, where.reshape(mat.shape)
    upper = np.triu_indices(mat.shape[0])
    distinct, inverse = np.unique(bits[upper], return_inverse=True)
    where = np.empty(mat.shape, dtype=np.intp)
    where[upper] = inverse
    where.T[upper] = inverse
    return distinct, where


def write_bounds_csv(bounds: BoundSet, path):
    """Serialize all bound blocks row-major at 17 significant digits.

    Lines read ``block,row,col,value`` and end in a newline on every
    platform.  Each block formats every distinct bit pattern once, into a
    space-padded field of the widest %.17g text; a format string covers a
    fixed slice of the distinct values, so no text holds a whole block.
    The file is then streamed in chunks of about a mebibyte: each line is
    laid out in fixed-width fields (row prefix, column, value, newline),
    and since no field's text holds a space, dropping every space byte
    leaves the lines.
    """
    with open(path, "wb") as fh:
        fh.write(b"block,row,col,value\n")
        for name, mat in bounds.blocks().items():
            mat = np.ascontiguousarray(np.atleast_2d(mat), dtype=float)
            if not mat.size:
                continue
            nrow, ncol = mat.shape
            distinct, where = _distinct_bits(mat)
            text = bytearray(distinct.size * _VALUE_WIDTH)
            for k in range(0, distinct.size, _FORMAT_SLICE):
                part = distinct[k : k + _FORMAT_SLICE].view(float).tolist()
                text[k * _VALUE_WIDTH : (k + len(part)) * _VALUE_WIDTH] = (
                    (f"%-{_VALUE_WIDTH}.17g" * len(part)) % tuple(part)
                ).encode("ascii")
            values = np.frombuffer(text, dtype=f"V{_VALUE_WIDTH}")
            wr, wc = len(f"{name},{nrow - 1},"), len(f"{ncol - 1},")
            rows = np.array([f"{name},{i},".ljust(wr) for i in range(nrow)], dtype=f"S{wr}")
            cols = np.array([f"{j},".ljust(wc) for j in range(ncol)], dtype=f"S{wc}")
            line = np.dtype([("row", rows.dtype), ("col", cols.dtype), ("value", values.dtype), ("end", "S1")])
            step = max(1, _CHUNK_BYTES // (ncol * line.itemsize))
            for i in range(0, nrow, step):
                lines = np.empty((min(step, nrow - i), ncol), dtype=line)
                lines["row"] = rows[i : i + step, None]
                lines["col"] = cols
                lines["value"] = values.take(where[i : i + step])
                lines["end"] = b"\n"
                flat = lines.view(np.uint8).reshape(-1)
                fh.write(flat[flat != ord(" ")])
