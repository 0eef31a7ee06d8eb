"""Monte-Carlo comparison of shape estimators against the information bounds.

Replicates the t-distributed Toeplitz-scatter study at desk scale: for
each degrees-of-freedom value, draw `trials` datasets of n observations,
run the five shape estimators of ``COLUMNS`` (the SCM, Tyler, and the
one-step R-estimators from Tyler with the van der Waerden, t(3) and
matched t(nu) scores), and report the MSE index next to the
semiparametric bound trace and the scale-and-generator-known parametric
bound trace (both divided by n, the per-dataset scale).  The generator
enters both only through alpha(m), so a run computes one generator-free
diagonal of the bound and each nu then costs O(d), d = m(m+1)/2: no
d x d bound is built (``_bounds``).  Each cell's MSE and standard error
are reduced with the other cells' in one pass (``_cell_stats``), to the
bits of a per-cell mean and std.

The trials of the whole run form one sequence, ordered by nu index and
then by trial index, and a block is a contiguous run of it, so one block
can hold trials of several nu.  Its size (``_block_size``) is set by a
byte budget on its (T, n, m) data stack, so it depends on n and m, never
on the parallelism setting.  A block draws its datasets into
one (T, n, m) stack, computing Sigma^(1/2) once, and runs each estimator
once on the stack; each trial's rank scores come from tables built once
per run for every distinct (score, nu).  Each trial keeps its own RNG
stream, derived from (root_seed, nu_index, trial_index), and a trial that
fails (a non-finite or non-PD intermediate, or a Tyler iteration that
does not converge) leaves NaN in its own row only.  A block also returns
Tyler's iteration count and final residual and the R-step rejection
flags and slope estimates alpha_hat of each trial; the run reduces these
per nu into the diagnostics of its metadata.  A process pool runs the
blocks when there are at least two per worker; serially or on any worker, the same blocks
are computed, reduced in trial order and formatted with fixed precision,
so the CSV is byte-identical across parallelism settings.

A block's work has two halves.  The scale-free half
(``_scale_free_half``) is its datasets with their nu indices and Tyler's
unnormalized fixed point F(V) with its iteration counts and residuals:
Tyler's map is 1-homogeneous, so no scale functional enters its
iteration.  The scaled half is Tyler's renormalization and the rule
that loses a trial whose S(F(V)) is not finite and positive, the SCM,
the R-step and the squared errors.  The module keeps the score tables
and every block's scale-free half of the last run in one slot
(``_MEMO``), keyed by every config field but ``scale_kind`` and
``parallelism``, the block size, and TYLER_TOL and TYLER_MAX_ITER as
they read at call time, with the scales the slot has served.  A run
with the same key on a scale the slot has not served, such as the same
study on another scale, skips the score tables, the sampling and the
Tyler iteration and computes only the scaled half; its outputs are the
bytes of a run that computed both.  A run on a served scale repeats a
run already made and computes both halves again, so a repeated run (a
timing loop, a replay) costs what a run costs.  Such a run, like a run
with another key, empties the slot before it draws its own datasets,
and is kept only when they total at most MEMO_DOUBLES doubles (32 MiB),
so a larger run holds no more than it would without the slot.  Once
every scale of SCALES is served, no run can read the slot and it is
emptied.  Kept arrays are read-only.  Pool workers return the halves
they compute with their results when the run is to be kept, and on a
hit the parent sends each block its half.  A process that runs a single
scale never reads the slot, yet holds its run's datasets until it ends:
at criterion-7 size, 4.0e6 doubles, its peak memory is about 31 MB
higher, a cost accepted for being bounded by MEMO_DOUBLES.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy
from scipy.linalg import toeplitz

from .bounds import _scale_known_gap, _scale_terms, _shape_rank_two
from . import estimators
from .config import UNIT, ConfigError, check_choice, check_number, reject_unknown
from .estimators import (
    TScore,
    VanDerWaerden,
    r_step_batch,
    scm_batch,
    tyler_fixed_point,
    tyler_renormalize,
)
from .generators import sample_stack, student_t
from .matcalc import _frozen, _vecs_diagonal, ovecs, vecs_len
from .scale import SCALES, decompose, scale_by_name

__all__ = [
    "SCORES",
    "COLUMNS",
    "SimConfig",
    "CellResult",
    "SimResult",
    "run_simulation",
    "write_svg_chart",
]

FAILURE_RATE_LIMIT = 0.01
BLOCK_DOUBLES = 2**16  # budget of a block's (T, n, m) data stack
MEMO_DOUBLES = 2**22  # budget of the datasets of a run kept in _MEMO (32 MiB)
SCORES = ("vdw", "t3", "tnu")  # the R-step's scores, in _scores order
COLUMNS = ("scm", "tyler") + tuple(f"r_{s}" for s in SCORES)
# at most one entry, _memo_key(run) ->
# (score tables, scale-free half of each block, scales served)
_MEMO = {}


@dataclass(frozen=True)
class SimConfig:
    m: int = 4
    n: int = 100
    rho: float = 0.8
    nu_grid: tuple = (2.1, 3.0, 5.0, 10.0, 20.0)
    trials: int = 2000
    scale_kind: str = "trace"
    root_seed: int = 20240813
    parallelism: int = 1

    def __post_init__(self):
        if not isinstance(self.nu_grid, (list, tuple)):
            raise ConfigError(f"nu_grid must be a list, got {self.nu_grid!r}")
        object.__setattr__(self, "nu_grid", tuple(self.nu_grid))
        check_number(self.m, "m", int, least=2)
        # the R-estimators' tangent solve needs n > m(m+1)/2
        check_number(self.n, "n", int, least=vecs_len(self.m) + 1)
        check_number(self.trials, "trials", int, least=1)
        check_number(self.parallelism, "parallelism", int, least=1)
        check_number(self.root_seed, "root_seed", int, least=0)
        check_number(self.rho, "rho", inside=UNIT)
        for nu in self.nu_grid:
            check_number(nu, "nu_grid", inside=(2.0, math.inf))
        if not self.nu_grid:
            raise ConfigError("nu_grid must hold at least one nu")
        if len(set(self.nu_grid)) < len(self.nu_grid):
            raise ConfigError(f"nu_grid must not repeat a nu, got {list(self.nu_grid)}")
        check_choice(self.scale_kind, "scale_kind", SCALES)

    @property
    def sigma0(self):
        return toeplitz(self.rho ** np.arange(self.m))

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        reject_unknown(data, cls.__dataclass_fields__, "simulation config")
        return cls(**data)


def _scores(nu: float):
    """The R-step's scores at nu, one per entry of SCORES."""
    return VanDerWaerden(), TScore(3.0), TScore(nu)


def _block_size(m: int, n: int) -> int:
    """Trials per block: as many (n, m) datasets as fit in BLOCK_DOUBLES
    doubles.  No per-trial array of the estimators is larger than a
    dataset: Tyler and the R-step work on (m, n) copies of it and on m x m
    matrices, and the R-step's m(m+1)/2 vectors are shorter than n."""
    return max(1, BLOCK_DOUBLES // (n * m))


def _score_tables(config: SimConfig):
    """(len(SCORES), len(nu_grid), n) score tables: entry [s, i] is the
    table of score s at nu_grid[i].  Each distinct score (class and
    parameters) is evaluated once."""
    scores = list(zip(*(_scores(nu) for nu in config.nu_grid)))
    tables = {}
    for score in (score for row in scores for score in row):
        if score.key() not in tables:
            tables[score.key()] = score.table(config.n, config.m)
    return np.array([[tables[score.key()] for score in row] for row in scores])


def _block_data(config: SimConfig, start: int, stop: int):
    """The (T, n, m) datasets of trials [start, stop) of the run's sequence,
    with the nu index of each; sequence entry k is trial k % trials of nu
    index k // trials."""
    nu_idx, trial = np.divmod(np.arange(start, stop), config.trials)
    data = sample_stack(
        config.n,
        np.zeros(config.m),
        config.sigma0,
        [student_t(config.nu_grid[i]) for i in nu_idx],
        [(config.root_seed, int(i), int(t)) for i, t in zip(nu_idx, trial)],
    )
    return data, nu_idx


def _scale_free_half(config: SimConfig, start: int, stop: int):
    """The half of trials [start, stop) that no scale functional enters:
    ``(data, nu_idx, f, iterations, residual)``, the datasets and nu indices
    of ``_block_data`` and Tyler's unnormalized fixed point with its
    iteration counts and residuals (``tyler_fixed_point``)."""
    data, nu_idx = _block_data(config, start, stop)
    return (data, nu_idx, *tyler_fixed_point(data))


def _trial_block(config: SimConfig, tables, start: int, stop: int, half=None, keep=False):
    """Per-trial results for trials [start, stop) of the run's sequence,
    ``(errors, iterations, residual, rejected, alpha_hat)``, and the block's
    scale-free half where ``keep`` is set (None otherwise).

    ``errors`` holds the squared ovecs errors, one column per entry of
    COLUMNS, with NaN marking a failure.  ``iterations`` and ``residual``
    are Tyler's iteration count and final residual per trial, which
    converged where the residual is below TYLER_TOL, and ``rejected``
    (T, len(SCORES)) flags the R-steps that kept the preliminary without
    failing.  ``alpha_hat`` (T, len(SCORES)) is each R-step's slope
    estimate; a step was taken where it is finite and positive.  ``tables``
    is ``_score_tables(config)``, and ``half`` is ``_scale_free_half`` of
    the block, computed here when not given.
    """
    if half is None:
        half = _scale_free_half(config, start, stop)
    data, nu_idx, f, iterations, residual = half
    scale = scale_by_name(config.scale_kind)
    v0 = decompose(scale, config.sigma0).v
    tyler, residual = tyler_renormalize(scale, f, residual)
    # a failed preliminary is NaN, so its R-estimates fail with it
    r_v, alpha_hat, rejected = r_step_batch(data, tyler, scale, tables[:, nu_idx])
    diff = ovecs(np.stack([scm_batch(data, scale), tyler, *r_v]) - v0)
    errors = np.sum(diff * diff, axis=-1).T
    return (errors, iterations, residual, rejected.T, alpha_hat.T), (half if keep else None)


def _memo_key(config: SimConfig, size: int):
    """What the scale-free half of a run depends on: every config field but
    the scale and the parallelism, the block size and Tyler's stop rule."""
    shared = tuple(
        getattr(config, f.name)
        for f in fields(config)
        if f.name not in ("scale_kind", "parallelism")
    )
    return shared + (size, estimators.TYLER_TOL, estimators.TYLER_MAX_ITER)


@dataclass
class CellResult:
    nu: float
    estimator: str
    mse: float
    stderr: float
    n_failed: int
    valid: bool


@dataclass
class SimResult:
    config: SimConfig
    cells: list
    bounds: dict  # nu -> (scrb_trace/n, parametric trace/n)
    block_size: int  # trials per block
    blocks: int
    workers_used: int
    diagnostics: list  # per nu: the Tyler and R-step figures of _diagnostics

    def cell(self, nu: float, estimator: str) -> CellResult:
        for c in self.cells:
            if c.nu == nu and c.estimator == estimator:
                return c
        raise KeyError((nu, estimator))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("nu,estimator,mse,stderr,scrb_trace,crb_param_trace\n")
            for c in self.cells:
                scrb, par = self.bounds[c.nu]
                fh.write(
                    f"{c.nu:.17g},{c.estimator},{c.mse:.6g},{c.stderr:.6g},"
                    f"{scrb:.17g},{par:.17g}\n"
                )

    def write_metadata(self, path):
        meta = {
            "schema": 1,
            "config": asdict(self.config),
            "note": (
                "desk-scale run; the reference study used 1e5 trials per cell"
            ),
            "block_size": self.block_size,
            "blocks": self.blocks,
            "workers_used": self.workers_used,
            # the CSV's %.6g at full precision, null where not finite
            "cells": [
                {
                    "nu": c.nu,
                    "estimator": c.estimator,
                    "mse": c.mse if math.isfinite(c.mse) else None,
                    "stderr": c.stderr if math.isfinite(c.stderr) else None,
                }
                for c in self.cells
            ],
            "failed_cells": [
                {"nu": c.nu, "estimator": c.estimator, "n_failed": c.n_failed}
                for c in self.cells
                if c.n_failed
            ],
            "diagnostics": self.diagnostics,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "cpu_count": os.cpu_count(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _bounds(config: SimConfig):
    """nu -> (trace of ``crb_shape``, trace of the scale-known CRB(.|s)),
    both over n; CRB(.|s) = SCRB - u u^T in closed form.

    The generator enters ``crb_shape`` only as its factor 1/alpha(m) and
    u only through alpha(m), so the run computes the generator-free part
    once: the bound's diagonal before that factor (``_vecs_diagonal`` of
    ``_shape_rank_two``) and ``_scale_terms``.  Each nu then costs O(d)
    and builds no d x d array; both traces are those of ``crb_shape`` and
    ``_scale_known_gap`` to the bit.
    """
    scale = scale_by_name(config.scale_kind)
    v0 = decompose(scale, config.sigma0).v
    diag = _vecs_diagonal(v0, *_shape_rank_two(scale, v0), start=1)
    terms = _scale_terms(scale, v0)
    out = {}
    for nu in config.nu_grid:
        gen = student_t(nu)
        trace = float(np.sum(diag * (1.0 / gen.alpha(config.m))))
        u = _scale_known_gap(scale, v0, gen, terms)
        out[nu] = (trace / config.n, (trace - float(u @ u)) / config.n)
    return out


def run_simulation(config: SimConfig) -> SimResult:
    """Run the full sweep; deterministic given config and root_seed."""
    total = len(config.nu_grid) * config.trials
    size = _block_size(config.m, config.n)
    blocks = [(start, min(start + size, total)) for start in range(0, total, size)]
    key = _memo_key(config, size)
    tables, halves, served = _MEMO.pop(key, (None, None, frozenset()))
    _MEMO.clear()  # before this run draws its own datasets
    hit = halves is not None and config.scale_kind not in served
    if not hit:
        tables, halves, served = _score_tables(config), [None] * len(blocks), frozenset()
    keep = not hit and total * config.n * config.m <= MEMO_DOUBLES
    jobs = [(config, tables, *b, half, keep) for b, half in zip(blocks, halves)]
    # below two blocks per worker, pool start-up costs more than it saves
    workers = config.parallelism if len(blocks) >= 2 * config.parallelism else 1
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(_trial_block, *job) for job in jobs]
            bounds = _bounds(config)
            done = [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        done = [_trial_block(*job) for job in jobs]
        bounds = _bounds(config)
    results, computed = zip(*done)
    if keep:
        tables, halves = _frozen(tables), [tuple(map(_frozen, half)) for half in computed]
    served |= {config.scale_kind}
    if (hit or keep) and not SCALES.keys() <= served:
        _MEMO[key] = (tables, halves, served)
    per_nu = (len(config.nu_grid), config.trials)
    errors, iterations, residual, rejected, alpha_hat = (
        np.concatenate(part).reshape(per_nu + np.shape(part[0])[1:])
        for part in zip(*results)
    )
    mse, stderr, n_failed = _cell_stats(errors)
    cells = [
        CellResult(
            nu=nu,
            estimator=name,
            mse=float(mse[i, j]),
            stderr=float(stderr[i, j]),
            n_failed=int(n_failed[i, j]),
            valid=bool(n_failed[i, j] <= FAILURE_RATE_LIMIT * config.trials),
        )
        for i, nu in enumerate(config.nu_grid)
        for j, name in enumerate(COLUMNS)
    ]
    return SimResult(
        config=config,
        cells=cells,
        bounds=bounds,
        block_size=size,
        blocks=len(blocks),
        workers_used=workers,
        diagnostics=_diagnostics(config, iterations, residual, rejected, alpha_hat),
    )


def _cell_stats(errors):
    """(mse, stderr, n_failed), each (nu, estimator), of the (nu, trial,
    estimator) squared errors, NaN marking a failed trial.

    Each cell's figures are numpy's mean and std(ddof=1) of its valid
    trials.  The cells without a failure are reduced along the last axis
    of one C-contiguous (nu, estimator, trial) copy, whose rows numpy sums
    as it sums a 1-D array, so they keep the bits of a per-cell reduction;
    a cell with a failed trial is compacted first.  Fewer than two valid
    trials give no spread: stderr NaN, not 0, and no valid trial gives
    mse NaN.
    """
    rows = np.ascontiguousarray(np.moveaxis(errors, 1, -1))
    ok = np.isfinite(rows)
    n_failed = (~ok).sum(axis=-1)
    mse, stderr = np.full(n_failed.shape, np.nan), np.full(n_failed.shape, np.nan)
    whole = n_failed == 0
    full = rows[whole]
    mse[whole] = full.mean(axis=-1)
    if rows.shape[-1] > 1:
        stderr[whole] = full.std(axis=-1, ddof=1) / math.sqrt(rows.shape[-1])
    for cell in zip(*np.nonzero(~whole)):
        vals = rows[cell][ok[cell]]
        if vals.size:
            mse[cell] = vals.mean()
        if vals.size > 1:
            stderr[cell] = vals.std(ddof=1) / math.sqrt(vals.size)
    return mse, stderr, n_failed


def _diagnostics(config: SimConfig, iterations, residual, rejected, alpha_hat):
    """Per nu: Tyler's mean and maximum iterations and maximum final
    residual over its converged trials and its failure count, the R-step
    rejection count per score, the mean alpha_hat per score over the steps
    taken (alpha_hat finite and positive), and the generator's alpha(m),
    which the matched score's alpha_hat estimates.  The arrays are in trial
    order, whatever the blocks, and each mean is numpy's mean of the
    compacted values it averages, so the figures do not depend on the blocks."""
    steps = np.isfinite(alpha_hat) & (alpha_hat > 0.0)
    out = []
    for nu_idx, nu in enumerate(config.nu_grid):
        converged = residual[nu_idx] < estimators.TYLER_TOL
        its, res = iterations[nu_idx][converged], residual[nu_idx][converged]
        counts = rejected[nu_idx].sum(axis=0)
        taken = [alpha_hat[nu_idx, steps[nu_idx, :, k], k] for k in range(len(SCORES))]
        out.append(
            {
                "nu": nu,
                "tyler_iterations_mean": float(its.mean()) if its.size else None,
                "tyler_iterations_max": int(its.max()) if its.size else None,
                "tyler_residual_max": float(res.max()) if res.size else None,
                "tyler_failures": int((~converged).sum()),
                "r_rejections": {s: int(c) for s, c in zip(SCORES, counts)},
                "r_alpha_hat_mean": {
                    s: float(a.mean()) if a.size else None for s, a in zip(SCORES, taken)
                },
                "alpha": float(student_t(nu).alpha(config.m)),
            }
        )
    return out


# ---------------------------------------------------------------------------
# self-contained SVG chart (presentation only; the CSV is the contract)
# ---------------------------------------------------------------------------

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf",
]


def write_svg_chart(result: SimResult, path):
    """Log-scale MSE-vs-nu line chart with the two bound traces."""
    config = result.config
    nus = list(config.nu_grid)
    width, height = 640, 440
    series = {name: [result.cell(nu, name).mse for nu in nus] for name in COLUMNS}
    series["scrb"] = [result.bounds[nu][0] for nu in nus]
    series["crb_param"] = [result.bounds[nu][1] for nu in nus]

    all_vals = [v for vals in series.values() for v in vals if np.isfinite(v) and v > 0]
    lo, hi = math.log10(min(all_vals)), math.log10(max(all_vals))
    if hi - lo < 1e-9:
        hi = lo + 1.0
    x0, x1, y0, y1 = 70, width - 160, height - 50, 20

    span = nus[-1] - nus[0]

    def sx(nu):
        if span == 0:
            return 0.5 * (x0 + x1)
        return x0 + (nu - nus[0]) / span * (x1 - x0)

    def sy(val):
        return y0 + (math.log10(val) - lo) / (hi - lo) * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">degrees of freedom</text>',
        f'<text x="16" y="{(y0 + y1) / 2}" font-size="13" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2})" text-anchor="middle">'
        f"MSE index (scale: {config.scale_kind})</text>",
    ]
    for nu in nus:
        parts.append(
            f'<text x="{sx(nu):.1f}" y="{y0 + 16}" text-anchor="middle" '
            f'font-size="11">{nu:g}</text>'
        )
    for k, (name, vals) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' if name in ("scrb", "crb_param") else ""
        pts = " ".join(
            f"{sx(nu):.1f},{sy(v):.1f}"
            for nu, v in zip(nus, vals)
            if np.isfinite(v) and v > 0
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"{dash}/>'
        )
        ly = 30 + 18 * k
        parts.append(
            f'<line x1="{x1 + 12}" y1="{ly}" x2="{x1 + 36}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        parts.append(
            f'<text x="{x1 + 42}" y="{ly + 4}" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
