"""Command-line front end: simulate, bounds, adaptivity, verify.

All subcommands read a JSON config (schema version 1) and write CSV plus
optional SVG artifacts.  Exit codes: 0 success, 1 check failures, 2
usage or configuration errors, including a model the config describes
that cannot be evaluated and a path that cannot be used (one line on
stderr, nothing written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import toeplitz

from . import bounds as bounds_mod
from .config import (
    POSITIVE, UNIT, ConfigError, check_choice, check_number, check_reals, reject_unknown,
)
from .generators import gaussian, generalized_gaussian, student_t
from .invariants import run_invariant_suite
from .parameterize import (
    breaking_example,
    low_rank_example,
    shape_scale_example,
    split_example,
    verify_adaptivity_by_fim,
)
from .matcalc import vecs_len
from .scale import SCALES, decompose, scale_by_name
from .simulate import SimConfig, run_simulation, write_svg_chart

SCHEMA_VERSION = 1


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    schema = check_number(data.pop("schema", None), "schema", int)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema must be {SCHEMA_VERSION}, got {schema!r}")
    return data


def _out_dir(path):
    """``--out`` as a Path, rejected before any work when it is an existing
    file, on which the ``mkdir`` after the run would fail."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"--out {path} exists and is not a directory")
    return out


# the keys each spec accepts, by the value of its selecting key
_T_KEYS, _GG_KEYS = ("family", "nu"), ("family", "shape")
GENERATOR_KEYS = {
    "gaussian": ("family",),
    "t": _T_KEYS,
    "student_t": _T_KEYS,
    "gg": _GG_KEYS,
    "generalized_gaussian": _GG_KEYS,
}
SIGMA_KEYS = {
    "toeplitz": ("kind", "rho"),
    "identity": ("kind",),
    "matrix": ("kind", "values"),
}
PARAMETERIZATION_KEYS = {
    "split": ("name", "seed", "m", "q", "rho"),
    "low_rank": ("name", "seed", "m", "p", "gamma", "noise"),
    "shape_scale": ("name", "seed", "m", "scale", "rho", "s"),
    "breaking": ("name", "seed", "m", "rho", "gamma0"),
}


def _spec_kind(spec, key, known, where):
    """The value of the spec ``where``'s selecting key, once every key of
    ``spec`` is one that its kind accepts."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object, got {spec!r}")
    kind = check_choice(spec.get(key), f"{where}.{key}", known)
    reject_unknown(spec, known[kind], f"{where} ({kind})")
    return kind


def _generator_from_spec(spec):
    family = _spec_kind(spec, "family", GENERATOR_KEYS, "generator")
    if family == "gaussian":
        return gaussian()
    # a missing parameter reads as null, which check_number rejects by name
    if family in ("t", "student_t"):
        return student_t(check_number(spec.get("nu"), "generator.nu"))
    return generalized_gaussian(check_number(spec.get("shape"), "generator.shape"))


def _sigma_from_spec(spec, m):
    if isinstance(spec, dict):
        spec = {"kind": "toeplitz", **spec}
    kind = _spec_kind(spec, "kind", SIGMA_KEYS, "sigma")
    if kind == "toeplitz":
        rho = check_number(spec.get("rho", 0.8), "sigma.rho", inside=UNIT)
        return toeplitz(rho ** np.arange(m))
    if kind == "identity":
        return np.eye(m)
    mat = check_reals(spec.get("values"), "sigma.values")
    if mat.shape != (m, m):
        raise ConfigError(f"explicit scatter must be {m}x{m}")
    return mat


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    data = _load_config(args.config)
    if args.nu:
        data["nu_grid"] = [float(v) for part in args.nu for v in part.split(",")]
    if args.trials is not None:
        data["trials"] = args.trials
    if args.seed is not None:
        data["root_seed"] = args.seed
    if args.scale is not None:
        data["scale_kind"] = args.scale
    config = SimConfig.from_dict(data)
    out_dir = _out_dir(args.out)
    result = run_simulation(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"simulation_{config.scale_kind}"
    csv_path = out_dir / f"{stem}.csv"
    result.to_csv(csv_path)
    result.write_metadata(out_dir / f"{stem}.meta.json")
    if args.svg:
        write_svg_chart(result, out_dir / f"{stem}.svg")
    invalid = [c for c in result.cells if not c.valid]
    for c in invalid:
        print(
            f"warning: cell nu={c.nu:g} estimator={c.estimator} had "
            f"{c.n_failed} failed trials (flagged invalid)",
            file=sys.stderr,
        )
    print(f"wrote {csv_path}")
    return 0


def _finite_or_null(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    return obj


def _print_json(obj):
    """Print ``obj`` as strict JSON: a non-finite float, which jq and
    JavaScript's JSON.parse reject as NaN or Infinity, is written null."""
    print(json.dumps(_finite_or_null(obj), allow_nan=False))


def cmd_bounds(args) -> int:
    data = _load_config(args.config)
    reject_unknown(data, ("m", "scale", "generator", "sigma"), "bounds config")
    m = check_number(data.get("m"), "m", int, least=2)
    scale = scale_by_name(check_choice(data.get("scale", "trace"), "scale", SCALES))
    gen = _generator_from_spec(data.get("generator", {"family": "gaussian"}))
    sigma = _sigma_from_spec(data.get("sigma", {"kind": "toeplitz"}), m)
    out_dir = _out_dir(args.out)
    bset = bounds_mod.bound_set(scale, sigma, gen)
    # the chain can raise on an evaluable-looking scatter, so it runs before
    # anything is written: exit 2 leaves no output
    report = bounds_mod.verify_chain(scale, decompose(scale, sigma).v, [gen], m)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"bounds_{scale.kind}_{gen.name}.csv"
    bounds_mod.write_bounds_csv(bset, csv_path)
    unresolved = sum(link.passed is None for link in report.links)
    if unresolved:
        print(
            f"warning: {unresolved} chain link(s) [unresolved] in float precision; "
            f"{csv_path} holds bounds the chain could not check",
            file=sys.stderr,
        )
    if args.json:
        links = [{"name": l.name, "generator": l.generator, "passed": l.passed,
                  "value": l.value, "tol": l.tol} for l in report.links]
        _print_json({"scale": scale.kind, "generator": gen.name, "m": m,
                     "trace_crb_shape": float(np.trace(bset.crb_shape)),
                     "crb_scale": bset.crb_scale, "csv": str(csv_path), "links": links})
    else:
        print(report.format_table())
        print(f"trace(crb_shape) = {np.trace(bset.crb_shape):.12g}")
        print(f"crb_scale = {bset.crb_scale:.12g}")
        print(f"wrote {csv_path}")
    return 0 if report.passed else 1


def _parameterization_from_spec(spec):
    name = _spec_kind(spec, "name", PARAMETERIZATION_KEYS, "parameterization")

    def get(key, default, kind=float, **bounds):
        return check_number(spec.get(key, default), f"parameterization.{key}", kind, **bounds)

    rng = np.random.default_rng(get("seed", 0, int, least=0))
    if name == "split":
        m = get("m", 4, int, least=1)
        q = get("q", 2, int, least=1)
        return split_example(rng, m, q, get("rho", 0.7, inside=UNIT))
    if name == "low_rank":
        m = get("m", 6, int, least=1)
        p = get("p", 2, int, least=1)
        # (gamma, vecs Xi, lambda) needs no more coordinates than vecs Sigma
        if vecs_len(m) < p + vecs_len(p) + 1:
            raise ConfigError(
                f"parameterization.m must satisfy m(m+1)/2 >= p + p(p+1)/2 + 1 "
                f"for p = {p}, got {m!r}"
            )
        gamma = spec.get("gamma", [0.6, 1.7])
        gamma0 = check_reals(gamma, "parameterization.gamma")
        if gamma0.shape != (p,):
            raise ConfigError(
                f"parameterization.gamma must list one real number per source "
                f"(p = {p}), got {gamma!r}"
            )
        return low_rank_example(rng, m, gamma0, get("noise", 0.8, inside=POSITIVE))
    if name == "shape_scale":
        m = get("m", 4, int, least=2)  # a shape needs a free coordinate
        kind = check_choice(spec.get("scale", "trace"), "parameterization.scale", SCALES)
        return shape_scale_example(
            scale_by_name(kind), m, get("rho", 0.8, inside=UNIT), get("s", 1.5, inside=POSITIVE)
        )
    m = get("m", 3, int, least=1)  # breaking
    return breaking_example(m, get("rho", 0.5, inside=UNIT), get("gamma0", 1.3, inside=POSITIVE))


def cmd_adaptivity(args) -> int:
    data = _load_config(args.config)
    reject_unknown(data, ("parameterization", "generator"), "adaptivity config")
    param, theta0 = _parameterization_from_spec(data.get("parameterization", {}))
    gen = _generator_from_spec(data.get("generator", {"family": "t", "nu": 8}))
    report = verify_adaptivity_by_fim(param, theta0, gen)
    cond = report.condition
    residual = cond.scaled_residual.max()  # before any output: exit 2 prints nothing
    if args.json:
        _print_json({"name": param.name, "q": param.q, "r": param.r, "generator": gen.name,
                     "condition_residual": float(residual), "tol": cond.tol,
                     "satisfied": cond.satisfied, "gap": report.gap,
                     "gap_rel": report.gap_rel, "adaptive": report.adaptive})
        return 0
    print(f"parameterization: {param.name} (q={param.q}, r={param.r})")
    print(f"generator:        {gen.name}")
    print(f"condition residual (max |r_i| / sqrt(I_ii)): {residual:.3e} "
          f"(tol {cond.tol:.3e}) -> {'satisfied' if cond.satisfied else 'violated'}")
    print(f"efficient-FIM gap: {report.gap:.3e} (relative {report.gap_rel:.3e}) "
          f"-> {'adaptive' if report.adaptive else 'not adaptive'}")
    return 0


def cmd_verify(args) -> int:
    level = args.level
    if args.config is not None:
        data = _load_config(args.config)
        reject_unknown(data, ("level",), "verify config")
        level = data.get("level", level)
    report = run_invariant_suite(level=check_choice(level, "level", ("fast", "full")))
    if args.json:
        entries = [vars(e) for e in report.entries]
        _print_json({"level": report.level, "all_passed": report.all_passed,
                     "entries": entries})
    else:
        print(report.format_table())
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipfim",
        description="Efficiency bounds and estimators for elliptical models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimator comparison")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--nu", action="append", help="override the nu grid")
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--scale", help="first | trace | det")
    p_sim.add_argument("--out", default=".")
    p_sim.add_argument("--svg", action="store_true")
    p_sim.set_defaults(fn=cmd_simulate)

    p_b = sub.add_parser("bounds", help="bound matrices and the equality chain")
    p_b.add_argument("--config", required=True)
    p_b.add_argument("--out", default=".")
    p_b.add_argument("--json", action="store_true", help="print the results as one JSON object")
    p_b.set_defaults(fn=cmd_bounds)

    p_a = sub.add_parser("adaptivity", help="adaptivity condition checker")
    p_a.add_argument("--config", required=True)
    p_a.add_argument("--json", action="store_true", help="print the verdicts as one JSON object")
    p_a.set_defaults(fn=cmd_adaptivity)

    p_v = sub.add_parser("verify", help="run the invariant suite")
    p_v.add_argument("--config", help="optional config carrying the level")
    p_v.add_argument("--level", default="fast", help="fast | full")
    p_v.add_argument("--json", action="store_true", help="print the table as one JSON object")
    p_v.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # a model the config describes that cannot be evaluated: a generator
    # parameter or functional out of range, a scatter that is not PD
    # (LinAlgError), an unidentifiable parameterization, a shape off its
    # manifold, an alpha at the singular point of a bound or an undefined
    # moment, all ValueError subclasses; or a path that cannot be read or
    # written: a missing config, a directory as --config or a file as --out
    except (ValueError, OSError) as exc:
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
