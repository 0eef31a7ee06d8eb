"""Command-line front end: simulate, bounds, adaptivity, verify.

All subcommands read a JSON config (schema version 1) and write CSV plus
optional SVG artifacts.  Exit codes: 0 success, 1 check failures, 2
usage or configuration errors, including a model the config describes
that cannot be evaluated (one line on stderr, nothing written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import toeplitz

from . import bounds as bounds_mod
from .bounds import SingularCoefficientError
from .config import ConfigError, check_number, check_reals, reject_unknown
from .fim import IdentifiabilityError
from .generators import MomentUndefinedError, gaussian, generalized_gaussian, student_t
from .invariants import run_invariant_suite
from .parameterize import (
    breaking_example,
    low_rank_example,
    shape_scale_example,
    split_example,
    verify_adaptivity_by_fim,
)
from .matcalc import vecs_len
from .scale import ManifoldError, decompose, scale_by_name
from .simulate import SimConfig, run_simulation, write_svg_chart

SCHEMA_VERSION = 1

# Raised while a model built from a config is evaluated: a generator
# parameter out of range, a scatter that is not PD, an unidentifiable
# parameterization, a shape off its manifold, an alpha at the singular
# point of a bound, an undefined moment or an unknown verify level.  All
# are ValueError subclasses; naming them records which ones exit 2.
DOMAIN_ERRORS = (
    ValueError,
    LinAlgError,
    IdentifiabilityError,
    ManifoldError,
    SingularCoefficientError,
    MomentUndefinedError,
)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    schema = data.pop("schema", None)
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema must be {SCHEMA_VERSION}, got {schema!r}"
        )
    return data


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
    """The value of ``spec``'s selecting key, once every key of ``spec`` is
    one that its kind accepts."""
    if not isinstance(spec, dict) or key not in spec:
        raise ConfigError(f'{where} spec needs a "{key}" key')
    kind = spec[key]
    if not isinstance(kind, str) or kind not in known:
        raise ConfigError(f"unknown {where} {key} {kind!r}; valid: {', '.join(known)}")
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
    kind = _spec_kind(spec, "kind", SIGMA_KEYS, "scatter")
    if kind == "toeplitz":
        rho = check_number(spec.get("rho", 0.8), "sigma.rho")
        return toeplitz(rho ** np.arange(m))
    if kind == "identity":
        return np.eye(m)
    mat = check_reals(spec.get("values"), "sigma.values")
    if mat.shape != (m, m):
        raise ConfigError(f"explicit scatter must be {m}x{m}")
    return mat


def _scale_from_name(name):
    if not isinstance(name, str):
        raise ConfigError(f"scale must be a name, got {name!r}")
    try:
        return scale_by_name(name)
    except KeyError as exc:
        raise ConfigError(exc.args[0])


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
    try:
        config = SimConfig.from_dict(data)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc))
    result = run_simulation(config)
    out_dir = Path(args.out)
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


def cmd_bounds(args) -> int:
    data = _load_config(args.config)
    reject_unknown(data, ("m", "scale", "generator", "sigma"), "bounds config")
    try:
        m = check_number(data["m"], "m", int, least=2)
        scale = _scale_from_name(data.get("scale", "trace"))
        gen = _generator_from_spec(data.get("generator", {"family": "gaussian"}))
        sigma = _sigma_from_spec(data.get("sigma", {"kind": "toeplitz"}), m)
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}")
    bset = bounds_mod.bound_set(scale, sigma, gen)
    # the chain can raise on an evaluable-looking scatter, so it runs before
    # anything is written: exit 2 leaves no output
    report = bounds_mod.verify_chain(scale, decompose(scale, sigma).v, [gen], m)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"bounds_{scale.kind}_{gen.name}.csv"
    bounds_mod.write_bounds_csv(bset, csv_path)
    print(report.format_table())
    print(f"trace(crb_shape) = {np.trace(bset.crb_shape):.12g}")
    print(f"crb_scale = {bset.crb_scale:.12g}")
    print(f"wrote {csv_path}")
    return 0 if report.passed else 1


def _parameterization_from_spec(spec):
    name = _spec_kind(spec, "name", PARAMETERIZATION_KEYS, "parameterization")

    def get(key, default, kind=float, least=None, inside=None):
        """The spec value of ``key``; ``inside`` is an open interval (lo, hi)."""
        value = check_number(spec.get(key, default), f"parameterization.{key}", kind, least)
        if inside is not None and not inside[0] < value < inside[1]:
            raise ConfigError(
                f"parameterization.{key} must lie in ({inside[0]:g}, {inside[1]:g}), "
                f"got {value!r}"
            )
        return value

    unit = (-1.0, 1.0)  # a Toeplitz rho^|i-j| is PD exactly for |rho| < 1
    positive = (0.0, np.inf)

    rng = np.random.default_rng(get("seed", 0, int, least=0))
    if name == "split":
        m = get("m", 4, int, least=1)
        q = get("q", 2, int, least=1)
        return split_example(rng, m, q, get("rho", 0.7, inside=unit))
    if name == "low_rank":
        m = get("m", 6, int)
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
        return low_rank_example(rng, m, gamma0, get("noise", 0.8, inside=positive))
    if name == "shape_scale":
        m = get("m", 4, int, least=2)  # a shape needs a free coordinate
        scale = _scale_from_name(spec.get("scale", "trace"))
        return shape_scale_example(
            scale, m, get("rho", 0.8, inside=unit), get("s", 1.5, inside=positive)
        )
    m = get("m", 3, int, least=1)  # breaking
    return breaking_example(m, get("rho", 0.5, inside=unit), get("gamma0", 1.3, inside=positive))


def cmd_adaptivity(args) -> int:
    data = _load_config(args.config)
    reject_unknown(data, ("parameterization", "generator"), "adaptivity config")
    param, theta0 = _parameterization_from_spec(data.get("parameterization", {}))
    gen = _generator_from_spec(data.get("generator", {"family": "t", "nu": 8}))
    report = verify_adaptivity_by_fim(param, theta0, gen)
    cond = report.condition
    residual = cond.scaled_residual.max()  # before any output: exit 2 prints nothing
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
    report = run_invariant_suite(level=level)
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
    p_b.set_defaults(fn=cmd_bounds)

    p_a = sub.add_parser("adaptivity", help="adaptivity condition checker")
    p_a.add_argument("--config", required=True)
    p_a.set_defaults(fn=cmd_adaptivity)

    p_v = sub.add_parser("verify", help="run the invariant suite")
    p_v.add_argument("--config", help="optional config carrying the level")
    p_v.add_argument("--level", choices=("fast", "full"), default="fast")
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
    except DOMAIN_ERRORS as exc:
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
