import ast
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz

import ellipfim
import test_acceptance as acceptance
import test_complexces as complex_tests
import test_estimators as estimator_tests
import test_fim as fim_tests
import test_generators as generator_tests
import test_matcalc as matcalc_tests
from ellipfim import bounds, cli, estimators, fim, invariants, parameterize, simulate
from ellipfim.cli import _print_json, main
from ellipfim.config import ConfigError
from ellipfim.estimators import ScoreFunction, VanDerWaerden, r_step_batch, tyler_batch
from ellipfim.invariants import run_invariant_suite
from ellipfim.generators import sample, student_t
from ellipfim.matcalc import duplication_matrix
from ellipfim.bounds import crb_shape
from ellipfim.scale import decompose, jacobian_w, scale_by_name
from ellipfim.simulate import SimConfig, run_simulation, write_svg_chart


SMALL = dict(
    m=4,
    n=100,
    rho=0.8,
    nu_grid=(3.0, 8.0),
    trials=30,
    scale_kind="trace",
    root_seed=11,
)


def run_cli(tmp_path, command, data, *flags):
    """``ellipfim <command>`` on the config {"schema": 1, **data}, written to
    tmp_path/cfg.json; bounds and simulate write to tmp_path/out."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, **data}))
    out = ["--out", str(tmp_path / "out")] if command in ("bounds", "simulate") else []
    return main([command, "--config", str(cfg), *out, *flags])


# ---------------------------------------------------------------------------
# SimConfig validation
# ---------------------------------------------------------------------------


def test_config_rejects_low_nu():
    with pytest.raises(ValueError):
        SimConfig(nu_grid=(1.5,))


def test_config_rejects_zero_trials():
    with pytest.raises(ValueError):
        SimConfig(trials=0)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        SimConfig.from_dict({"trials": 5, "bogus": 1})


def test_config_rejects_unknown_score():
    with pytest.raises(ValueError):
        SimConfig.from_dict({"scores": ["huber"]})


@pytest.mark.parametrize(
    "bad, named",
    [({"scale_kind": "frobenius"}, "scale_kind"), ({"nu_grid": []}, "nu_grid"),
     ({"nu_grid": [3.0, 3.0]}, "nu_grid")],
    ids=["scale_kind", "empty_nu_grid", "repeated_nu"],
)
def test_config_raises_config_error_naming_the_field(bad, named):
    with pytest.raises(ConfigError, match=f"^{named} must"):
        SimConfig(**bad)
    with pytest.raises(ConfigError, match="^nu_grid must be a list"):
        SimConfig.from_dict({"nu_grid": 5.0})


# ---------------------------------------------------------------------------
# run_simulation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_result():
    return run_simulation(SimConfig(**SMALL))


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool run_simulation creates."""
    created = []
    real = simulate.ProcessPoolExecutor

    def counting(*args, **kwargs):
        created.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", counting)
    return created


# 84 trials in blocks of 21 at m=10, n=300: two blocks per worker at 2 workers
POOLED = dict(m=10, n=300, nu_grid=(3.0, 10.0), trials=42, scale_kind="det", root_seed=5)


def _full_precision(result):
    """Each cell's mse, stderr and n_failed, and the diagnostics, to the
    bit: the CSV holds mse and stderr to 6 digits only."""
    cells = [
        (c.nu, c.estimator, np.float64(c.mse).tobytes(), np.float64(c.stderr).tobytes(), c.n_failed)
        for c in result.cells
    ]
    # a float's repr reads back to the same bits
    return cells, json.dumps(result.diagnostics, sort_keys=True)


def test_simulation_determinism_across_parallelism(tmp_path, pools):
    serial = run_simulation(SimConfig(**POOLED))
    assert serial.blocks == 4 and pools == []
    pooled = run_simulation(SimConfig(**POOLED, parallelism=2))
    assert pools == [2] and pooled.workers_used == 2
    serial.to_csv(tmp_path / "serial.csv")
    pooled.to_csv(tmp_path / "pooled.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()
    assert _full_precision(pooled) == _full_precision(serial)


def test_simulation_one_block_runs_without_a_pool(tmp_path, small_result, pools):
    result = run_simulation(SimConfig(**SMALL, parallelism=3))
    assert result.blocks == 1 and result.workers_used == 1
    assert pools == []
    small_result.to_csv(tmp_path / "serial.csv")
    result.to_csv(tmp_path / "par3.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "par3.csv").read_bytes()
    assert _full_precision(result) == _full_precision(small_result)


SCALE_ORDERS = list(itertools.permutations(("first", "trace", "det")))


def _run_bytes(tmp_path, config):
    """The CSV and metadata bytes of ``run_simulation(config)``, and its
    ``_full_precision`` figures."""
    result = run_simulation(config)
    result.to_csv(tmp_path / "run.csv")
    result.write_metadata(tmp_path / "run.meta.json")
    return (
        (tmp_path / "run.csv").read_bytes(),
        (tmp_path / "run.meta.json").read_bytes(),
        _full_precision(result),
    )


@pytest.mark.parametrize("base", [SMALL, {**POOLED, "parallelism": 2}], ids=["small", "pooled_par2"])
def test_simulation_memo_hit_writes_the_cold_bytes(tmp_path, base):
    # the scale-free half of the last run serves a run on another scale:
    # the same bytes as a run that computed it, in any order of the scales
    cold = {}
    for scale_kind in ("first", "trace", "det"):
        simulate._MEMO.clear()
        cold[scale_kind] = _run_bytes(tmp_path, SimConfig(**{**base, "scale_kind": scale_kind}))
    for order in SCALE_ORDERS:
        simulate._MEMO.clear()
        kept = None
        for scale_kind in order[:2]:
            assert _run_bytes(tmp_path, SimConfig(**{**base, "scale_kind": scale_kind})) == cold[scale_kind]
            ((tables, halves, served),) = simulate._MEMO.values()
            # a hit keeps the arrays it read
            assert kept is None or (tables, halves) == (kept[0], kept[1])
            kept = tables, halves
        assert served == set(order[:2])
        assert _run_bytes(tmp_path, SimConfig(**{**base, "scale_kind": order[2]})) == cold[order[2]]
        assert simulate._MEMO == {}  # every scale served: no run can read the slot


def _counting_tyler(monkeypatch):
    """The number of calls into the Tyler kernel, one per block computed."""
    calls = []
    real = simulate.tyler_fixed_point

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(simulate, "tyler_fixed_point", counting)
    return calls


# trials that fail on their own, as a pool worker sees them: on the first
# scale two R-steps of r_vdw at nu = 2.5 fail
FAILING = dict(m=3, n=7, nu_grid=(2.05, 2.5), trials=400, scale_kind="first", root_seed=11)


def test_simulation_with_failed_trials_writes_the_same_bytes(tmp_path, monkeypatch, pools):
    # cold against a memo hit, and serial against pooled
    calls = _counting_tyler(monkeypatch)
    simulate._MEMO.clear()
    cold_csv, cold_meta, cold_full = _run_bytes(tmp_path, SimConfig(**FAILING))
    assert json.loads(cold_meta)["failed_cells"] == [{"nu": 2.5, "estimator": "r_vdw", "n_failed": 2}]
    simulate._MEMO.clear()
    run_simulation(SimConfig(**{**FAILING, "scale_kind": "trace"}))
    assert _run_bytes(tmp_path, SimConfig(**FAILING)) == (cold_csv, cold_meta, cold_full)
    assert calls == [800, 800]  # the second run on the first scale was a hit
    # 4 blocks of 200 trials: two per worker at parallelism 2
    monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 200 * 3 * 7)
    metas = []
    for parallelism in (1, 2):
        csv_bytes, meta, full = _run_bytes(tmp_path, SimConfig(**FAILING, parallelism=parallelism))
        assert (csv_bytes, full) == (cold_csv, cold_full)
        metas.append(json.loads(meta))
    assert pools == [2]
    assert [(m["blocks"], m["workers_used"]) for m in metas] == [(4, 1), (4, 2)]
    for meta in metas:
        del meta["config"]["parallelism"], meta["workers_used"]
    assert metas[0] == metas[1]
    assert metas[0]["failed_cells"] == json.loads(cold_meta)["failed_cells"]


@pytest.mark.parametrize(
    "change",
    [
        {"root_seed": 12},
        {"trials": 31},
        {"nu_grid": (3.0, 9.0)},
        {"rho": 0.7},
        {"n": 101},
        "block_size",
        "tyler_max_iter",
        "tyler_tol",
    ],
    ids=str,
)
def test_simulation_memo_misses_when_the_scale_free_half_changes(monkeypatch, change):
    calls = _counting_tyler(monkeypatch)
    run_simulation(SimConfig(**SMALL))
    assert calls == [60]
    # neither the scale nor the parallelism enters the half
    run_simulation(SimConfig(**{**SMALL, "scale_kind": "det", "parallelism": 2}))
    assert calls == [60]
    config = SMALL
    if change == "block_size":
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 2**14)  # 40 trials per block
    elif change == "tyler_max_iter":
        monkeypatch.setattr(estimators, "TYLER_MAX_ITER", estimators.TYLER_MAX_ITER - 1)
    elif change == "tyler_tol":
        monkeypatch.setattr(estimators, "TYLER_TOL", 2 * estimators.TYLER_TOL)
    else:
        config = {**SMALL, **change}
        # the block size of SMALL, so that only the field differs
        size = simulate._block_size(SMALL["m"], SMALL["n"])
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", size * config["n"] * config["m"])
        assert simulate._block_size(config["m"], config["n"]) == size
    run_simulation(SimConfig(**{**config, "scale_kind": "first"}))
    assert len(calls) > 1
    computed = len(calls)
    run_simulation(SimConfig(**config))
    assert len(calls) == computed


def test_simulation_memo_repeated_scale_is_a_whole_run(tmp_path, monkeypatch):
    # the slot serves each scale of a run once: a repeated run, as in a
    # timing loop, samples and iterates Tyler again, and writes the same bytes
    calls = _counting_tyler(monkeypatch)
    first = _run_bytes(tmp_path, SimConfig(**SMALL))
    assert _run_bytes(tmp_path, SimConfig(**SMALL)) == first
    assert calls == [60, 60]
    run_simulation(SimConfig(**{**SMALL, "scale_kind": "det"}))
    assert _run_bytes(tmp_path, SimConfig(**SMALL)) == first
    assert calls == [60, 60, 60]
    run_simulation(SimConfig(**{**SMALL, "scale_kind": "first"}))
    assert calls == [60, 60, 60] and len(simulate._MEMO) == 1


def test_simulation_memo_reads_a_list_nu_grid(tmp_path, monkeypatch):
    # a directly built config may hold a list; it runs, and shares the slot
    # with the same grid as a tuple
    calls = _counting_tyler(monkeypatch)
    grid = list(SMALL["nu_grid"])
    listed = _run_bytes(tmp_path, SimConfig(**{**SMALL, "nu_grid": grid}))
    run_simulation(SimConfig(**{**SMALL, "scale_kind": "det"}))
    assert calls == [60]
    simulate._MEMO.clear()
    assert _run_bytes(tmp_path, SimConfig(**SMALL)) == listed


def test_simulation_memo_keeps_no_run_over_its_budget(monkeypatch):
    calls = _counting_tyler(monkeypatch)
    doubles = len(SMALL["nu_grid"]) * SMALL["trials"] * SMALL["n"] * SMALL["m"]
    monkeypatch.setattr(simulate, "MEMO_DOUBLES", doubles)
    run_simulation(SimConfig(**SMALL))
    assert len(simulate._MEMO) == 1  # at the budget
    monkeypatch.setattr(simulate, "MEMO_DOUBLES", doubles - 1)
    run_simulation(SimConfig(**{**SMALL, "root_seed": 12}))
    assert simulate._MEMO == {}  # a run over the budget empties the slot
    run_simulation(SimConfig(**{**SMALL, "root_seed": 12, "scale_kind": "det"}))
    assert simulate._MEMO == {} and calls == [60, 60, 60]


def test_simulation_memo_arrays_are_read_only():
    run_simulation(SimConfig(**SMALL))
    ((tables, halves, _),) = simulate._MEMO.values()
    for array in (tables, *halves[0]):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_simulation_at_a_huge_nu_fails_no_trial():
    # the matched t(nu) score of r_tnu is the van der Waerden score there
    result = run_simulation(SimConfig(**{**SMALL, "nu_grid": (5.0, 1e160), "trials": 10}))
    assert all(c.valid and c.n_failed == 0 for c in result.cells)
    mse = {(c.nu, c.estimator): c.mse for c in result.cells}
    assert mse[1e160, "r_tnu"] == mse[1e160, "r_vdw"]


def test_simulation_bounds_pure_functions_of_model(small_result):
    tiny = run_simulation(SimConfig(**{**SMALL, "trials": 1}))
    assert tiny.bounds == small_result.bounds


def test_simulation_stderr_of_one_trial_is_nan(tmp_path):
    result = run_simulation(SimConfig(**{**SMALL, "trials": 1}))
    assert all(np.isfinite(c.mse) and np.isnan(c.stderr) for c in result.cells)
    result.to_csv(tmp_path / "sim.csv")
    with open(tmp_path / "sim.csv") as fh:
        assert {r["stderr"] for r in csv.DictReader(fh)} == {"nan"}


def test_simulation_bound_traces_decrease_in_nu(small_result):
    # alpha(nu) increases along the t family and the bound scales as 1/alpha
    nus = sorted(small_result.bounds)
    traces = [small_result.bounds[nu][0] for nu in nus]
    assert traces == sorted(traces, reverse=True)
    m = SMALL["m"]
    alphas = [student_t(nu).alpha(m) for nu in nus]
    np.testing.assert_allclose(
        np.array(traces) * np.array(alphas),
        traces[0] * alphas[0],
        rtol=1e-12,
    )


def test_simulation_cells_have_positive_stderr(small_result):
    for cell in small_result.cells:
        assert cell.stderr > 0
        assert cell.valid


def test_simulation_csv_format(tmp_path, small_result):
    path = tmp_path / "sim.csv"
    small_result.to_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {
        "nu",
        "estimator",
        "mse",
        "stderr",
        "scrb_trace",
        "crb_param_trace",
    }
    names = {r["estimator"] for r in rows}
    assert names == {"scm", "tyler", "r_vdw", "r_t3", "r_tnu"}
    # bounds carry 17 significant digits
    scrb = small_result.bounds[3.0][0]
    assert float(rows[0]["scrb_trace"]) == pytest.approx(scrb, rel=1e-15)


def test_svg_chart_is_well_formed(tmp_path, small_result):
    path = tmp_path / "chart.svg"
    write_svg_chart(small_result, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == len(simulate.COLUMNS) + 2


def test_metadata_records_config(tmp_path, small_result):
    path = tmp_path / "m.json"
    small_result.write_metadata(path)
    meta = json.loads(path.read_text())
    assert meta["schema"] == 1
    assert meta["config"]["trials"] == SMALL["trials"]


def test_metadata_records_the_library_versions_and_cpu_count(tmp_path, small_result):
    path = tmp_path / "m.json"
    small_result.write_metadata(path)
    meta = json.loads(path.read_text())
    assert meta["numpy_version"] == np.__version__
    assert meta["scipy_version"] == scipy.__version__
    assert meta["cpu_count"] == os.cpu_count()


def test_metadata_records_blocks_and_workers(tmp_path, small_result):
    path = tmp_path / "m.json"
    small_result.write_metadata(path)
    meta = json.loads(path.read_text())
    assert meta["block_size"] == simulate._block_size(SMALL["m"], SMALL["n"]) == 163
    assert meta["blocks"] == 1
    assert meta["workers_used"] == 1
    assert [d["nu"] for d in meta["diagnostics"]] == list(SMALL["nu_grid"])
    for entry in meta["diagnostics"]:
        assert set(entry) == {
            "nu",
            "tyler_iterations_mean",
            "tyler_iterations_max",
            "tyler_residual_max",
            "tyler_failures",
            "r_rejections",
            "r_alpha_hat_mean",
            "alpha",
        }
        assert 1 <= entry["tyler_iterations_mean"] <= entry["tyler_iterations_max"] < 200
        assert 0.0 < entry["tyler_residual_max"] < estimators.TYLER_TOL
        assert entry["tyler_failures"] == 0
        assert set(entry["r_rejections"]) == {"vdw", "t3", "tnu"}
        assert all(0 <= k <= SMALL["trials"] for k in entry["r_rejections"].values())
        assert set(entry["r_alpha_hat_mean"]) == {"vdw", "t3", "tnu"}
        assert all(a > 0.0 for a in entry["r_alpha_hat_mean"].values())
        assert entry["alpha"] == student_t(entry["nu"]).alpha(SMALL["m"])


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------


def test_invariant_suite_fast_all_pass():
    report = run_invariant_suite("fast")
    assert report.all_passed, report.format_table()


def test_invariant_suite_negative_control(monkeypatch):
    monkeypatch.setattr(invariants, "duplication_matrix", _first_column_zeroed(duplication_matrix))
    report = run_invariant_suite("fast")
    failed = [e.name for e in report.entries if not e.passed]
    assert "matcalc.duplication_identities" in failed


def _scaled(fn, by=1e-6):
    return lambda *args, **kwargs: fn(*args, **kwargs) * (1 + by)


def _inflated(fn):
    # a Monte-Carlo band needs a perturbation many standard errors wide
    return _scaled(fn, 0.1)


def _forced_adaptive(fn):
    return lambda *args: dataclasses.replace(fn(*args), adaptive=True)


def _first_column_zeroed(fn):
    def corrupt(m):
        d = fn(m).copy()
        d[:, 0] = 0.0
        return d

    return corrupt


# per perturbed formula: its module, the perturbation, the tests and the
# ``verify`` entry whose shared ``invariants`` body reads it from there
NEGATIVE_CONTROLS = {
    "efficient_fim_shape": (fim, _scaled, [acceptance.test_criterion_1_restricted_adaptivity],
                            "scores_fim.restricted_adaptivity"),
    "crb_shape_det_root": (bounds, _scaled, [acceptance.test_criterion_2_crb_closed_forms],
                           "bounds.det_specializations"),
    "cces_lowrank_fim": (invariants, _scaled, [acceptance.test_criterion_8_complex_consistency],
                         "complex_ces.recipe_consistency"),
    "verify_adaptivity_by_fim": (invariants, _forced_adaptive,
                                 [acceptance.test_criterion_4_parameterized_adaptivity],
                                 "adaptivity.condition"),
    "duplication_matrix": (invariants, _first_column_zeroed,
                           [lambda: matcalc_tests.test_duplication_full_column_rank(3)],
                           "matcalc.duplication_rank"),
    # vec(V^-1) of M_S vec(V^-1), off by a relative 1e-6
    "vec": (invariants, _scaled, [fim_tests.test_projection_identity_coefficients],
            "scores_fim.projection_identity"),
    "jacobian_w": (invariants, _scaled,
                   [lambda: fim_tests.test_fim_vecs_sigma_chain_rule(invariants.DET_ROOT)],
                   "scores_fim.chain_rule"),
    # SFIM doubled: a gap at the Gaussian, and FIM - SFIM is not PSD for t
    "sfim_theta": (fim, lambda fn: _scaled(fn, 1.0),
                   [fim_tests.test_fim_theta_equals_sfim_for_gaussian,
                    fim_tests.test_fim_minus_sfim_psd_for_t], "scores_fim.loewner_ordering"),
    # the Gram's rank-one coefficient -1/m off by a relative 1e-6
    "_vecs_fill": (invariants, lambda fn: lambda a, b, c: fn(a, b, c * (1 + 1e-6)),
                   [estimator_tests.test_upsilon_annihilates_identity_direction],
                   "estimators.upsilon_annihilation"),
    # the R-step's closed-form step off by a relative 1e-6
    "_tangent_step": (estimators, _scaled,
                      [estimator_tests.test_upsilon_annihilates_identity_direction],
                      "estimators.upsilon_annihilation"),
    # the score at data 10% too wide: its mean is no longer zero
    "score_eta": (fim, lambda fn: lambda x, *rest: fn(1.1 * x, *rest),
                  [fim_tests.test_score_eta_zero_mean_monte_carlo], "mc.score_zero_mean"),
    "sample": (invariants, _inflated,
               [lambda: generator_tests.test_sample_mean_q_is_m(student_t(6)),
                generator_tests.test_sample_covariance_matches_toeplitz_scatter],
               "mc.sampling_moments"),
    "sigma_bar_from_complex": (invariants, _inflated,
                               [complex_tests.test_embedded_samples_reproduce_hermitian_covariance],
                               "mc.complex_sampling"),
}


@pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
def test_shared_invariant_bodies_negative_control(monkeypatch, name):
    """One formula perturbed: every test and the ``verify`` entry that call
    the shared body reading it fail."""
    module, corrupt, tests, entry = NEGATIVE_CONTROLS[name]
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    for test in tests:
        with pytest.raises(AssertionError):
            test()
    checks = [c for c in invariants.FAST_CHECKS + invariants.FULL_CHECKS if c[0] == entry]
    monkeypatch.setattr(invariants, "FAST_CHECKS", checks)
    [result] = run_invariant_suite("fast").entries
    assert not result.passed, result.detail


def test_invariant_suite_catches_a_singular_jacobian_w(monkeypatch):
    def corrupt(scale, v, s):
        jw = jacobian_w(scale, v, s)
        jw[:, -1] = jw[:, 0]
        return jw

    monkeypatch.setattr(invariants, "jacobian_w", corrupt)
    report = run_invariant_suite("fast")
    failed = {e.name: e.detail for e in report.entries if not e.passed}
    assert "jacobian_w is singular" in failed["scale_shape.geometry"]


def test_invariant_suite_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_invariant_suite("paranoid")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter: the test session itself has loaded scipy.stats
    src = os.path.dirname(os.path.dirname(ellipfim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, ellipfim.cli; print(' '.join(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "scipy.special" in loaded
    for module in ("scipy.stats", "scipy.integrate", "scipy.optimize"):
        assert module not in loaded


def _unused_imports(source):
    """Names a module imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder_sees_names_and_all():
    source = "import os, sys\nfrom math import pi, tau\n__all__ = ['tau']\nsys.exit(pi)\n"
    assert _unused_imports(source) == [(1, "os")]


def test_src_modules_have_no_unused_imports():
    src = os.path.dirname(ellipfim.__file__)
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                unused = _unused_imports(fh.read())
            if unused:
                found[name] = unused
    assert found == {}


def _defaulted(node):
    """(parameter, position in a call or None) for each defaulted parameter
    of a function node; ``self`` and ``cls`` take no position in a call."""
    a = node.args
    params = [p.arg for p in a.posonlyargs + a.args]
    skip = 1 if params[:1] in (["self"], ["cls"]) else 0
    for i in range(len(params) - len(a.defaults), len(params)):
        yield params[i], i - skip
    for p, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield p.arg, None


def _unset_options(sources):
    """``name(parameter)`` for each defaulted parameter of a function in
    ``sources`` that no call in ``sources`` sets, by position or keyword.

    Functions and calls are matched by name, and a call to a class is a
    call to its ``__init__``.  A call that passes an enclosing function's
    own option by name forwards it: the callee's parameter is set only
    where that option is.
    """
    options = {}  # (function, parameter) -> position in a call
    calls = []  # (call, the enclosing functions' options by parameter)

    def visit(node, scope, cls=None):
        if isinstance(node, ast.FunctionDef):
            name = cls if cls and node.name == "__init__" else node.name
            found = dict(_defaulted(node))
            options.update({(name, param): pos for param, pos in found.items()})
            scope = {**scope, **{param: (name, param) for param in found}}
        elif isinstance(node, ast.Call):
            calls.append((node, scope))
        inner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            visit(child, scope, inner)

    for source in sources:
        visit(ast.parse(source), {})
    done, forwards = set(), []
    for call, scope in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        keywords = {kw.arg: kw.value for kw in call.keywords}
        unpacked = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
        for (fn, param), pos in options.items():
            if fn != name:
                continue
            if param in keywords:
                value = keywords[param]
            elif pos is not None and pos < len(call.args):
                value = call.args[pos]
            elif unpacked:
                value = None
            else:
                continue
            if isinstance(value, ast.Name) and value.id in scope:
                forwards.append((scope[value.id], (fn, param)))
            else:
                done.add((fn, param))
    while new := {dst for src, dst in forwards if src in done} - done:
        done |= new
    return sorted(f"{fn}({param})" for fn, param in set(options) - done)


def test_unset_option_finder_sees_positions_keywords_and_forwarding():
    source = """
def f(a, b=1, *, c=2):
    return g(a, c)
def g(x, y=0):
    return x
def h(x, t=1):
    return k(x, y=t)
def k(x, y=0):
    return x
class K:
    def __init__(self, x=0):
        self.x = x
    def m(self, y=1, z=2):
        return y
f(1, 2)
h(1, t=3)
K(x=3)
K().m(5)
"""
    # f(c) is only forwarded to g(y); h(t) is set, so k(y) is set through it
    assert _unset_options([source]) == ["f(c)", "g(y)", "m(z)"]


def test_src_options_have_a_src_caller():
    src = os.path.dirname(ellipfim.__file__)
    sources = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                sources.append(fh.read())
    # the console script calls main() bare; tests pass argv
    assert _unset_options(sources) == ["main(argv)"]


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreferenced_definitions(defining, using):
    """``module.name`` for each module-level function or class of the
    ``defining`` sources (keyed by module) that no source of ``defining`` or
    ``using`` reads as a name, an attribute or an import, outside the
    definition itself; ``__all__`` strings are not reads."""
    defined = []
    readers = {}  # name -> {(module, enclosing definition)}; module None in ``using``
    for module, source in [*defining.items(), *((None, s) for s in using)]:
        for top in ast.parse(source).body:
            owner = top.name if isinstance(top, _DEFINITIONS) else None
            if owner and module is not None:
                defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                readers.setdefault(name, set()).add((module, owner))
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if readers.get(name, set()) <= {(module, name)}
    )


def test_unreferenced_definition_finder_sees_names_attributes_and_imports():
    defining = {
        "a": "__all__ = ['listed']\n"
        "def listed(): pass\n"
        "def recursive(n): return recursive(n)\n"
        "def by_name(): pass\n"
        "def by_attribute(): pass\n"
        "class ByImport: pass\n"
        "def at_top(): pass\n"
        "at_top()\n",
        "b": "from a import ByImport\nimport a\ndef f(): return a.by_attribute()\n",
    }
    using = ["print(by_name, f)"]
    # only __all__ lists `listed`, and `recursive` reads itself alone
    assert _unreferenced_definitions(defining, using) == ["a.listed", "a.recursive"]


def test_src_definitions_have_a_reference():
    src = os.path.dirname(ellipfim.__file__)
    root = os.path.dirname(os.path.dirname(src))
    defining, using = {}, []
    for folder in (src, *(os.path.join(root, d) for d in ("tests", "demos", "perfbench"))):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    text = fh.read()
                # the dense oracles are definitions too: one that no test reads is dead
                if folder == src or name == "dense_oracles.py":
                    defining[name[:-3]] = text
                else:
                    using.append(text)
    assert _unreferenced_definitions(defining, using) == []


def test_cli_simulate_and_outputs(tmp_path, capsys):
    assert run_cli(tmp_path, "simulate", {**SMALL, "trials": 10, "nu_grid": [5.0]}, "--svg") == 0
    assert (tmp_path / "out" / "simulation_trace.csv").exists()
    assert (tmp_path / "out" / "simulation_trace.meta.json").exists()
    assert (tmp_path / "out" / "simulation_trace.svg").exists()


def test_cli_simulate_overrides(tmp_path):
    flags = ("--nu", "6,9", "--trials", "5", "--scale", "first", "--seed", "3")
    assert run_cli(tmp_path, "simulate", {**SMALL, "trials": 10, "nu_grid": [5.0]}, *flags) == 0
    with open(tmp_path / "out" / "simulation_first.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["nu"] for r in rows} == {"6", "9"}


def test_cli_unknown_scale_exits_2(tmp_path, capsys):
    data = {**SMALL, "trials": 5, "nu_grid": [5.0]}
    assert run_cli(tmp_path, "simulate", data, "--scale", "frobenius") == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: scale_kind must be one of det, first, trace, got 'frobenius'\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_wrong_schema_exits_2(tmp_path):
    assert run_cli(tmp_path, "simulate", {"schema": 99, "trials": 5}) == 2


def test_cli_bounds_chain_table(tmp_path, capsys):
    data = {"m": 4, "scale": "det", "generator": {"family": "gaussian"},
            "sigma": {"kind": "identity"}}
    assert run_cli(tmp_path, "bounds", data) == 0
    out = capsys.readouterr().out
    assert "equality chain" in out
    assert (tmp_path / "out" / "bounds_det_gaussian.csv").exists()


def test_cli_bounds_deterministic_trace(tmp_path, capsys):
    data = {"m": 4, "scale": "first", "generator": {"family": "t", "nu": 6},
            "sigma": {"kind": "toeplitz", "rho": 0.8}}
    outputs = []
    for _ in range(2):
        assert run_cli(tmp_path, "bounds", data) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "trace(crb_shape)" in outputs[0]


def test_cli_adaptivity_reports(tmp_path, capsys):
    data = {"parameterization": {"name": "breaking", "m": 3}, "generator": {"family": "t", "nu": 8}}
    assert run_cli(tmp_path, "adaptivity", data) == 0
    out = capsys.readouterr().out
    assert "violated" in out
    assert "not adaptive" in out


_LINK_KEYS = {"name", "generator", "passed", "value", "tol"}


@pytest.mark.parametrize(
    "sigma, passed",
    [(toeplitz(0.8 ** np.arange(4)), True), (np.diag([1e-9, 1, 1, 1]), None)],
    ids=["toeplitz", "diag_1e-9"],
)
def test_cli_bounds_json_prints_the_table_numbers(tmp_path, capsys, sigma, passed):
    data = {"m": 4, "scale": "trace", "generator": {"family": "t", "nu": 6},
            "sigma": {"kind": "matrix", "values": sigma.tolist()}}
    assert run_cli(tmp_path, "bounds", data, "--json") == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    bset = bounds.bound_set(scale_by_name("trace"), sigma, student_t(6))
    assert (report["scale"], report["generator"], report["m"]) == ("trace", "t(6)", 4)
    assert report["trace_crb_shape"] == float(np.trace(bset.crb_shape))
    assert report["crb_scale"] == bset.crb_scale
    assert os.path.getsize(report["csv"]) > 0
    assert [set(link) for link in report["links"]] == [_LINK_KEYS, _LINK_KEYS]
    assert all(link["passed"] is passed and link["generator"] == "t(6)" for link in report["links"])
    # the unresolved run keeps its one warning line, on stderr only
    assert (captured.err != "") == (passed is None)
    assert run_cli(tmp_path, "bounds", data) == 0
    lines = capsys.readouterr().out.splitlines()
    for link, line in zip(report["links"], lines[1:3], strict=True):
        # a value that is not finite is JSON null; the table prints it as inf
        value = math.inf if link["value"] is None else link["value"]
        assert link["name"] in line and f"value={value:.3e}" in line
        assert line.endswith(f"(tol {link['tol']:.1e})")


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _first_link_unresolved(report):
    report.links[0].value, report.links[0].passed = math.inf, None
    return report


def _residual_infinite(report):
    report.condition.scaled_residual = np.full_like(report.condition.scaled_residual, np.inf)
    return report


@pytest.mark.parametrize(
    "command, data, patch, key",
    [pytest.param("bounds", {"m": 4, "scale": "trace", "generator": {"family": "t", "nu": 6},
                             "sigma": {"kind": "matrix",
                                       "values": np.diag([1e-9, 1, 1, 1]).tolist()}},
                  (bounds, "verify_chain", _first_link_unresolved), "value",
                  id="bounds_diag_1e-9"),
     # the condition report divides by a diagonal entry of the FIM that
     # underflows to 0 at gamma0 = 1e300: a known fault, kept a visible warning
     pytest.param("adaptivity", {"parameterization": {"name": "breaking", "gamma0": 1e300}},
                  (cli, "verify_adaptivity_by_fim", _residual_infinite), "condition_residual",
                  id="adaptivity_gamma0_1e300",
                  marks=pytest.mark.filterwarnings(
                      "default:divide by zero encountered in divide:RuntimeWarning"))],
)
def test_cli_json_writes_a_non_finite_number_as_null(
    tmp_path, capsys, monkeypatch, command, data, patch, key
):
    # each config prints an infinite number today (a link value, a condition
    # residual); the wrapper puts one in the command's report whether or not
    # that fault is mended, so the case checks only the JSON: the exit code
    # is kept and the number prints as null
    module, name, make_non_finite = patch
    computed = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: make_non_finite(computed(*args)))
    assert run_cli(tmp_path, command, data, "--json") == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    entry = report["links"][0] if command == "bounds" else report
    assert key in entry and entry[key] is None


def test_print_json_writes_a_nested_non_finite_number_as_null(capsys):
    # the --json reports are strict JSON: NaN and the infinities, at any
    # depth of dicts and lists, print as null
    _print_json({
        "nan": math.nan,
        "links": [{"value": math.inf, "passed": None}, {"value": 1.5, "passed": True}],
        "nested": {"list": [-math.inf, np.float64(np.nan), 2], "finite": -0.25},
    })
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report == {
        "nan": None,
        "links": [{"value": None, "passed": None}, {"value": 1.5, "passed": True}],
        "nested": {"list": [None, None, 2], "finite": -0.25},
    }


def test_cli_adaptivity_json_prints_the_verdicts(tmp_path, capsys):
    data = {"parameterization": {"name": "breaking", "m": 3}, "generator": {"family": "t", "nu": 8}}
    assert run_cli(tmp_path, "adaptivity", data, "--json") == 0
    report = json.loads(capsys.readouterr().out)
    want = parameterize.verify_adaptivity_by_fim(
        *parameterize.breaking_example(3, 0.5, 1.3), student_t(8)
    )
    assert report == {
        "name": "breaking", "q": 1, "r": 0, "generator": "t(8)",
        "condition_residual": float(want.condition.scaled_residual.max()),
        "tol": want.condition.tol, "satisfied": False, "gap": want.gap,
        "gap_rel": want.gap_rel, "adaptive": False,
    }


@pytest.mark.parametrize(
    "command, data",
    [("bounds", {"m": 2, "sigma": {"kind": "matrix", "values": [[1, 2], [2, 1]]}}),
     ("adaptivity", {"parameterization": {"name": "split", "q": 0}})],
    ids=["bounds_not_pd", "adaptivity_q0"],
)
def test_cli_json_config_error_prints_nothing(tmp_path, capsys, command, data):
    assert run_cli(tmp_path, command, data, "--json") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_cli_verify_fast(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    assert "invariant suite" in capsys.readouterr().out


@pytest.mark.parametrize("level", ["fast", "full"])
def test_cli_verify_json_lists_every_entry(capsys, level):
    assert main(["verify", "--level", level, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    checks = invariants.FAST_CHECKS + (invariants.FULL_CHECKS if level == "full" else [])
    assert (report["level"], report["all_passed"]) == (level, True)
    assert [e["name"] for e in report["entries"]] == [name for name, _ in checks]
    for e in report["entries"]:
        assert set(e) == {"name", "passed", "detail", "seconds"} and e["passed"] is True


def test_cli_verify_level_flag_reads_like_the_config_key(capsys):
    assert main(["verify", "--level", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: level must be one of fast, full, got 'bogus'\n"
    assert captured.out == ""


def test_cli_verify_json_keeps_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "FAST_CHECKS", [("broken", lambda: (False, "no"))])
    assert main(["verify", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False and report["entries"][0]["passed"] is False


# ---------------------------------------------------------------------------
# trial blocks and failure handling
# ---------------------------------------------------------------------------


def test_config_rejects_impossible_dimensions():
    with pytest.raises(ValueError):
        SimConfig(m=1, n=100)
    with pytest.raises(ValueError):
        SimConfig(m=4, n=3)
    with pytest.raises(ValueError):
        SimConfig(m=4, n=10)  # the R-step needs n > m(m+1)/2 = 10


@pytest.mark.parametrize(
    "extra",
    [
        {"parallelism": 0},
        {"parallelism": -2},
        {"trials": 2.5},
        {"m": 4.0},
        {"nu_grid": []},
        {"nu_grid": 5.0},
        {"nu_grid": ["3"]},
        {"nu_grid": [float("inf")]},
        {"nu_grid": [3, 3]},
    ],
    ids=[
        "parallelism0",
        "parallelism-2",
        "trials2.5",
        "m4.0",
        "empty_nu_grid",
        "scalar_nu_grid",
        "string_nu",
        "infinite_nu",
        "repeated_nu",
    ],
)
def test_cli_simulate_rejects_bad_config_values(tmp_path, capsys, extra):
    assert run_cli(tmp_path, "simulate", {**SMALL, "trials": 5, "nu_grid": [5.0], **extra}) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "nu_grid",
    [(float("inf"),), (3.0, -float("inf")), (float("nan"),), (3.0, 5.0, 3.0)],
    ids=["inf", "minus_inf", "nan", "repeated"],
)
def test_config_nu_grid_errors_name_the_key(nu_grid):
    with pytest.raises(ValueError, match="nu_grid"):
        SimConfig(nu_grid=nu_grid)


def test_config_integer_fields_reject_bool():
    with pytest.raises(ValueError, match="integer"):
        SimConfig(parallelism=True)
    with pytest.raises(ValueError, match="integer"):
        SimConfig(trials=np.int64(5))


def test_cli_simulate_impossible_config_exits_2(tmp_path, capsys):
    assert run_cli(tmp_path, "simulate", {**SMALL, "n": 3, "trials": 5, "nu_grid": [5.0]}) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "simulation_trace.csv").exists()


@pytest.mark.parametrize(
    "key, value", [("estimators", ["scm"]), ("scores", ["vdw"])], ids=["estimators", "scores"]
)
def test_cli_simulate_rejects_estimator_selection_keys(tmp_path, capsys, key, value):
    # the study's five estimators are fixed, so a config cannot pick them
    assert run_cli(tmp_path, "simulate", {**SMALL, "trials": 5, "nu_grid": [5.0], key: value}) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1 and key in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


DOMAIN_ERROR_CONFIGS = {
    "t_nu2": ("bounds", {"m": 4, "generator": {"family": "t", "nu": 2}}),
    "non_pd_scatter": (
        "bounds",
        {"m": 2, "sigma": {"kind": "matrix", "values": [[1, 2], [2, 1]]}},
    ),
    "low_rank_m2_p3": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "m": 2, "p": 3, "gamma": [0.1, 0.2, 0.3]}},
    ),
    "unknown_verify_level": ("verify", {"level": "bogus"}),
    # generalized-Gaussian functionals beyond the float range
    "gg_beta_overflow": ("bounds", {"m": 2, "generator": {"family": "gg", "shape": 1e-3}}),
    "gg_low_rank_overflow": (
        "adaptivity",
        {"parameterization": {"name": "low_rank"}, "generator": {"family": "gg", "shape": 1e-4}},
    ),
    # alpha and beta of gg(1e308) are about 1e307, and the FIM of theta overflows
    "gg_theta_fim_overflow": (
        "adaptivity",
        {"parameterization": {"name": "split"}, "generator": {"family": "gg", "shape": 1e308}},
    ),
    # a PD scatter whose scale bound, about s^2, overflows
    "bounds_huge_scatter": (
        "bounds",
        {"m": 2, "sigma": {"kind": "matrix", "values": [[1e308, 0], [0, 1e308]]}},
    ),
    # a PD scatter whose shape FIM, V^-1 (x) V^-1, overflows
    "bounds_fim_overflow": (
        "bounds",
        {"m": 4, "sigma": {"kind": "matrix", "values": np.diag([1, 1, 1, 1e-300]).tolist()}},
    ),
}


@pytest.mark.parametrize("case", sorted(DOMAIN_ERROR_CONFIGS))
def test_cli_domain_errors_exit_2_with_one_line(tmp_path, capsys, case):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(tmp_path, *DOMAIN_ERROR_CONFIGS[case]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))
    assert not caught and not (tmp_path / "out").exists()


BAD_CONFIG_VALUES = {
    "bounds_m_float": ("bounds", {"m": 4.7}, "m must be an integer"),
    "bounds_m_string": ("bounds", {"m": "4"}, "m must be an integer"),
    "bounds_m1": ("bounds", {"m": 1}, "m must be >= 2"),
    "bounds_scale_kind": ("bounds", {"m": 4, "scale_kind": "det"}, "scale_kind"),
    "bounds_rho_list": ("bounds", {"m": 4, "sigma": {"rho": [1]}}, "sigma.rho"),
    "bounds_nu_null": (
        "bounds",
        {"m": 4, "generator": {"family": "t", "nu": None}},
        "generator.nu",
    ),
    "bounds_generator_key": (
        "bounds",
        {"m": 4, "generator": {"family": "t", "nu": 5, "df": 3}},
        "df",
    ),
    "bounds_ragged_matrix": (
        "bounds",
        {"m": 2, "sigma": {"kind": "matrix", "values": [[1, 0], [0]]}},
        "sigma.values",
    ),
    "low_rank_m_float": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "m": 6.9, "p": 2}},
        "parameterization.m",
    ),
    "seed_list": (
        "adaptivity",
        {"parameterization": {"name": "split", "seed": [1]}},
        "parameterization.seed",
    ),
    "gamma0_null": (
        "adaptivity",
        {"parameterization": {"name": "breaking", "gamma0": None}},
        "parameterization.gamma0",
    ),
    "adaptivity_key": ("adaptivity", {"parameterization": {"name": "breaking"}, "gen": {}}, "gen"),
    "shape_scale_m1": (
        "adaptivity",
        {"parameterization": {"name": "shape_scale", "m": 1}},
        "parameterization.m must be >= 2",
    ),
    "split_m0": (
        "adaptivity",
        {"parameterization": {"name": "split", "m": 0}},
        "parameterization.m must be >= 1",
    ),
    "split_q0": (
        "adaptivity",
        {"parameterization": {"name": "split", "q": 0}},
        "parameterization.q must be >= 1",
    ),
    "breaking_m0": (
        "adaptivity",
        {"parameterization": {"name": "breaking", "m": 0}},
        "parameterization.m must be >= 1",
    ),
    "low_rank_p0": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "p": 0}},
        "parameterization.p must be >= 1",
    ),
    "split_rho_above_1": (
        "adaptivity",
        {"parameterization": {"name": "split", "rho": 1.5}},
        "parameterization.rho must lie in (-1, 1)",
    ),
    "shape_scale_rho_1": (
        "adaptivity",
        {"parameterization": {"name": "shape_scale", "rho": 1.0}},
        "parameterization.rho must lie in (-1, 1)",
    ),
    "shape_scale_s0": (
        "adaptivity",
        {"parameterization": {"name": "shape_scale", "s": 0}},
        "parameterization.s must lie in (0, inf)",
    ),
    "low_rank_noise0": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "noise": 0}},
        "parameterization.noise must lie in (0, inf)",
    ),
    "low_rank_noise_negative": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "noise": -1}},
        "parameterization.noise must lie in (0, inf)",
    ),
    "low_rank_m_negative": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "m": -3, "p": 1, "gamma": [0.6]}},
        "parameterization.m must be >= 1",
    ),
    "low_rank_m1": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "m": 1, "p": 1, "gamma": [0.6]}},
        "parameterization.m must satisfy",
    ),
    "breaking_rho2": (
        "adaptivity",
        {"parameterization": {"name": "breaking", "rho": 2}},
        "parameterization.rho must lie in (-1, 1)",
    ),
    "breaking_gamma0_negative": (
        "adaptivity",
        {"parameterization": {"name": "breaking", "gamma0": -1}},
        "parameterization.gamma0 must lie in (0, inf)",
    ),
    "breaking_gamma0_zero": (
        "adaptivity",
        {"parameterization": {"name": "breaking", "gamma0": 0}},
        "parameterization.gamma0 must lie in (0, inf)",
    ),
    "seed_negative": (
        "adaptivity",
        {"parameterization": {"name": "split", "seed": -1}},
        "parameterization.seed must be >= 0",
    ),
    "low_rank_gamma_nested": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "p": 1, "gamma": [[0.3]]}},
        "parameterization.gamma",
    ),
    "low_rank_gamma_length": (
        "adaptivity",
        {"parameterization": {"name": "low_rank", "p": 2, "gamma": [0.3]}},
        "parameterization.gamma",
    ),
    "verify_key": ("verify", {"level": "fast", "levle": "full"}, "levle"),
    "simulate_rho_null": ("simulate", {"rho": None}, "rho must be a real number"),
    "bounds_rho_above_1": ("bounds", {"m": 4, "sigma": {"rho": 1.5}}, "sigma.rho must lie in (-1, 1)"),
    "bounds_rho_minus_1": ("bounds", {"m": 4, "sigma": {"rho": -1}}, "sigma.rho must lie in (-1, 1)"),
    "simulate_rho_above_1": ("simulate", {"rho": 1.5}, "rho must lie in (-1, 1)"),
    "simulate_trials0": ("simulate", {"trials": 0}, "trials must be >= 1"),
    "simulate_parallelism0": ("simulate", {"parallelism": 0}, "parallelism must be >= 1"),
    "simulate_nu_below_2": ("simulate", {"nu_grid": [1.5]}, "nu_grid must lie in (2, inf)"),
    # a choice-valued key outside its choices reads the same in every subcommand
    "bounds_scale_unknown": ("bounds", {"m": 4, "scale": "frobenius"},
                             "scale must be one of det, first, trace, got 'frobenius'"),
    "simulate_scale_kind_unknown": ("simulate", {"scale_kind": "frobenius"},
                                    "scale_kind must be one of det, first, trace, got 'frobenius'"),
    "shape_scale_scale_unknown": (
        "adaptivity",
        {"parameterization": {"name": "shape_scale", "scale": "frobenius"}},
        "parameterization.scale must be one of det, first, trace, got 'frobenius'",
    ),
    "shape_scale_scale_list": (
        "adaptivity",
        {"parameterization": {"name": "shape_scale", "scale": ["det"]}},
        "parameterization.scale must be one of det, first, trace, got ['det']",
    ),
    "generator_family_unknown": (
        "bounds",
        {"m": 4, "generator": {"family": "cauchy"}},
        "generator.family must be one of gaussian, generalized_gaussian, gg, student_t, t, got 'cauchy'",
    ),
    "generator_family_missing": (
        "adaptivity",
        {"parameterization": {"name": "split"}, "generator": {"nu": 5}},
        "generator.family must be one of",
    ),
    "sigma_kind_unknown": ("bounds", {"m": 4, "sigma": {"kind": "band"}},
                           "sigma.kind must be one of identity, matrix, toeplitz, got 'band'"),
    "parameterization_name_unknown": (
        "adaptivity",
        {"parameterization": {"name": "foo"}},
        "parameterization.name must be one of breaking, low_rank, shape_scale, split, got 'foo'",
    ),
    "parameterization_name_null": ("adaptivity", {"parameterization": {"name": None}},
                                   "parameterization.name must be one of"),
    "verify_level_list": ("verify", {"level": ["fast"]}, "level must be one of fast, full, got ['fast']"),
    "schema_true": ("verify", {"schema": True}, "schema must be an integer, got True"),
    "schema_float": ("bounds", {"schema": 1.0, "m": 4}, "schema must be an integer, got 1.0"),
    "schema_missing": ("adaptivity", {"schema": None}, "schema must be an integer, got None"),
    "schema_2": ("simulate", {"schema": 2}, "schema must be 1, got 2"),
    "bounds_m_missing": ("bounds", {}, "m must be an integer, got None"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_cli_bad_config_values_exit_2_naming_the_key(tmp_path, capsys, case):
    command, data, named = BAD_CONFIG_VALUES[case]
    assert run_cli(tmp_path, command, data) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("config error:") and named in line
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "bounds", "adaptivity", "verify"])
def test_cli_directory_as_config_exits_2_with_one_line(tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "out")] if command in ("bounds", "simulate") else []
    assert main([command, "--config", str(tmp_path), *out]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: IsADirectoryError:") and captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, data",
    [("simulate", {**SMALL, "trials": 5, "nu_grid": [5.0]}), ("bounds", {"m": 4})],
)
def test_cli_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, data):
    # the mkdir that fails on a file comes after the study (simulate) or the
    # bounds and chain (bounds)
    def no_work(*args):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "run_simulation", no_work)
    monkeypatch.setattr(bounds, "bound_set", no_work)
    (tmp_path / "out").write_text("kept")
    assert run_cli(tmp_path, command, data) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line == f"error: NotADirectoryError: --out {tmp_path / 'out'} exists and is not a directory"
    assert captured.out == "" and (tmp_path / "out").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]


def _non_finite_configs():
    for value in (float("nan"), float("inf"), -float("inf")):
        for family, key in (("t", "nu"), ("gg", "shape")):
            gen = {"family": family, key: value}
            yield f"bounds_{family}_{value}", "bounds", {"m": 4, "generator": gen}, f"generator.{key}"
            adapt = {"parameterization": {"name": "breaking"}, "generator": gen}
            yield f"adaptivity_{family}_{value}", "adaptivity", adapt, f"generator.{key}"
        yield f"bounds_rho_{value}", "bounds", {"m": 4, "sigma": {"rho": value}}, "sigma.rho"
    # a JSON integer literal beyond the float range
    yield "bounds_rho_huge_int", "bounds", {"m": 4, "sigma": {"rho": 10**400}}, "sigma.rho"


NON_FINITE_CONFIGS = {case: rest for case, *rest in _non_finite_configs()}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CONFIGS))
def test_cli_non_finite_config_numbers_exit_2_with_one_line(tmp_path, capsys, case):
    command, data, named = NON_FINITE_CONFIGS[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(tmp_path, command, data) == 2  # NaN and Infinity literals
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"config error: {named} must be finite")
    assert captured.out == "" and not caught
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# one small valid config per subcommand and spec kind, whose every field the
# fuzzer below replaces: at m <= 3, n = 8 and two trials each run is cheap
FUZZ_BASES = [
    ("simulate", {"m": 2, "n": 8, "rho": 0.5, "nu_grid": [5.0], "trials": 2,
                  "scale_kind": "det", "root_seed": 3, "parallelism": 1}),
    ("bounds", {"m": 3, "scale": "trace", "generator": {"family": "t", "nu": 6},
                "sigma": {"kind": "toeplitz", "rho": 0.5}}),
    ("bounds", {"m": 2, "scale": "first", "generator": {"family": "gg", "shape": 0.7},
                "sigma": {"kind": "matrix", "values": [[2.0, 0.5], [0.5, 1.0]]}}),
    ("bounds", {"m": 2, "scale": "det", "generator": {"family": "gaussian"},
                "sigma": {"kind": "identity"}}),
    ("adaptivity", {"parameterization": {"name": "split", "seed": 1, "m": 3, "q": 1, "rho": 0.5},
                    "generator": {"family": "t", "nu": 8}}),
    ("adaptivity", {"parameterization": {"name": "low_rank", "seed": 1, "m": 3, "p": 1,
                                         "gamma": [0.6], "noise": 0.8}}),
    ("adaptivity", {"parameterization": {"name": "shape_scale", "m": 3, "scale": "det",
                                         "rho": 0.5, "s": 1.5}}),
    ("adaptivity", {"parameterization": {"name": "breaking", "m": 2, "rho": 0.5, "gamma0": 1.3},
                    "generator": {"family": "gg", "shape": 2.0}}),
    ("verify", {"level": "fast"}),
]
# sizes are drawn no larger than this: a drawn 10**30 trials or m would
# allocate without bound, and a drawn parallelism would start a pool
FUZZ_SIZES, FUZZ_MAX_SIZE = ("m", "n", "trials", "parallelism", "p", "q"), 6


def _fields(data, path=()):
    """The path of every dict value and list item of ``data``, at any depth."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


FUZZ_FIELDS = [(command, base, path) for command, base in FUZZ_BASES for path in _fields(base)]
_JSON_LEAVES = st.sampled_from(
    [None, True, False, "", "x", "4", 0, 1, 3, 0.0, -0.0, 4.7, -4.7, 1e308, -1e308,
     float("nan"), float("inf"), -float("inf"), 10**30, -(10**30)]
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda items: st.lists(items, max_size=2) | st.dictionaries(st.sampled_from(["m", "nu", "x"]), items, max_size=2),
    max_leaves=4,
)


def _small(value):
    return not isinstance(value, int) or isinstance(value, bool) or value <= FUZZ_MAX_SIZE


@given(st.sampled_from(FUZZ_FIELDS), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_config_fuzzer_exits_0_1_or_2_and_writes_nothing_on_2(tmp_path_factory, field, data):
    # a drawn JSON value in one field of a valid config: the command ends with
    # its documented exit code and no traceback, and on exit 2 prints nothing
    # on stdout and writes nothing
    command, base, path = field
    values = _JSON_VALUES.filter(_small) if path[-1] in FUZZ_SIZES else _JSON_VALUES
    config = json.loads(json.dumps(base))
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(values, label=".".join(map(str, path)))
    tmp = tmp_path_factory.mktemp("fuzz")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_cli(tmp, command, config)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and [p.name for p in tmp.iterdir()] == ["cfg.json"]


def test_cli_bounds_at_huge_nu_writes_no_nan(tmp_path, capsys):
    assert run_cli(tmp_path, "bounds", {"m": 4, "generator": {"family": "t", "nu": 1e300}}) == 0
    [csv_path] = (tmp_path / "out").glob("*.csv")
    assert "nan" not in csv_path.read_text().lower()


def test_cli_adaptivity_overflowing_theta_fim_names_it(tmp_path, capsys):
    # the overflow is named, where cho_factor's "array must not contain
    # infs or NaNs" was printed
    data = {"parameterization": {"name": "split"}, "generator": {"family": "gg", "shape": 1e308}}
    assert run_cli(tmp_path, "adaptivity", data) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: ValueError: the FIM of theta under gg(1e+308) is not finite"


@pytest.mark.parametrize(
    "name, shape, verdict",
    [("breaking", 1e308, "-> not adaptive"), ("split", 1e-3, "-> adaptive")],
)
def test_cli_adaptivity_fim_gap_squares_no_entry_beyond_the_float_range(
    tmp_path, capsys, name, shape, verdict
):
    # efficient interest FIMs with entries near 1e308 (breaking) and above
    # 1e154 (split), whose squares overflow: the gap is taken in units of
    # the largest entry, so it and its ratio stay finite, with no warning
    data = {"parameterization": {"name": name}, "generator": {"family": "gg", "shape": shape}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(tmp_path, "adaptivity", data) == 0
        text = capsys.readouterr()
        assert run_cli(tmp_path, "adaptivity", data, "--json") == 0
        report = json.loads(capsys.readouterr().out)
    assert text.err == ""
    [gap_line] = [line for line in text.out.splitlines() if line.startswith("efficient-FIM gap")]
    assert gap_line.endswith(verdict)
    assert math.isfinite(report["gap_rel"]) and report["adaptive"] is (name == "split")


@pytest.mark.parametrize("flags", [(), ("--seed", "-1")], ids=["config", "flag"])
def test_cli_simulate_rejects_a_negative_root_seed(tmp_path, capsys, flags):
    data = {**SMALL, "trials": 5, "nu_grid": [5.0]}
    if not flags:
        data["root_seed"] = -1
    assert run_cli(tmp_path, "simulate", data, *flags) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line == "config error: root_seed must be >= 0, got -1"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("rho", [0.9999999, 0.99999999])
@pytest.mark.parametrize("m", [4, 8])
def test_cli_adaptivity_det_shape_near_singular_is_adaptive(tmp_path, capsys, m, rho):
    # [V]_11 rebuilt from the Schur complement keeps S(V) = 1; the cofactor
    # form missed it by 8.6e-4 at m = 4, rho = 0.9999999
    spec = {"name": "shape_scale", "m": m, "scale": "det", "rho": rho}
    assert run_cli(tmp_path, "adaptivity", {"parameterization": spec}) == 0
    assert "-> adaptive" in capsys.readouterr().out


def test_cli_adaptivity_overflowing_geometry_is_one_error_line(tmp_path, capsys):
    # Sigma = s V with s = 1e-200 against Sigma_s = V: the whitened Gram
    # entry of the scale is m / s^2, beyond the float range
    spec = {"name": "shape_scale", "s": 1e-200}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(tmp_path, "adaptivity", {"parameterization": spec}) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ValueError:") and "not finite" in line
    assert captured.out == "" and not caught


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "shape_scale", "m": 2},
        {"name": "split", "m": 1, "q": 1},
        {"name": "breaking", "m": 1},
        {"name": "low_rank", "m": 2, "p": 1, "gamma": [0.6]},
    ],
    ids=lambda spec: spec["name"],
)
def test_cli_adaptivity_smallest_valid_models_exit_0(tmp_path, capsys, spec):
    assert run_cli(tmp_path, "adaptivity", {"parameterization": spec}) == 0
    assert "efficient-FIM gap" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "split", "rho": -0.99},
        {"name": "shape_scale", "rho": 0.99, "s": 1e-3},
        {"name": "low_rank", "m": 3, "p": 2, "noise": 1e-3},
        {"name": "breaking", "rho": -0.5, "gamma0": 1e-3},
    ],
    ids=lambda spec: spec["name"],
)
def test_cli_adaptivity_reals_inside_their_range_exit_0(tmp_path, capsys, spec):
    assert run_cli(tmp_path, "adaptivity", {"parameterization": spec}) == 0
    assert "efficient-FIM gap" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, key", [("breaking", "gamma0"), ("shape_scale", "s"), ("low_rank", "noise")]
)
def test_cli_adaptivity_verdicts_do_not_depend_on_units(tmp_path, capsys, name, key):
    # r_i and sqrt(I_theta[i, i]) both have the units of 1 / theta_i
    verdicts = set()
    for value in (1e-9, 1e-3, 1.0, 1e3, 1e9):
        spec = {"name": name, "seed": 5, key: value}
        assert run_cli(tmp_path, "adaptivity", {"parameterization": spec}) == 0, value
        out = capsys.readouterr().out
        satisfied, adaptive = "-> satisfied" in out, "-> adaptive" in out
        assert satisfied == adaptive, (value, out)
        verdicts.add(satisfied)
    assert verdicts == {name != "breaking"}


# the dense Sigma with cond ~ 1.0e4 on which the chain failed on all three scales
DENSE_COND_1E4 = [
    [0.612475, -0.220086, 0.324851, -0.288695],
    [-0.220086, 0.875007, 0.184492, -0.163958],
    [0.324851, 0.184492, 0.727688, 0.242004],
    [-0.288695, -0.163958, 0.242004, 0.784931],
]
_CHAIN_GENERATORS = {
    "gaussian": {"family": "gaussian"},
    "t6": {"family": "t", "nu": 6},
    "gg0.5": {"family": "gg", "shape": 0.5},
}
_CHAIN_SCATTERS = {
    **{
        f"diag_1e-{k}": {"kind": "matrix", "values": np.diag([1, 1, 1, 10.0**-k]).tolist()}
        for k in range(1, 13)
    },
    "identity": {"kind": "identity"},
}
CHAIN_SWEEP = {
    **{
        f"{name}-{gen}": (4, sigma, spec)
        for name, sigma in _CHAIN_SCATTERS.items()
        for gen, spec in _CHAIN_GENERATORS.items()
    },
    "dense_cond_1e4-t6": (4, {"kind": "matrix", "values": DENSE_COND_1E4}, {"family": "t", "nu": 6}),
    # the rank-one gap scales like 1 / alpha, about 1e-200 here
    "toeplitz-gg1e200": (4, {"kind": "toeplitz", "rho": 0.8}, {"family": "gg", "shape": 1e200}),
    "toeplitz_m32-gaussian": (32, {"kind": "toeplitz", "rho": 0.8}, {"family": "gaussian"}),
}


@pytest.mark.parametrize("scale", ["first", "trace", "det"])
@pytest.mark.parametrize("case", sorted(CHAIN_SWEEP))
def test_cli_bounds_chain_holds_on_well_posed_scatters(tmp_path, capsys, case, scale):
    # a true chain is not a check failure, however small the gap or
    # ill-conditioned V; only the dense cond-1e4 scatter is beyond what float
    # can resolve, and it is reported so
    m, sigma, generator = CHAIN_SWEEP[case]
    data = {"m": m, "scale": scale, "generator": generator, "sigma": sigma}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(tmp_path, "bounds", data)
    out = capsys.readouterr().out
    assert code == 0, out
    assert not caught and "FAIL" not in out
    assert ("[unresolved]" in out) == case.startswith("dense_cond_1e4"), out


@pytest.mark.parametrize(
    "sigma, warned",
    [({"kind": "matrix", "values": np.diag([1e-9, 1, 1, 1]).tolist()}, True),
     ({"kind": "identity"}, False)],
    ids=["diag_1e-9", "identity"],
)
def test_cli_bounds_warns_once_of_unresolved_links(tmp_path, capsys, sigma, warned):
    assert run_cli(tmp_path, "bounds", {"m": 4, "scale": "trace", "sigma": sigma}) == 0
    csv_path = tmp_path / "out" / "bounds_trace_gaussian.csv"
    assert csv_path.stat().st_size > 0
    captured = capsys.readouterr()
    count = captured.out.count("[unresolved]")
    assert (count > 0) == warned
    if warned:
        [line] = captured.err.splitlines()
        assert line.startswith(f"warning: {count} chain link(s) [unresolved]")
        assert str(csv_path) in line
    else:
        assert captured.err == ""


def test_cli_failing_chain_keeps_exit_1(tmp_path, capsys, monkeypatch):
    real = bounds.verify_chain

    def failing_chain(*args, **kwargs):
        report = real(*args, **kwargs)
        report.links[0].passed = False
        return report

    monkeypatch.setattr(bounds, "verify_chain", failing_chain)
    assert run_cli(tmp_path, "bounds", {"m": 3, "scale": "det"}) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("scale_kind", ["first", "det"])
def test_trial_block_rows_independent_of_block_boundaries(scale_kind):
    config = SimConfig(**{**SMALL, "scale_kind": scale_kind})
    tables = simulate._score_tables(config)
    total = len(SMALL["nu_grid"]) * SMALL["trials"]
    whole, half = simulate._trial_block(config, tables, 0, total)
    assert [a.shape for a in whole] == [(total, 5), (total,), (total,), (total, 3), (total, 3)]
    assert half is None  # kept only when asked
    for size in (1, 7, 13):
        parts = [
            simulate._trial_block(config, tables, start, min(start + size, total))[0]
            for start in range(0, total, size)
        ]
        for got, want in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(got), want)
    # trials 25..34 hold the last five of nu = 3 and the first five of nu = 8
    for got, want in zip(simulate._trial_block(config, tables, 25, 35)[0], whole):
        assert np.array_equal(got, want[25:35])


def test_score_tables_built_once_per_distinct_score(monkeypatch):
    config = SimConfig(**{**SMALL, "nu_grid": (2.1, 3.0, 5.0, 10.0, 20.0)})
    calls = []
    real = ScoreFunction.table

    def counting(self, n, m):
        calls.append(self.key())
        return real(self, n, m)

    monkeypatch.setattr(ScoreFunction, "table", counting)
    tables = simulate._score_tables(config)
    # vdw, t3, and tnu at the four nu other than 3, where it is t3
    assert len(calls) == len(set(calls)) == 6
    monkeypatch.undo()
    assert tables.shape == (3, 5, config.n)
    for i, nu in enumerate(config.nu_grid):
        for s, score in enumerate(simulate._scores(nu)):
            assert np.array_equal(tables[s, i], score.table(config.n, config.m))
    assert np.array_equal(tables[2, 1], tables[1, 1])  # tnu at nu = 3 is t3


def test_block_data_is_the_per_trial_draw():
    config = SimConfig(**SMALL)
    data, nu_idx = simulate._block_data(config, 25, 35)
    assert list(nu_idx) == [0] * 5 + [1] * 5
    for row, k in enumerate(range(25, 35)):
        i, t = divmod(k, config.trials)
        want = sample(
            config.n,
            np.zeros(config.m),
            config.sigma0,
            student_t(config.nu_grid[i]),
            seed=(config.root_seed, i, t),
        )
        assert np.array_equal(data[row], want)


def test_nonconverging_tyler_counts_as_trial_failure(monkeypatch):
    config = SimConfig(**SMALL)
    scale = scale_by_name(config.scale_kind)
    iterations = {
        nu: tyler_batch(
            np.stack(
                [
                    sample(config.n, np.zeros(config.m), config.sigma0, student_t(nu),
                           seed=(config.root_seed, nu_idx, t))
                    for t in range(config.trials)
                ]
            ),
            scale,
        )[1]
        for nu_idx, nu in enumerate(config.nu_grid)
    }
    cap = int(np.median(np.concatenate(list(iterations.values()))))
    monkeypatch.setattr(estimators, "TYLER_MAX_ITER", cap)
    result = run_simulation(config)
    for nu, diagnostics in zip(config.nu_grid, result.diagnostics):
        slow = int((iterations[nu] > cap).sum())
        assert 0 < slow < config.trials
        assert diagnostics["tyler_failures"] == slow
        assert diagnostics["tyler_iterations_max"] <= cap
        assert diagnostics["tyler_residual_max"] < estimators.TYLER_TOL
        # a step from a failed preliminary fails; it is not a rejection
        assert diagnostics["r_rejections"] == {"vdw": 0, "t3": 0, "tnu": 0}
        assert result.cell(nu, "scm").n_failed == 0
        for name in ("tyler", "r_vdw", "r_t3", "r_tnu"):
            assert result.cell(nu, name).n_failed == slow
            assert np.isfinite(result.cell(nu, name).mse)


def test_diagnostics_report_no_residual_without_a_converged_trial(monkeypatch):
    monkeypatch.setattr(estimators, "TYLER_MAX_ITER", 1)
    result = run_simulation(SimConfig(**{**SMALL, "trials": 3}))
    for diagnostics in result.diagnostics:
        assert diagnostics["tyler_failures"] == 3
        assert diagnostics["tyler_residual_max"] is None
        assert diagnostics["tyler_iterations_mean"] is None
        assert diagnostics["r_alpha_hat_mean"] == {"vdw": None, "t3": None, "tnu": None}


def test_diagnostics_read_the_tyler_tolerance_at_call_time(monkeypatch):
    # the diagnostics count as converged what the kernel stopped on
    monkeypatch.setattr(estimators, "TYLER_TOL", 1e-6)
    result = run_simulation(SimConfig(**SMALL))
    for nu, diagnostics in zip(SMALL["nu_grid"], result.diagnostics):
        assert diagnostics["tyler_failures"] == result.cell(nu, "tyler").n_failed == 0
        assert 1e-10 < diagnostics["tyler_residual_max"] < 1e-6


@pytest.mark.parametrize("scale_kind", ["first", "trace", "det"])
def test_run_bounds_equal_the_public_bounds_bit_for_bit(scale_kind):
    # the same operations per nu; the scale-known bound is the closed form
    # SCRB - u u^T
    config = SimConfig(**{**SMALL, "scale_kind": scale_kind, "nu_grid": (2.1, 3.0, 50.0)})
    scale = scale_by_name(scale_kind)
    v0 = decompose(scale, config.sigma0).v
    got = simulate._bounds(config)
    assert list(got) == list(config.nu_grid)
    for nu in config.nu_grid:
        gen = student_t(nu)
        trace = float(np.trace(crb_shape(scale, v0, gen)))
        u = bounds._scale_known_gap(scale, v0, gen)
        assert got[nu] == (trace / config.n, (trace - float(u @ u)) / config.n)


def mp_scale_known_trace(v, scale_kind, alpha, dps=50):
    """trace(I_V^-1) at dps digits, I_V the FIM of ovecs(V) with s = 1 known.

    I_V = K^T F K: F = D_m^T [(alpha / 2)(W (x) W) + ((alpha - 1) / 4)
    vec(W) vec(W)^T] D_m with W = V^-1 is the FIM of vecs(Sigma) at
    Sigma = V, and K = [k^T; I] with k = -d_S / d_S[0] the implicit
    gradient of [V]_11 on S(V) = 1, d_S = D_m^T vec(D_S)."""
    with mpmath.workdps(dps):
        m = v.shape[0]
        w = mpmath.matrix(v.tolist()) ** -1
        if scale_kind == "first":
            grad = mpmath.zeros(m)
            grad[0, 0] = 1
        else:
            grad = mpmath.eye(m) if scale_kind == "trace" else w
        pairs = [(i, j) for j in range(m) for i in range(j, m)]  # vecs order
        sym = [{(i, j), (j, i)} for i, j in pairs]
        y = [sum(w[a, b] for a, b in p) for p in sym]
        d_s = [sum(grad[a, b] for a, b in p) for p in sym]
        alpha = mpmath.mpf(alpha)
        f = mpmath.matrix(len(pairs))
        for r, p in enumerate(sym):
            for c, q in enumerate(sym):
                kron = sum(w[a, cc] * w[b, dd] for a, b in p for cc, dd in q)
                f[r, c] = alpha / 2 * kron + (alpha - 1) / 4 * y[r] * y[c]
        d = len(pairs) - 1
        k = mpmath.matrix(d + 1, d)
        for c in range(d):
            k[0, c] = -d_s[c + 1] / d_s[0]
            k[c + 1, c] = 1
        inv = (k.T * f * k) ** -1
        return sum(inv[i, i] for i in range(d))


@pytest.mark.parametrize(
    "scale_kind, m", [("first", 4), ("trace", 4), ("det", 4), ("det", 10)]
)
def test_run_scale_known_bound_against_mpmath(scale_kind, m):
    # the closed form SCRB - u u^T, not a float inverse of I_V
    nu_grid = (2.1, 6.0, 50.0) if m == 4 else (6.0,)
    config = SimConfig(**{**SMALL, "m": m, "scale_kind": scale_kind, "nu_grid": nu_grid})
    v0 = decompose(scale_by_name(scale_kind), config.sigma0).v
    got = simulate._bounds(config)
    for nu in nu_grid:
        # alpha of t(nu) in exact arithmetic, (m + nu) / (m + nu + 2)
        alpha = mpmath.mpf(m + nu) / (m + nu + 2)
        exact = mp_scale_known_trace(v0, scale_kind, alpha) / config.n
        assert abs(got[nu][1] / exact - 1) <= 1e-15, nu


def test_run_at_huge_nu_fails_no_trial():
    # (nu - 2) chi2_m overflowed at nu = 1e308 and failed every trial
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_simulation(SimConfig(**{**SMALL, "nu_grid": (1e308,), "trials": 10}))
    assert not caught
    assert [c.n_failed for c in result.cells] == [0] * len(simulate.COLUMNS)


def test_diagnostics_count_the_rejected_r_steps_per_score(monkeypatch):
    def reject_vdw(data, v, scale, tables):
        v_new, alpha_hat, rejected = r_step_batch(data, v, scale, tables)
        rejected = np.zeros_like(rejected)
        rejected[0] = True
        return v_new, alpha_hat, rejected

    monkeypatch.setattr(simulate, "r_step_batch", reject_vdw)
    result = run_simulation(SimConfig(**SMALL))
    for diagnostics in result.diagnostics:
        assert diagnostics["r_rejections"] == {"vdw": SMALL["trials"], "t3": 0, "tnu": 0}


def test_unexpected_error_propagates(monkeypatch):
    def broken(self, u, m):
        raise TypeError("score bug")

    monkeypatch.setattr(VanDerWaerden, "__call__", broken)
    with pytest.raises(TypeError, match="score bug"):
        run_simulation(SimConfig(**{**SMALL, "trials": 3}))


def test_diagnostics_average_alpha_hat_over_the_steps_taken(monkeypatch):
    # the steps of a failed preliminary and the rejected steps are left out
    def reject_some(data, v, scale, tables):
        v_new, alpha_hat, rejected = r_step_batch(data, v, scale, tables)
        alpha_hat[0, ::3] = -1.0
        alpha_hat[1, ::4] = np.nan
        return v_new, alpha_hat, rejected

    monkeypatch.setattr(simulate, "r_step_batch", reject_some)
    config = SimConfig(**SMALL)
    total = len(SMALL["nu_grid"]) * SMALL["trials"]
    alpha_hat = simulate._trial_block(config, simulate._score_tables(config), 0, total)[0][4]
    result = run_simulation(config)
    for nu_idx, diagnostics in enumerate(result.diagnostics):
        rows = alpha_hat[nu_idx * SMALL["trials"] : (nu_idx + 1) * SMALL["trials"]]
        for s, score in enumerate(simulate.SCORES):
            taken = rows[:, s][np.isfinite(rows[:, s]) & (rows[:, s] > 0.0)]
            if score != "tnu":
                assert taken.size < SMALL["trials"]
            assert diagnostics["r_alpha_hat_mean"][score] == float(taken.mean())
        # the matched score's slope estimates the generator's alpha(m)
        tnu = diagnostics["r_alpha_hat_mean"]["tnu"]
        assert abs(tnu / diagnostics["alpha"] - 1.0) < 0.25
