import ast
import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import ellipfim
import test_acceptance as acceptance
from ellipfim import bounds, estimators, fim, invariants, simulate
from ellipfim.cli import main
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


def write_config(path, **extra):
    data = {"schema": 1, **SMALL, **extra}
    data["nu_grid"] = list(data["nu_grid"])
    path.write_text(json.dumps(data))


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


def test_simulation_determinism_across_parallelism(tmp_path, pools):
    serial = run_simulation(SimConfig(**POOLED))
    assert serial.blocks == 4 and pools == []
    pooled = run_simulation(SimConfig(**POOLED, parallelism=2))
    assert pools == [2] and pooled.workers_used == 2
    serial.to_csv(tmp_path / "serial.csv")
    pooled.to_csv(tmp_path / "pooled.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()
    assert pooled.diagnostics == serial.diagnostics


def test_simulation_one_block_runs_without_a_pool(tmp_path, small_result, pools):
    result = run_simulation(SimConfig(**SMALL, parallelism=3))
    assert result.blocks == 1 and result.workers_used == 1
    assert pools == []
    small_result.to_csv(tmp_path / "serial.csv")
    result.to_csv(tmp_path / "par3.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "par3.csv").read_bytes()


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
    def corrupt(m):
        d = duplication_matrix(m).copy()
        d[0, 0] = 0.0
        return d

    monkeypatch.setattr(invariants, "duplication_matrix", corrupt)
    report = run_invariant_suite("fast")
    failed = [e.name for e in report.entries if not e.passed]
    assert "matcalc.duplication_identities" in failed


def _scaled(fn):
    return lambda *args: fn(*args) * (1 + 1e-6)


def _forced_adaptive(fn):
    return lambda *args: dataclasses.replace(fn(*args), adaptive=True)


@pytest.mark.parametrize(
    "module, name, corrupt, criterion, entry",
    [
        (fim, "efficient_fim_shape", _scaled, "test_criterion_1_restricted_adaptivity",
         "scores_fim.restricted_adaptivity"),
        (bounds, "crb_shape_det_root", _scaled, "test_criterion_2_crb_closed_forms",
         "bounds.det_specializations"),
        (invariants, "cces_lowrank_fim", _scaled, "test_criterion_8_complex_consistency",
         "complex_ces.recipe_consistency"),
        (invariants, "verify_adaptivity_by_fim", _forced_adaptive,
         "test_criterion_4_parameterized_adaptivity", "adaptivity.condition"),
    ],
    ids=["efficient_fim_shape", "crb_shape_det_root", "cces_lowrank_fim", "verify_adaptivity_by_fim"],
)
def test_shared_invariant_bodies_negative_control(
    monkeypatch, module, name, corrupt, criterion, entry
):
    """One formula perturbed in the module its shared ``invariants`` body
    reads it from: the acceptance criterion and the ``verify`` entry that
    call that body both fail."""
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    with pytest.raises(AssertionError, match="criterion"):
        getattr(acceptance, criterion)()
    failed = [e.name for e in run_invariant_suite("fast").entries if not e.passed]
    assert entry in failed


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
    cfg = tmp_path / "sim.json"
    write_config(cfg, trials=10, nu_grid=[5.0])
    code = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
            "--svg",
        ]
    )
    assert code == 0
    assert (tmp_path / "out" / "simulation_trace.csv").exists()
    assert (tmp_path / "out" / "simulation_trace.meta.json").exists()
    assert (tmp_path / "out" / "simulation_trace.svg").exists()


def test_cli_simulate_overrides(tmp_path):
    cfg = tmp_path / "sim.json"
    write_config(cfg, trials=10, nu_grid=[5.0])
    code = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--nu",
            "6,9",
            "--trials",
            "5",
            "--scale",
            "first",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    with open(tmp_path / "out" / "simulation_first.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["nu"] for r in rows} == {"6", "9"}


def test_cli_unknown_scale_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    write_config(cfg, trials=5, nu_grid=[5.0])
    code = main(
        ["simulate", "--config", str(cfg), "--scale", "frobenius", "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    for valid in ("det", "first", "trace"):
        assert valid in err


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_wrong_schema_exits_2(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"schema": 99, "trials": 5}))
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_cli_bounds_chain_table(tmp_path, capsys):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "m": 4,
                "scale": "det",
                "generator": {"family": "gaussian"},
                "sigma": {"kind": "identity"},
            }
        )
    )
    code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "equality chain" in out
    assert (tmp_path / "out" / "bounds_det_gaussian.csv").exists()


def test_cli_bounds_deterministic_trace(tmp_path, capsys):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "m": 4,
                "scale": "first",
                "generator": {"family": "t", "nu": 6},
                "sigma": {"kind": "toeplitz", "rho": 0.8},
            }
        )
    )
    outputs = []
    for _ in range(2):
        code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "trace(crb_shape)" in outputs[0]


def test_cli_adaptivity_reports(tmp_path, capsys):
    cfg = tmp_path / "adapt.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "parameterization": {"name": "breaking", "m": 3},
                "generator": {"family": "t", "nu": 8},
            }
        )
    )
    code = main(["adaptivity", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "violated" in out
    assert "not adaptive" in out


def test_cli_verify_fast(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    assert "invariant suite" in capsys.readouterr().out


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
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"schema": 1, **SMALL, "trials": 5, "nu_grid": [5.0], **extra}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


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
    cfg = tmp_path / "sim.json"
    write_config(cfg, n=3, trials=5, nu_grid=[5.0])
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "simulation_trace.csv").exists()


@pytest.mark.parametrize(
    "key, value", [("estimators", ["scm"]), ("scores", ["vdw"])], ids=["estimators", "scores"]
)
def test_cli_simulate_rejects_estimator_selection_keys(tmp_path, capsys, key, value):
    # the study's five estimators are fixed, so a config cannot pick them
    cfg = tmp_path / "sim.json"
    write_config(cfg, trials=5, nu_grid=[5.0], **{key: value})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1 and key in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


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
    command, data = DOMAIN_ERROR_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, **data}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    if command == "bounds":
        argv += ["--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))
    assert not caught and not out.exists()


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
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_cli_bad_config_values_exit_2_naming_the_key(tmp_path, capsys, case):
    command, data, named = BAD_CONFIG_VALUES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, **data}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    if command in ("bounds", "simulate"):
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, **data}))  # NaN and Infinity literals
    argv = [command, "--config", str(cfg)]
    if command == "bounds":
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"config error: {named} must be finite")
    assert captured.out == "" and not caught
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_bounds_at_huge_nu_writes_no_nan(tmp_path, capsys):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"schema": 1, "m": 4, "generator": {"family": "t", "nu": 1e300}}))
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    [csv_path] = (tmp_path / "out").glob("*.csv")
    assert "nan" not in csv_path.read_text().lower()


def test_cli_adaptivity_overflowing_geometry_is_one_error_line(tmp_path, capsys):
    # Sigma = s V with s = 1e-200 against Sigma_s = V: the whitened Gram
    # entry of the scale is m / s^2, beyond the float range
    cfg = tmp_path / "adapt.json"
    spec = {"name": "shape_scale", "s": 1e-200}
    cfg.write_text(json.dumps({"schema": 1, "parameterization": spec}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["adaptivity", "--config", str(cfg)]) == 2
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
    cfg = tmp_path / "adapt.json"
    cfg.write_text(json.dumps({"schema": 1, "parameterization": spec}))
    assert main(["adaptivity", "--config", str(cfg)]) == 0
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
    cfg = tmp_path / "adapt.json"
    cfg.write_text(json.dumps({"schema": 1, "parameterization": spec}))
    assert main(["adaptivity", "--config", str(cfg)]) == 0
    assert "efficient-FIM gap" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, key", [("breaking", "gamma0"), ("shape_scale", "s"), ("low_rank", "noise")]
)
def test_cli_adaptivity_verdicts_do_not_depend_on_units(tmp_path, capsys, name, key):
    # r_i and sqrt(I_theta[i, i]) both have the units of 1 / theta_i
    verdicts = set()
    for value in (1e-9, 1e-3, 1.0, 1e3, 1e9):
        cfg = tmp_path / "adapt.json"
        spec = {"name": name, "seed": 5, key: value}
        cfg.write_text(json.dumps({"schema": 1, "parameterization": spec}))
        assert main(["adaptivity", "--config", str(cfg)]) == 0, value
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
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"schema": 1, "m": m, "scale": scale, "generator": generator, "sigma": sigma}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert not caught and "FAIL" not in out
    assert ("[unresolved]" in out) == case.startswith("dense_cond_1e4"), out


def test_cli_failing_chain_keeps_exit_1(tmp_path, capsys, monkeypatch):
    real = bounds.verify_chain

    def failing_chain(*args, **kwargs):
        report = real(*args, **kwargs)
        report.links[0].passed = False
        return report

    monkeypatch.setattr(bounds, "verify_chain", failing_chain)
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"schema": 1, "m": 3, "scale": "det"}))
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("scale_kind", ["first", "det"])
def test_trial_block_rows_independent_of_block_boundaries(scale_kind):
    config = SimConfig(**{**SMALL, "scale_kind": scale_kind})
    tables = simulate._score_tables(config)
    total = len(SMALL["nu_grid"]) * SMALL["trials"]
    whole = simulate._trial_block(config, tables, 0, total)
    assert [a.shape for a in whole] == [(total, 5), (total,), (total,), (total, 3), (total, 3)]
    for size in (1, 7, 13):
        parts = [
            simulate._trial_block(config, tables, start, min(start + size, total))
            for start in range(0, total, size)
        ]
        for got, want in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(got), want)
    # trials 25..34 hold the last five of nu = 3 and the first five of nu = 8
    for got, want in zip(simulate._trial_block(config, tables, 25, 35), whole):
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
    alpha_hat = simulate._trial_block(config, simulate._score_tables(config), 0, total)[4]
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
