"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Every metric named in BENCHMARK.json must be emitted with its unit, the
count metrics must repeat exactly, the output checks must fail against a
perturbed reference, and the benchmark must refuse to run without the
program's sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def _bench(name, trace, cwd=run.ROOT, seed=3):
    script = os.path.join(cwd, "perfbench", "run.py")
    argv = [sys.executable, script, "--workload", name, "--seed", str(seed),
            "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_names_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = _result(_bench(name, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _spec()[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["sweep_m4", "analysis_m4to32"])
def test_count_metrics_repeat_exactly(name):
    counts = []
    for _ in range(2):
        metrics = _result(_bench(name, 1))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def _perturb_sweep_mse(ref):
    ref["cells"]["first"][0][2] *= 1.001


def _perturb_sweep_bound(ref):
    ref["bounds"]["det"][-1][1] *= 1.001


def _perturb_bound_trace(ref):
    ref["bounds.m8.trace"]["trace_crb_shape"] *= 1.001


def _perturb_gap(ref):
    ref["adaptivity.m4.low_rank"]["gap_rel"] += 1e-6


def _flip_verdict(ref):
    ref["adaptivity.m4.split"]["adaptive"] = False


@pytest.mark.parametrize(
    "name, perturb",
    [
        ("sweep_m4", _perturb_sweep_mse),
        ("sweep_m4", _perturb_sweep_bound),
        ("analysis_m4to32", _perturb_bound_trace),
        ("analysis_m4to32", _perturb_gap),
        ("analysis_m4to32", _flip_verdict),
    ],
)
def test_perturbed_reference_fails_the_check(name, perturb, tmp_path):
    wl = workloads.tiny(workloads.WORKLOADS[name])
    ref = wl.outputs(workloads.REF_SEED, str(tmp_path))
    bad = copy.deepcopy(ref)
    perturb(bad)
    assert run.run(wl, 3, 0.1, trace=1, tiny=True, ref=ref)["correct"]
    result = run.run(wl, 3, 0.1, trace=1, tiny=True, ref=bad)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("sweep_m4", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
