"""Benchmark for ellipfim: Monte-Carlo sweeps, bounds and adaptivity.

    python3 perfbench/run.py --workload sweep_m4 --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/`` of
the checkout this file sits in.  With ``--trace 0`` the workload runs
closed-loop (each command starts after the previous one returns) for
``--seconds`` and the end-to-end metrics are printed; with ``--trace 1`` a
fixed number of ops runs once untraced and once with spans recorded
around the public functions of each layer, and the per-layer metrics are
printed.  Every run first checks the outputs of the reference-seed op
against ``reference.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the machine, the seed and per-command latencies.  The
exit code is 1 when an output check failed.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS/OpenMP thread per process, so that
# parallelism=2 means 2 processes x 1 thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "ellipfim", "__init__.py")):
    sys.exit(f"perfbench: no ellipfim sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np
import scipy

import calibration
import ellipfim
import workloads
from tracer import Tracer, patched

if not os.path.abspath(ellipfim.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: ellipfim imported from {ellipfim.__file__}, not {SRC}")

SETUP_REPS = 3

# Latencies are scaled by CAL_MS over the median time of the workload's
# calibration kernel (calibration.py), run after every command of the
# same run: figures are ms on a machine where the kernel takes CAL_MS.
CAL_MS = 10.0

# (module, attribute, span name, value observed on each result)
TRACE_TARGETS = [
    ("ellipfim.generators", "sample", "generators.sample", None),
    ("ellipfim.estimators", "scm_shape", "estimators.scm_shape", None),
    ("ellipfim.estimators", "tyler_shape", "estimators.tyler_shape",
     lambda est: est.iterations),
    ("ellipfim.estimators", "r_estimator", "estimators.r_estimator",
     lambda est: est.step_rejected),
    ("ellipfim.estimators", "VanDerWaerden.__call__", "estimators.score_eval", None),
    ("ellipfim.estimators", "TScore.__call__", "estimators.score_eval", None),
    ("ellipfim.scale", "u_basis", "scale.u_basis", None),
    ("ellipfim.matcalc", "duplication_matrix", "matcalc.duplication_matrix", None),
    ("ellipfim.matcalc", "commutation_matrix", "matcalc.commutation_matrix", None),
    ("ellipfim.matcalc", "dup_pinv", "matcalc.dup_pinv", None),
    ("ellipfim.fim", "fim_eta", "fim.fim_eta", None),
    ("ellipfim.fim", "efficient_fim_shape", "fim.efficient_fim_shape", None),
    ("ellipfim.fim", "fim_theta", "fim.fim_theta", None),
    ("ellipfim.fim", "sfim_theta", "fim.sfim_theta", None),
    ("ellipfim.bounds", "crb_shape", "bounds.crb_shape", None),
    ("ellipfim.bounds", "crb_vecs_sigma", "bounds.crb_vecs_sigma", None),
    ("ellipfim.bounds", "crb_scale", "bounds.crb_scale", None),
    ("ellipfim.bounds", "bound_set", "bounds.bound_set", None),
    ("ellipfim.bounds", "verify_chain", "bounds.verify_chain", None),
    ("ellipfim.bounds", "write_bounds_csv", "bounds.write_bounds_csv", None),
    ("ellipfim.parameterize", "condition_check", "parameterize.condition_check", None),
    ("ellipfim.parameterize", "verify_adaptivity_by_fim",
     "parameterize.verify_adaptivity_by_fim", None),
    ("ellipfim.simulate", "run_simulation", "simulate.run_simulation", None),
]

SELF_PCT_LAYERS = (
    "generators.sample",
    "estimators.scm_shape",
    "estimators.tyler_shape",
    "estimators.r_estimator",
    "estimators.score_eval",
    "scale.u_basis",
    "matcalc.duplication_matrix",
    "bounds.crb_shape",
    "fim.fim_eta",
    "simulate.run_simulation",
)
PER_TRIAL_LAYERS = ("estimators.score_eval", "scale.u_basis", "matcalc.duplication_matrix")
BOUNDS_MS = (4, 8, 16, 32)
BOUNDS_STEPS = ("bounds.bound_set", "bounds.verify_chain", "bounds.write_bounds_csv")
BOUNDS_M32_PARTS = (
    "bounds.crb_shape",
    "bounds.crb_vecs_sigma",
    "bounds.crb_scale",
    "fim.fim_eta",
    "fim.efficient_fim_shape",
)
STRUCTURAL = ("matcalc.commutation_matrix", "matcalc.duplication_matrix", "matcalc.dup_pinv")
ADAPTIVITY_M32_PARTS = ("fim.fim_theta", "fim.sfim_theta", "parameterize.condition_check")


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def kernel_s(kernel):
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def execute(wl, cmd, k, tally, ref):
    """Run one command of op ``k``; return (seconds, output or None)."""
    start = time.perf_counter()
    try:
        out = cmd.call(k)
    except Exception as exc:  # a failing command is a counted failure
        tally.outcome(False, f"{cmd.key} op {k}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    wl.check(cmd, out, tally, ref)
    return elapsed, out


def setup_once(name, seed, tiny):
    """Seconds from launching a fresh interpreter to its first completed call."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-child"] + (["--tiny"] if tiny else [])
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1]) - start


def setup_child(wl, seed):
    import ellipfim.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl.commands(seed, workdir)[0].call(0)
        print(repr(time.monotonic()), flush=True)


def percentile_note(samples):
    """Median and the highest percentile with at least ten samples beyond it.

    That percentile is printed only when it lies above the median.
    """
    xs = sorted(samples)
    note = f"median {statistics.median(xs) * 1e3:.3f} ms, n={len(xs)}"
    if len(xs) > 20:
        pct = 100.0 * (len(xs) - 10) / len(xs)
        note += f", p{pct:.0f} {xs[len(xs) - 11] * 1e3:.3f} ms"
    return note


def timed(wl, cmds, seconds, tally, ref):
    """Closed loop over ops until ``seconds`` pass; at least one whole op.

    Returns the latencies per timing pool and the calibration kernel
    times, one after each command.
    """
    latencies = {c.timing_pool: [] for c in cmds}
    kernel_times = [kernel_s(wl.kernel)]
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        for c in cmds:
            if k > 0 and time.perf_counter() >= deadline:
                break
            latencies[c.timing_pool].append(execute(wl, c, k, tally, ref)[0])
            kernel_times.append(kernel_s(wl.kernel))
        k += 1
    return latencies, kernel_times


def op_seconds(cmds, latencies):
    """One op: each command at the median latency of its timing pool."""
    return sum(statistics.median(latencies[c.timing_pool]) for c in cmds)


def report_latencies(wl, cmds, latencies, scale):
    for pool, xs in latencies.items():
        print(f"# {pool}: {percentile_note(xs)}")
    op_s = op_seconds(cmds, latencies)
    for label, factor in (("raw", 1.0), ("normalized", scale)):
        line = f"# op {label}: {op_s * factor * 1e3:.3f} ms"
        if wl.trials_per_op:
            line += f", trials_per_s {wl.trials_per_op / (op_s * factor):.2f}"
        print(line)
    groups = defaultdict(list)
    for c in cmds:
        groups[c.group].append(c.timing_pool)
    for group, pools in groups.items():
        if group.startswith(("bounds.", "adaptivity.")):
            xs = [x for pool in set(pools) for x in latencies[pool]]
            print(f"# {group.replace('.', '_ms_')}: {percentile_note(xs)}")


def end_to_end(wl, seed, seconds, tally, ref, workdir, tiny):
    # Set-up is interpreter and import work whatever the workload, so it
    # is scaled by the estimator-mix kernel, run a few times per launch
    # because single kernel runs vary by 2x.
    setups, setup_kernel = [], []
    for _ in range(SETUP_REPS):
        setup_kernel += [kernel_s(calibration.estimator_mix) for _ in range(5)]
        setups.append(setup_once(wl.name, seed, tiny))
    setup_kernel += [kernel_s(calibration.estimator_mix) for _ in range(5)]
    cmds = wl.commands(seed, workdir)
    latencies, kernel_times = timed(wl, cmds, seconds, tally, ref)
    scale = CAL_MS / 1e3 / statistics.median(kernel_times)
    print(f"# latencies are raw; normalized figures scale them by {scale:.4f}"
          f" (kernel median {statistics.median(kernel_times) * 1e3:.3f} ms)")
    report_latencies(wl, cmds, latencies, scale)
    print(f"# setup_s raw samples {setups}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    op_s = op_seconds(cmds, latencies)
    setup_scale = CAL_MS / 1e3 / statistics.median(setup_kernel)
    return {
        "op_ms": (1e3 * scale * op_s, "ms"),
        "setup_s": (setup_scale * statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def traced(wl, seed, tally, ref, workdir):
    cmds = wl.commands(seed, workdir)

    def run_ops(tracer=None):
        group_s = defaultdict(float)
        outputs = []
        start = time.perf_counter()
        for k in range(wl.trace_ops):
            for c in cmds:
                if tracer is not None:
                    tracer.tag = c.group
                elapsed, out = execute(wl, c, k, tally, ref)
                group_s[c.group] += elapsed
                outputs.append((c, out))
        return time.perf_counter() - start, group_s, outputs

    untraced_wall = run_ops()[0]
    tracer = Tracer()
    with patched(tracer, TRACE_TARGETS):
        wall, group_s, outputs = run_ops(tracer)
    return layer_metrics(wl, tracer, wall, untraced_wall, group_s, outputs)


def layer_metrics(wl, tracer, wall, untraced_wall, group_s, outputs):
    """Every per-layer metric; a layer the workload never calls reads 0."""
    summary = tracer.summarize()
    total = defaultdict(lambda: defaultdict(float))
    for (name, _), row in summary.items():
        for field, value in row.items():
            total[name][field] += value
    trials = wl.trials_per_op * wl.trace_ops

    def share(seconds, base):
        return 100.0 * seconds / base if base > 0 else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SELF_PCT_LAYERS:
        out[f"{name}.self_pct"] = (share(total[name]["self_s"], wall), "%")
    for name in PER_TRIAL_LAYERS:
        out[f"{name}.calls_per_trial"] = (ratio(total[name]["calls"], trials), "count")
    iters = tracer.observed["estimators.tyler_shape"]
    rejected = tracer.observed["estimators.r_estimator"]
    out["estimators.tyler_shape.iters_per_call"] = (ratio(sum(iters), len(iters)), "count")
    out["estimators.tyler_shape.failures"] = (
        tracer.failures["estimators.tyler_shape"], "count")
    out["estimators.r_estimator.rejected_frac"] = (
        ratio(sum(rejected), len(rejected)), "ratio")
    out["estimators.r_estimator.failures"] = (
        tracer.failures["estimators.r_estimator"], "count")

    def grp(name, group, field):
        row = summary.get((name, group))
        return row[field] if row else 0.0

    commands_in = defaultdict(int)
    csv_bytes = defaultdict(int)
    for c, result in outputs:
        commands_in[c.group] += 1
        if isinstance(result, dict):
            csv_bytes[c.group] += result.get("csv_bytes", 0)
    for m in BOUNDS_MS:
        group = f"bounds.m{m}"
        for name in BOUNDS_STEPS:
            out[f"{name}.pct.m{m}"] = (share(grp(name, group, "incl_s"), group_s[group]), "%")
        out[f"bounds.write_bounds_csv.bytes.m{m}"] = (
            csv_bytes[group] // max(wl.trace_ops, 1), "count")
    for name in BOUNDS_M32_PARTS:
        out[f"{name}.pct.m32"] = (share(grp(name, "bounds.m32", "incl_s"),
                                        group_s["bounds.m32"]), "%")
    for name in STRUCTURAL:
        out[f"{name}.calls.m32"] = (
            ratio(grp(name, "bounds.m32", "calls"), commands_in["bounds.m32"]), "count")
        out[f"{name}.self_pct.m32"] = (
            share(grp(name, "bounds.m32", "self_s"), group_s["bounds.m32"]), "%")
    for name in ADAPTIVITY_M32_PARTS:
        out[f"{name}.pct.m32"] = (share(grp(name, "adaptivity.m32", "incl_s"),
                                        group_s["adaptivity.m32"]), "%")
    out["trace.overhead_pct"] = (share(wall - untraced_wall, untraced_wall), "%")
    covered = sum(row["self_s"] for row in total.values())
    out["trace.coverage_pct"] = (share(covered, wall), "%")
    print(f"# traced wall {wall:.3f} s, untraced wall {untraced_wall:.3f} s,"
          f" {len(tracer.spans)} spans")
    return out


def load_reference(wl, tiny, workdir):
    """Stored reference values; at tiny sizes, values made on the spot."""
    if tiny:
        return wl.outputs(workloads.REF_SEED, workdir)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"][wl.name]


def run(wl, seed, seconds, trace, tiny=False, ref=None):
    """Measure one workload; return the result object of the last line."""
    tally = workloads.Tally()
    print("# " + json.dumps({
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "reference_seed": workloads.REF_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED, "machine": machine(),
    }))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if ref is None:
            ref = load_reference(wl, tiny, workdir)
        try:
            wl.check_reference(tally, ref, seed, workdir)
        except Exception as exc:  # counted, and the run goes on to report it
            tally.outcome(False, f"reference check: {type(exc).__name__}: {exc}")
        if trace:
            metrics = traced(wl, seed, tally, ref, workdir)
        else:
            metrics = end_to_end(wl, seed, seconds, tally, ref, workdir, tiny)
    for msg in tally.mismatches[:20]:
        print(f"# MISMATCH {msg}")
    print(f"# failed_frac {tally.failed}/{tally.attempted}")
    return {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes, checked against values made on the spot")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = workloads.tiny(wl)
    if args.setup_child:
        setup_child(wl, args.seed)
        return 0
    result = run(wl, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
