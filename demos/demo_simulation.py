# The Monte-Carlo study at reduced scale, end to end.
#
# Reproduces the estimator-vs-bound comparison for one scale functional
# with a small trial budget, then writes the CSV/SVG artifacts the CLI
# would produce.  Crank `trials` up to 2000 for the acceptance-grade
# bands (the full configuration lives in tests/test_acceptance.py).

from pathlib import Path

from ellipfim.simulate import COLUMNS, SimConfig, run_simulation, write_svg_chart

config = SimConfig(
    m=4,
    n=100,
    rho=0.8,
    nu_grid=(2.1, 5.0, 20.0),
    trials=200,
    scale_kind="det",
    root_seed=20240813,
    parallelism=2,
)
result = run_simulation(config)

print(f"scale '{config.scale_kind}', {config.trials} trials per cell\n")
print(f"{'nu':>5} {'estimator':>9} {'n*mse':>9} {'bound':>9}")
for nu in config.nu_grid:
    scrb, par = result.bounds[nu]
    for name in COLUMNS:
        cell = result.cell(nu, name)
        print(f"{nu:>5.1f} {name:>9} {config.n * cell.mse:>9.3f} "
              f"{config.n * scrb:>9.3f}")
    # with the det-root scale the parametric and semiparametric bounds agree
    print(f"      (parametric bound {config.n * par:.3f}; gap "
          f"{abs(scrb - par) / scrb:.1e})")

out = Path("demo_out")
out.mkdir(exist_ok=True)
result.to_csv(out / "simulation_det.csv")
result.write_metadata(out / "simulation_det.meta.json")
write_svg_chart(result, out / "simulation_det.svg")
print(f"\nwrote {out}/simulation_det.csv (+ .meta.json, .svg)")
print("the same sweep is available as:")
print("  ellipfim simulate --config cfg.json --scale det --out demo_out --svg")
