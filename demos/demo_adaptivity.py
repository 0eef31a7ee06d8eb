# The adaptivity condition for parameterized models.
#
# A parameterization theta -> (mu(theta), Sigma(theta)) with an
# interest/nuisance split is adaptive when not knowing the density
# generator costs nothing beyond the finite-dimensional nuisance.  The
# checker evaluates the condition residual and cross-validates it with
# the gap between the parametric and semiparametric efficient FIMs.

import numpy as np
from scipy.linalg import toeplitz

from ellipfim.generators import gaussian, student_t
from ellipfim.matcalc import vecs
from ellipfim.parameterize import (
    LowRankModel,
    breaking_parameterization,
    linear_split_parameterization,
    low_rank_parameterization,
    sinusoid_steering,
    verify_adaptivity_by_fim,
)

rng = np.random.default_rng(1)


def show(title, param, theta0, gen):
    rep = verify_adaptivity_by_fim(param, theta0, gen)
    cond = rep.condition
    print(f"{title} under {gen.name}:")
    print(f"  condition residual (max |r_i| / sqrt(I_ii)) = {cond.scaled_residual.max():.3e}"
          f"  -> {'satisfied' if cond.satisfied else 'VIOLATED'}")
    print(f"  efficient-FIM relative gap                  = {rep.gap_rel:.3e}"
          f"  -> {'adaptive' if rep.adaptive else 'NOT adaptive'}")


# 1. location and scatter with no parameters in common: always adaptive
m, q = 4, 2
split = linear_split_parameterization(rng.standard_normal((m, q)), m)
theta_split = np.concatenate([rng.standard_normal(q),
                              vecs(toeplitz(0.7 ** np.arange(m)))])
show("split model mu(gamma), Sigma(xi)", split, theta_split, student_t(8))

# 2. low-rank scatter Sigma = A(gamma) Xi A' + lambda I: adaptive
a_fn, a_jac = sinusoid_steering(6)
b = rng.standard_normal((2, 2))
model = LowRankModel(a_fn=a_fn, a_jac=a_jac, signal_cov=b @ b.T + 2 * np.eye(2),
                     noise_level=0.8, q=2)
lowrank = low_rank_parameterization(model)
show("\nlow-rank model (m=6, p=2)", lowrank, model.theta0([0.6, 1.7]), student_t(8))

# 3. a deliberately broken model: overall scale as the interest parameter
breaking = breaking_parameterization(toeplitz(0.5 ** np.arange(3)))
show("\nbare-scale model Sigma = gamma Sigma0", breaking, np.array([1.3]),
     student_t(8))
print("  (analytic residual is m/gamma0 =", 3 / 1.3, ")")

# 4. same broken model at the Gaussian: the FIM gap closes anyway
show("\nsame model at the Gaussian", breaking, np.array([1.3]), gaussian())
print("  the Gaussian is the one generator where a violated condition")
print("  still leaves the efficient FIMs equal")
