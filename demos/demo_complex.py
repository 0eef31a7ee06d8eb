# Complex elliptical models: direct closed forms vs the real embedding.
#
# Every complex FIM here is computed twice: once in complex arithmetic
# from its closed form, once by embedding the model into 2m real
# dimensions and running the generic real pipeline.  The two paths are
# implemented independently, which is what makes their agreement a check.

import numpy as np

from ellipfim.complexces import (
    cces_fim_location,
    cces_lowrank_fim,
    complex_student_t,
    doa_fim,
    embedded_location_parameterization,
    embedded_lowrank_parameterization,
    sigma_bar_from_complex,
)
from ellipfim.fim import efficient_fim_interest, fim_theta

rng = np.random.default_rng(3)
gen_c = complex_student_t(7)

# --- location: a complex linear model mu(gamma) = B gamma ------------------
m, q = 4, 2
b = rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))
c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
sigma_c = c @ c.conj().T + m * np.eye(m)

closed = cces_fim_location(b, sigma_c, gen_c)
param = embedded_location_parameterization(lambda g: b @ g, lambda g: b,
                                           sigma_c, None, q)
oracle = fim_theta(param, rng.standard_normal(q), gen_c.real())
print("circular location FIM, closed form:\n", np.round(closed, 4))
print("real-embedded pipeline:\n", np.round(oracle, 4))
print("relative gap:", np.linalg.norm(closed - oracle) / np.linalg.norm(oracle))

# --- DOA: two sources on a uniform linear array ----------------------------
m, p = 6, 2
j = np.arange(m)[:, None]
a_fn = lambda g: np.exp(1j * np.pi * j * np.sin(g)[None, :])

def a_jac(g):
    a = a_fn(g)
    out = np.zeros((m, p, p), dtype=complex)
    for k in range(p):
        out[:, k, k] = 1j * np.pi * j[:, 0] * np.cos(g[k]) * a[:, k]
    return out

gamma0 = np.array([0.3, 1.1])
w = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
xi0 = w @ w.conj().T + p * np.eye(p)
lam0 = 0.7

general = cces_lowrank_fim(a_fn(gamma0), a_jac(gamma0), xi0, lam0, gen_c)
d0 = np.stack([a_jac(gamma0)[:, k, k] for k in range(p)], axis=1)
hadamard = doa_fim(a_fn(gamma0), d0, xi0, lam0, gen_c)
param, theta0_fn = embedded_lowrank_parameterization(a_fn, a_jac, p, p)
oracle = efficient_fim_interest(
    fim_theta(param, theta0_fn(gamma0, xi0, lam0), gen_c.real()), p
)
print("\ntwo-source DOA efficient FIM (general vec form):\n", np.round(general, 3))
print("Hadamard specialization:\n", np.round(hadamard, 3))
print("real-embedded pipeline:\n", np.round(oracle, 3))

# --- what the embedding looks like -----------------------------------------
bar = sigma_bar_from_complex(np.eye(2), None)
print("\nSigma = I_2 (circular) embeds as Sigma_bar = I_4 / 2:\n", bar)
