# Vectorization operators and the structural matrices behind everything else.
#
# The whole library is written against column-major vec and the
# half-vectorization vecs (lower triangle, first entry = a11).  This script
# walks through the defining identities of the duplication matrix D_m, the
# commutation matrix K_m and the Moore-Penrose inverse D_m^#.

import numpy as np

from ellipfim.matcalc import (
    commutation_matrix,
    duplication_matrix,
    dup_pinv,
    ovecs,
    vec,
    vecs,
    unvecs,
)

rng = np.random.default_rng(0)
m = 3

a = rng.standard_normal((m, m))
a = a + a.T
print("symmetric A:\n", np.round(a, 3))
print("\nvecs(A) stacks the lower triangle column by column:")
print(np.round(vecs(a), 3))
print("round trip unvecs(vecs(A)) == A:", np.allclose(unvecs(vecs(a), m), a))

d = duplication_matrix(m)
print("\nD_m has shape", d.shape, "and satisfies D_m vecs(A) = vec(A):",
      np.allclose(d @ vecs(a), vec(a)))

k = commutation_matrix(m)
b = rng.standard_normal((m, m))
print("K_m vec(B) = vec(B^T):", np.allclose(k @ vec(b), vec(b.T)))
print("K_m K_m = I:", np.allclose(k @ k, np.eye(m * m)))
print("K_m D_m = D_m:", np.allclose(k @ d, d))

dp = dup_pinv(m)
print("\nD_m^# D_m = I:", np.allclose(dp @ d, np.eye(d.shape[1])))
print("D_m D_m^# = (I + K_m)/2:", np.allclose(d @ dp, 0.5 * (np.eye(m * m) + k)))

print("\novecs(A) = vecs(A)[1:] drops a11:", np.array_equal(ovecs(a), vecs(a)[1:]))

# D_m^T vec(B) holds b_ii on the diagonal and b_ij + b_ji off it, for any
# square B; the scores and FIMs compute it that way, without forming D_m
print("D_m^T vec(B) = vecs(B + B^T - diag(B)):",
      np.allclose(d.T @ vec(b), vecs(b + b.T - np.diag(np.diag(b)))))

# (I + K)/2 projects any vec onto the symmetric part
proj = 0.5 * (np.eye(m * m) + k)
print("(I+K)/2 vec(B) = vec((B + B^T)/2):",
      np.allclose(proj @ vec(b), vec(0.5 * (b + b.T))))
