"""Vectorization operators and the structural matrices they induce.

Column-major ``vec`` is the library-wide convention.  ``vecs`` stacks the
lower-triangular entries column by column, so its first element is always
the (1,1) entry of the matrix; ``ovecs`` drops that first element.

The duplication matrix D_m, the commutation matrix K_m and the
Moore-Penrose inverse D_m^+ are built by index arithmetic and cached per m
as read-only arrays; they are m^2 x m(m+1)/2 and m^2 x m^2, so only the
invariant suite and :func:`vecs_basis`, the derivative matrices of the
vecs coordinates that the parameterizations hand to the Fisher
informations, build them.  No score, Fisher information, bound or
estimator does:
the map D_m^T vec(A), which every score and projected FIM contains, is
:func:`_dup_t_vec`, entry by entry, and the products
D_m^+ (I + K_m)(A (x) A) D_m^+T and D_m^T (A (x) A) D_m are
m(m+1)/2 x m(m+1)/2 matrices whose entries are a_ik a_jl + a_il a_jk
(Magnus & Neudecker 1980), built by :func:`_sym_kron_core` from the
cached ``vecs`` index pairs.  The same core, over a stack of matrices,
gives the one-step R-estimator its Upsilon Upsilon^T Gram, one per trial.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "vec",
    "vecs",
    "unvecs",
    "ovecs",
    "vecs_len",
    "duplication_matrix",
    "vecs_basis",
    "commutation_matrix",
    "dup_pinv",
]


def vec(a):
    """Stack the columns of a square matrix into one column vector.

    A stack of matrices (leading axes) is vectorized matrix by matrix.
    """
    a = np.asarray(a)
    return np.swapaxes(a, -1, -2).reshape(a.shape[:-2] + (-1,))


def vecs_len(m):
    return m * (m + 1) // 2


def _frozen(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _tril_indices_colmajor(m):
    # (i, j) pairs with i >= j, ordered by column then row: the first pair
    # is (0, 0), matching vecs(A) = [a11, ovecs(A)^T]^T.  The upper
    # triangle in row-major order, transposed, is exactly that sequence.
    cols, rows = np.triu_indices(m)
    return _frozen(rows), _frozen(cols)


@functools.lru_cache(maxsize=16)
def _dup_gram(m):
    """Diagonal of D_m^T D_m: 1 at the pairs (i, i), 2 at the pairs i > j."""
    r, c = _tril_indices_colmajor(m)
    return _frozen(np.where(r == c, 1.0, 2.0))


def _dup_t_vec(a):
    """D_m^T vec(A) for a square A, or a stack of them, entry by entry.

    The entry of vecs pair (i, j) is a_ii on the diagonal and a_ij + a_ji
    off it, the exact sum of at most two entries of A, so the result is the
    dense product's to the bit whether or not A is symmetric.
    """
    a = np.asarray(a, dtype=float)
    return _dup_gram(a.shape[-1]) * vecs(0.5 * (a + np.swapaxes(a, -1, -2)))


def _sym_kron_core(a):
    """D_m^+ (I + K_m)(A (x) A) D_m^+T for a symmetric A, entry by entry.

    Entry [p, q] with p = (i, j) and q = (k, l) the ``vecs`` index pairs is
    a_ik a_jl + a_il a_jk.  Since D_m^+ = diag(1 / D_m^T D_m) D_m^T, the
    same core gives D_m^T (A (x) A) D_m = F core F / 2 and
    D_m^+ (A (x) A) D_m^+T = core / 2, with F = diag(D_m^T D_m).  The
    result is exactly symmetric.  A stack of matrices (leading axes) gives
    a stack of cores, each bit-identical to its own 2-D call.  Rows are
    filled in blocks so that no temporary over the whole stack is larger
    than about 8 MB.
    """
    a = np.asarray(a, dtype=float)
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    r, c = _tril_indices_colmajor(a.shape[-1])
    ar, ac = a[..., r, :], a[..., c, :]
    nh = r.size
    out = np.empty(a.shape[:-2] + (nh, nh))
    step = max(1, 2**20 // (nh * math.prod(a.shape[:-2])))
    for lo in range(0, nh, step):
        ar_rows, ac_rows = ar[..., lo : lo + step, :], ac[..., lo : lo + step, :]
        blk = ar_rows[..., r] * ac_rows[..., c]
        blk += ar_rows[..., c] * ac_rows[..., r]
        out[..., lo : lo + step, :] = blk
    return out


def vecs(a):
    """Half-vectorization: lower-triangular entries, column-major order.

    Works matrix by matrix over the leading axes of a stack.
    """
    a = np.asarray(a)
    r, c = _tril_indices_colmajor(a.shape[-1])
    return a[..., r, c]


def unvecs(v, m):
    """Rebuild the symmetric matrix whose half-vectorization is ``v``.

    A stack of half-vectors (leading axes) gives a stack of matrices.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != vecs_len(m):
        raise ValueError(f"expected length {vecs_len(m)} for m={m}, got {v.shape[-1]}")
    a = np.zeros(v.shape[:-1] + (m, m))
    r, c = _tril_indices_colmajor(m)
    a[..., r, c] = v
    a[..., c, r] = v
    return a


def ovecs(a):
    """Half-vectorization with the leading (1,1) entry removed."""
    return vecs(a)[..., 1:]


@functools.lru_cache(maxsize=8)
def duplication_matrix(m):
    """Unique 0/1 matrix with ``D_m vecs(A) = vec(A)`` for symmetric ``A``.

    Cached per m; the array is read-only.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r, c = _tril_indices_colmajor(m)
    k = np.arange(r.size)
    d = np.zeros((m * m, r.size))
    d[r + c * m, k] = 1.0
    d[c + r * m, k] = 1.0
    return _frozen(d)


def vecs_basis(m):
    """The symmetric E_k with unvecs(e_k) = E_k, as an (m(m+1)/2, m, m) stack.

    Column k of D_m is vec(E_k), and E_k is symmetric, so this is a
    read-only view of the cached D_m; nothing is built per call.
    """
    return duplication_matrix(m).T.reshape(-1, m, m)


@functools.lru_cache(maxsize=8)
def commutation_matrix(m):
    """Permutation matrix with ``K_m vec(A) = vec(A^T)``.

    Cached per m; the array is read-only.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # vec position p = i + j m holds a_ij, which vec(A^T) holds at j + i m
    j, i = np.divmod(np.arange(m * m), m)
    k = np.zeros((m * m, m * m))
    k[i + j * m, j + i * m] = 1.0
    return _frozen(k)


@functools.lru_cache(maxsize=8)
def dup_pinv(m):
    """Moore-Penrose inverse of the duplication matrix.

    The closed form (D^T D)^{-1} D^T with the diagonal D^T D: D_m has full
    column rank, so this is the SVD pseudo-inverse.  Cached per m; the
    array is read-only.
    """
    d = duplication_matrix(m)
    return _frozen(d.T / _dup_gram(m)[:, None])
