"""Vectorization operators and the structural matrices they induce.

Column-major ``vec`` is the library-wide convention.  ``vecs`` stacks the
lower-triangular entries column by column, so its first element is always
the (1,1) entry of the matrix; ``ovecs`` drops that first element.  The
duplication matrix, the commutation matrix, the Moore-Penrose inverse of
the duplication matrix and the first-row-deleted identity are all built as
explicit dense arrays: dimensions stay small (m below ~50) in every use
case, and dense construction keeps each defining identity directly
testable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vec",
    "unvec",
    "vecs",
    "unvecs",
    "ovecs",
    "vecs_len",
    "duplication_matrix",
    "commutation_matrix",
    "dup_pinv",
    "row_selector",
    "symmetrizer",
]


def vec(a):
    """Stack the columns of a square matrix into one column vector.

    A stack of matrices (leading axes) is vectorized matrix by matrix.
    """
    a = np.asarray(a)
    return np.swapaxes(a, -1, -2).reshape(a.shape[:-2] + (-1,))


def unvec(v, m):
    """Inverse of :func:`vec` for an ``m x m`` matrix."""
    v = np.asarray(v)
    return v.reshape((m, m), order="F")


def vecs_len(m):
    return m * (m + 1) // 2


def _tril_indices_colmajor(m):
    # (i, j) pairs with i >= j, ordered by column then row: the first pair
    # is (0, 0), matching vecs(A) = [a11, ovecs(A)^T]^T.  The upper
    # triangle in row-major order, transposed, is exactly that sequence.
    cols, rows = np.triu_indices(m)
    return rows, cols


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


def duplication_matrix(m):
    """Unique 0/1 matrix with ``D_m vecs(A) = vec(A)`` for symmetric ``A``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n_half = vecs_len(m)
    d = np.zeros((m * m, n_half))
    r, c = _tril_indices_colmajor(m)
    for k in range(n_half):
        i, j = r[k], c[k]
        d[i + j * m, k] = 1.0
        d[j + i * m, k] = 1.0
    return d


def commutation_matrix(m):
    """Permutation matrix with ``K_m vec(A) = vec(A^T)``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    k = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            k[i + j * m, j + i * m] = 1.0
    return k


def dup_pinv(m):
    """Moore-Penrose inverse of the duplication matrix.

    Computed from the closed form (D^T D)^{-1} D^T: D_m has full column
    rank and D^T D is diagonal, so this agrees with the SVD pseudo-inverse
    at the cost of one trivial solve.
    """
    d = duplication_matrix(m)
    dtd = d.T @ d
    return np.linalg.solve(dtd, d.T)


def row_selector(m):
    """Matrix mapping ``vecs(A)`` to ``ovecs(A)``: identity minus first row."""
    if m < 2:
        raise ValueError("ovecs requires m >= 2")
    return np.eye(vecs_len(m))[1:]


def symmetrizer(m):
    """Orthogonal projector (I + K_m)/2 onto vec-images of symmetric matrices."""
    return 0.5 * (np.eye(m * m) + commutation_matrix(m))
