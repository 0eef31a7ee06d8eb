"""Vectorization operators and the structural matrices they induce.

Column-major ``vec`` is the library-wide convention.  ``vecs`` stacks the
lower-triangular entries column by column, so its first element is always
the (1,1) entry of the matrix; ``ovecs`` drops that first element.

The duplication matrix D_m, the commutation matrix K_m and the
Moore-Penrose inverse D_m^+ are built by index arithmetic and cached per m
as read-only arrays; they are m^2 x m(m+1)/2 and m^2 x m^2, so only the
invariant suite, a demo and the tests build them.  No score, Fisher information, bound, estimator or
parameterization does: :func:`vecs_basis`, the derivative matrices of the
vecs coordinates, is filled from the cached ``vecs`` index pairs, so a
cache entry of 4.3 MB at m = 32 is never pinned by a compute path.
The map D_m^T vec(A), which every score and projected FIM contains, is
:func:`_dup_t_vec`, entry by entry, and the products
D_m^+ (I + K_m)(A (x) A) D_m^+T and D_m^T (A (x) A) D_m are
m(m+1)/2 x m(m+1)/2 matrices whose entries are a_ik a_jl + a_il a_jk
(Magnus & Neudecker 1980), yielded row block by row block by
:func:`_core_row_blocks` from the same index pairs.  :func:`_vecs_fill`
turns that core into every vecs-space bound and Fisher information, and,
over a stack, into the R-estimator's Upsilon Upsilon^T Gram per trial.

Memory.  With d = m(m+1)/2, an m = 32 core is 2.2 MB and an m = 64 one
35 MB, so no caller forms a second d x d array beside its result.
:func:`_core_row_blocks` yields the core in fresh row blocks of at most
2**15 doubles (256 KB), whose few temporaries stay in cache;
:func:`_vecs_fill` finishes each block (scaling, rank terms, the tangent
sandwich) before writing it into its one result, symmetric to the bit as
written.  Each function here thus holds one d x d array at its peak.
:func:`_row_slices` turns that budget into the row slices of every
cache-blocked loop in the package.  No d x d result is symmetrized after
it is formed: each is symmetric to the bit as built, by this fill or as
a Gram X^T X.
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


_CORE_BLOCK_DOUBLES = 2**15


def _row_slices(stop, width, start=0):
    """Rows ``start:stop`` as consecutive slices of at most
    ``_CORE_BLOCK_DOUBLES // width`` rows (at least one), so that a block
    ``width`` doubles wide stays in cache.  Every cache-blocked loop of the
    package slices here; none lets an entry's bits depend on the slicing."""
    step = max(1, _CORE_BLOCK_DOUBLES // max(1, width))
    for lo in range(start, stop, step):
        yield slice(lo, min(lo + step, stop))


def _core_row_blocks(a, start=0, stop=None):
    """Rows ``start:stop`` of D_m^+ (I + K_m)(A (x) A) D_m^+T, columns
    ``start:``, as ``(lo, block)`` pairs in cache-sized row blocks.

    Entry [p, q] with p = (i, j) and q = (k, l) the ``vecs`` index pairs is
    a_ik a_jl + a_il a_jk, for a symmetric A.  A stack of matrices
    (leading axes) gives a stack of blocks.  A block holds at most
    ``_CORE_BLOCK_DOUBLES`` entries over the whole stack (at m = 32, 62 of
    528 rows), so that its few temporaries stay in cache; no entry's bits
    depend on the block size, and each block is a fresh array that the
    caller may overwrite.
    """
    a = np.asarray(a, dtype=float)
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    r, c = _tril_indices_colmajor(a.shape[-1])
    ar, ac = a[..., r, :], a[..., c, :]
    nh = r.size
    rs, cs = r[start:], c[start:]
    for p in _row_slices(nh if stop is None else stop, nh * math.prod(a.shape[:-2]), start):
        ar_rows, ac_rows = ar[..., p, :], ac[..., p, :]
        blk = ar_rows[..., rs] * ac_rows[..., cs]
        blk += ar_rows[..., cs] * ac_rows[..., rs]
        yield p.start, blk


def _vecs_fill(a, c_kron=1.0, c_rank1=0.0, x=None, y=None, start=0, k=None, coef=1.0):
    """coef K^T [c W C(A) W + R] K, rows and columns ``start:``, as one
    fresh array; a stack of A gives a stack.

    C(A) is the core of :func:`_core_row_blocks`.  Given ``x`` and ``y``,
    the bound form: W = I, c = 1, R = x y^T + y x^T.  Else the information
    form D_m^T [c_kron (A (x) A) + c_rank1 vec(A) vec(A)^T] D_m: W = F =
    diag(D_m^T D_m), c = c_kron / 2, R = c_rank1 y y^T, y = D_m^T vec(A).
    K = K_V = [k^T; I] given ``k`` (start = 1), else I; with X the bracket
    and z = X_{1:,0} + X_00 k / 2, K_V^T X K_V = X_{1:,1:} + k z^T + z k^T.

    Each row block of the core is finished in place before it is written.
    Entries (p, q) and (q, p) take the same operations in the same order
    (the core's two products are the same pair, F holds powers of two,
    y_p y_q is formed before it is scaled, and each rank-two term is
    summed before it is added), so the result is symmetric to the bit.
    """
    if x is None:
        f, y = _dup_gram(a.shape[-1]), _dup_t_vec(a)

    def rows(first, stop=None):
        for lo, blk in _core_row_blocks(a, first, stop):
            p, q = slice(lo, lo + blk.shape[-2]), slice(first, None)
            if x is None:
                blk *= f[q]
                blk *= f[p, None]
                blk *= 0.5 * c_kron
                rank = y[..., p, None] * y[..., None, q]
                rank *= c_rank1
            else:
                rank = x[p, None] * y[q] + y[p, None] * x[q]
            blk += rank
            yield lo, blk

    if k is not None:
        _, row0 = next(rows(0, 1))
        z = row0[0, 1:] + 0.5 * row0[0, 0] * k
    d = y.shape[-1] - start
    out = np.empty(a.shape[:-2] + (d, d))
    for lo, blk in rows(start):
        p = slice(lo - start, lo - start + blk.shape[-2])
        if k is not None:
            blk += k[p, None] * z + z[p, None] * k
        if coef != 1.0:
            blk *= coef
        out[..., p, :] = blk
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


def _fill_vecs_basis(out):
    """Write the E_k of :func:`vecs_basis` into a zeroed (m(m+1)/2, m, m)
    ``out``, whose first axis may be a slice of a larger stack."""
    m = out.shape[-1]
    r, c = _tril_indices_colmajor(m)
    k = np.arange(r.size)
    out[k, r, c] = 1.0
    out[k, c, r] = 1.0
    return out


def vecs_basis(m):
    """The symmetric E_k with unvecs(e_k) = E_k, as an (m(m+1)/2, m, m) stack.

    Column k of D_m is vec(E_k), so this equals the rows of D_m^T, each
    read as an m x m matrix, to the bit.  It is a fresh stack filled from
    the cached ``vecs`` index pairs: D_m is not built, and nothing of size
    m^2 x m(m+1)/2 stays cached once the caller drops the stack.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _fill_vecs_basis(np.zeros((vecs_len(m), m, m)))


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
