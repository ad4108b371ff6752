"""Dense linear algebra over GF(2^m) on small numpy uint8 matrices."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .gf_poly import GF2m


def rref(field: GF2m, mat: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = np.array(mat, dtype=np.uint8, copy=True)
    if R.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = R.shape
    table = field.mul_table
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        lead = int(R[r, c])
        if lead != 1:
            R[r] = table[field.inv(lead)][R[r]]
        col = R[:, c].copy()
        col[r] = 0
        fix = np.nonzero(col)[0]
        if fix.size:
            R[fix] ^= table[col[fix][:, None], R[r][None, :]]
        pivots.append(c)
        r += 1
    return R, pivots


def row_space_basis(field: GF2m, mat: np.ndarray) -> np.ndarray:
    R, pivots = rref(field, mat)
    return R[: len(pivots)].copy()


def solve(field: GF2m, A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """One solution of A x = b (free variables set to 0), or None."""
    A = np.asarray(A, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8).reshape(-1)
    if A.shape[0] != b.shape[0]:
        raise ValueError("shape mismatch")
    aug = np.concatenate([A, b[:, None]], axis=1)
    R, pivots = rref(field, aug)
    ncols = A.shape[1]
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = np.zeros(ncols, dtype=np.uint8)
    for r, c in enumerate(pivots):
        x[c] = R[r, -1]
    return x


def kernel_basis(field: GF2m, A: np.ndarray) -> np.ndarray:
    """Basis of the right kernel of A, one vector per row."""
    A = np.asarray(A, dtype=np.uint8)
    ncols = A.shape[1]
    R, pivots = rref(field, A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, c in enumerate(pivots):
            # pivot variable = -R[r, f] * x_f; minus is identity in char 2
            basis[i, c] = R[r, f]
    return basis


def matmul(field: GF2m, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over the field; A is (r, n), B is (n, c)."""
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    if A.shape[1] != B.shape[0]:
        raise ValueError("shape mismatch")
    table = field.mul_table
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for t in range(A.shape[1]):
        col = A[:, t]
        if not col.any():
            continue
        out ^= table[col[:, None], B[t][None, :]]
    return out


def apply_matrix_axis(field: GF2m, M: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Contract `axis` of `arr` with matrix M: out[..., a, ...] = sum_t M[a,t] arr[..., t, ...].

    Works on batched tensors of any rank; the contracted axis may have any
    position and is replaced by an axis of length M.shape[0].
    """
    arr = np.asarray(arr, dtype=np.uint8)
    moved = np.moveaxis(arr, axis, -1)
    lead = moved.shape[:-1]
    n = moved.shape[-1]
    if M.shape[1] != n:
        raise ValueError("axis length mismatch")
    out = matmul(field, moved.reshape(-1, n), M.T)
    return np.moveaxis(out.reshape(lead + (M.shape[0],)), -1, axis)


def enumerate_vectors(
    q: int, length: int, start: int = 0, stop: Optional[int] = None
) -> np.ndarray:
    """Rows start..stop-1 (default: all q^length) of the lexicographic
    enumeration of q-ary vectors, as a (stop - start, length) uint8 array.

    The leftmost coordinate varies slowest, so row i is the base-q expansion
    of i (most significant digit first).
    """
    if stop is None:
        stop = q**length
    count = stop - start
    if count > 1 << 24:
        raise ValueError(f"enumeration of {count} vectors is too large")
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.zeros((count, length), dtype=np.uint8)
    for pos in range(length):
        out[:, length - 1 - pos] = (idx // (q**pos)) % q
    return out
