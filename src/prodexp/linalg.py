"""Dense linear algebra over GF(2^m) on numpy uint8 matrices.

`rref` is the one elimination: a caller that needs the operations too (a
kernel, the solutions of a system) reduces [A | I] and reads them from the
identity block.

Every matrix product is one GF(2) product of bit planes through BLAS
(`bit_product`): multiplication by a fixed matrix B is GF(2)-linear in the
bits of the left operand, so B expands once into a 0/1 float32 matrix
(`bit_matrix`) that callers multiplying by the same B keep, and float32
sums of at most n m < 2^24 bits are exact."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .gf_poly import GF2m

#: float32 cells of one block of `bit_product` (its bits of A and its sums
#: together, 128 KB), and the fewest rows of a block.  Larger blocks gain
#: little on RS[63,21] lines and raise the peak memory of decoding them; but
#: BLAS packs the whole bit matrix once per block, so 2,000 RS[255,85] lines
#: (an 11 MB syndrome bit matrix) took 1.7 times as long in blocks of 9 rows
_PRODUCT_CELLS = 1 << 15
_PRODUCT_ROWS = 64


def rref(
    field: GF2m, mat: np.ndarray, pivot_cols: Optional[int] = None
) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Pivots are sought in the first `pivot_cols` columns only (default: all);
    the row operations still act on whole rows, so the columns after them
    record the operations when they start as an identity block."""
    R = np.array(mat, dtype=np.uint8, copy=True)
    if R.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = R.shape
    table = field.mul_table
    pivots: List[int] = []
    r = 0
    for c in range(cols if pivot_cols is None else pivot_cols):
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


def matmul(field: GF2m, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over the field; A is (r, n), B is (n, c): one
    `bit_product` with B expanded by `bit_matrix`."""
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError("shape mismatch")
    return bit_product(field, A, bit_matrix(field, B))


def bit_matrix(field: GF2m, B: np.ndarray) -> np.ndarray:
    """The (n m, m c) 0/1 float32 matrix of an (n, c) matrix B over GF(2^m)
    as a GF(2)-linear map, the right operand of `bit_product`: row (t, b)
    holds the bits of B[t, :] 2^b, bit o of column j in column (o, j), low
    bits first."""
    B = np.asarray(B, dtype=np.uint8)
    if B.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, c = B.shape
    m = field.degree
    if n * m >= 1 << 24:
        raise ValueError("inner dimension too large for exact float32 sums")
    powers = np.arange(m, dtype=np.uint8)
    scaled = field.mul_table[B[:, None, :], (1 << powers)[:, None]]  # (t, b, j): B[t, j] 2^b
    bits = scaled[:, :, None, :] >> powers[:, None] & 1  # (t, b, o, j), uint8
    return bits.reshape(n * m, m * c).astype(np.float32)


def bit_product(field: GF2m, A: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """A times the matrix that `bit_matrix` expanded into `bits`, as one
    GF(2) product through BLAS per block of rows: `_PRODUCT_CELLS` cells, or
    `_PRODUCT_ROWS` rows if that is more.

    A's cells become bits through a (q, m) table, one float32 product sums
    the bits of every output cell, and the sums, exact below 2^24, are taken
    mod 2 and packed back into cells, one output bit plane at a time."""
    A = np.asarray(A, dtype=np.uint8)
    m = field.degree
    r, n = A.shape
    if bits.shape[0] != n * m:
        raise ValueError("shape mismatch")
    c = bits.shape[1] // m
    table = _bit_table(field)
    out = np.empty((r, c), dtype=np.uint8)
    step = max(_PRODUCT_ROWS, _PRODUCT_CELLS // ((n + c) * m or 1))
    for s in range(0, r, step):
        rows = A[s : s + step]
        sums = table[rows].reshape(rows.shape[0], n * m) @ bits
        # through int32: a float cast straight to uint8 is undefined above 255
        planes = sums.astype(np.int32).reshape(rows.shape[0], m, c)
        planes &= 1
        cells = planes[:, 0]
        for o in range(1, m):
            cells |= planes[:, o] << o
        out[s : s + step] = cells
    return out


@lru_cache(maxsize=None)
def _bit_table(field: GF2m) -> np.ndarray:
    """(q, m) float32 table of the bits of every field element, low bit
    first; built on first use, never at import."""
    m = field.degree
    table = (np.arange(field.order)[:, None] >> np.arange(m) & 1).astype(np.float32)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def apply_matrix_axis(field: GF2m, bits: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Multiply `axis` of `arr` by the (n, c) matrix B that `bit_matrix`
    expanded into `bits`: out[..., j, ...] = sum_t arr[..., t, ...] B[t, j].

    Works on batched tensors of any rank; the contracted axis may have any
    position and is replaced by an axis of length c.
    """
    arr = np.asarray(arr, dtype=np.uint8)
    moved = np.moveaxis(arr, axis, -1)
    out = bit_product(field, moved.reshape(-1, moved.shape[-1]), bits)
    return np.moveaxis(out.reshape(moved.shape[:-1] + (out.shape[1],)), -1, axis)


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
