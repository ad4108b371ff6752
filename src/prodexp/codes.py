"""Cyclic codes over GF(2^m): membership, distances, decoding.

A `CyclicCode` of length n is given by a check polynomial p | x^n - 1:
a word (a_0..a_{n-1}) belongs to the code iff p(x) a(x) = 0 mod (x^n - 1).
Its dimension equals deg p, its generator polynomial is (x^n - 1) / p.
`CyclicCode.check_products` computes that product along the leading axis
of any array, and is the one membership kernel of the package: lines here,
product- and sum-code words in `tensor`.  It runs in one of two layouts,
picked from the input's width: uint16 pairs of cells through per-coefficient
pair tables for narrow inputs, bit planes of 64-cell words (multiplication
by a constant as XORs) for wide ones, from (n - k) * columns >= 1500 m^2 on.
Single calls cross over between 256 and 512 columns for RS[255,85], 1,024
and 2,048 for RS[63,21], 2,048 and 8,192 for RS[15,5], 8,192 and 16,384 for
RS[3,1], and 512 and 1,024 for the binary [7,1] repetition code, where the
rule switches at 565, 1,286, 2,400, 3,000 and 250 columns; at 65,536
columns the bit planes are 3 to 4 times faster at GF(64) and GF(256).

Line distances are integer counts: `distance_bound` bounds the Hamming
distance of each decoded line, exactly where the line resolves.  Callers
make one `fractions.Fraction` per reported value, a `DistanceBound` where
bounded-distance decoding leaves only an interval.

Decoder rule: a line of a primitive RS code with more than 2^16 codewords
is decoded by unique (bounded-distance) decoding, a line of any other code
by an exhaustive nearest-codeword scan.  `nearest_lines` applies this rule
once per batch of lines, and every line distance of the package goes
through it: each direction of the line test and of the pair-proximity check
(which is defined by unique decoding), and `delta_to_code`, its one-row
view.  `distance_bound` bounds the distance of each line it returns.
`decode_lines`, the batched syndrome decoder, is the one unique decoder, and
`bounded_distance_decode` is its one-row view.  Its one `check_products`
call finds the codewords and feeds the other lines' syndromes; geometric
syndromes skip Berlekamp-Massey's steps, and the Chien search and Forney's
values run at each line's own locator length.  The per-word scan, the
Berlekamp-Welch decoder and the row-layout Berlekamp-Massey that these
replaced are the references `brute_nearest`, `orc_bounded_distance_decode`
and `orc_berlekamp_massey` in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .gf_poly import GF2m, unipoly_divmod, unipoly_mul, unipoly_trim, x_pow_n_minus_1

#: enumeration guard: codes with more codewords are neither enumerated nor
#: scanned exhaustively
_CACHE_LIMIT = 1 << 21
#: primitive RS codes with more codewords than this decode by unique decoding
_BOUNDED_ABOVE = 1 << 16
#: cells per block of the (lines, codewords) table of `nearest_lines`' scan
_SCAN_CELLS = 1 << 20
#: cells per block of `check_products`: a block's bit planes and products
#: stay within a 2 MB cache at GF(256)
_BLOCK_CELLS = 1 << 19
#: `check_products` bit-slices from (n - k) * columns >= _BITSLICE_FROM * m^2
_BITSLICE_FROM = 1500


@dataclass(frozen=True)
class DistanceBound:
    """Interval [lower, upper] certified to contain a normalized distance."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("empty distance interval")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError(f"distance only known to lie in {self}")
        return self.lower

    def __repr__(self) -> str:
        if self.exact:
            return f"DistanceBound({self.lower})"
        return f"DistanceBound({self.lower}..{self.upper})"


class CyclicCode:
    """Length-n cyclic code over GF(2^m) defined by its check polynomial."""

    def __init__(self, field: GF2m, length: int, check_coeffs: Sequence[int]) -> None:
        if length < 1:
            raise ValueError("length must be positive")
        p = unipoly_trim(check_coeffs)
        if not p:
            raise ValueError("check polynomial must be nonzero")
        if len(p) - 1 > length:
            raise ValueError("check polynomial degree exceeds length")
        xn1 = x_pow_n_minus_1(field, length)
        g, rem = unipoly_divmod(field, xn1, p)
        if rem:
            raise ValueError("check polynomial does not divide x^n - 1")
        self.field = field
        self.length = length
        self.check_coeffs: Tuple[int, ...] = p
        self.dimension = len(p) - 1
        self.generator_coeffs: Tuple[int, ...] = g
        self._rs_root_count: Optional[int] = None  # set by rs_primitive
        self._codewords: Optional[np.ndarray] = None
        self._generator_matrix: Optional[np.ndarray] = None
        self._generator_bits: Optional[np.ndarray] = None
        self._systematic_bits: Optional[np.ndarray] = None
        self._min_distance: Optional[int] = None
        self._syndrome_ctx = None
        self._bitslice_terms: Optional[List[Tuple[int, int, int]]] = None

    # -- basic structure ------------------------------------------------
    @property
    def generator_matrix(self) -> np.ndarray:
        """k x n matrix whose rows are x^j * g(x), j = 0..k-1; built on first
        use and kept read-only, since every caller shares it."""
        if self._generator_matrix is None:
            k, g = self.dimension, self.generator_coeffs
            G = np.zeros((k, self.length), dtype=np.uint8)
            for j in range(k):
                G[j, j : j + len(g)] = g  # deg g = n - k, so no row wraps around
            G.flags.writeable = False
            self._generator_matrix = G
        return self._generator_matrix

    @property
    def is_rs_primitive(self) -> bool:
        return self._rs_root_count is not None

    def __repr__(self) -> str:
        return f"CyclicCode(GF(2^{self.field.degree}), n={self.length}, k={self.dimension})"

    def label(self) -> str:
        if self.is_rs_primitive:
            return f"rs_gf{self.field.order}_n{self.length}_k{self.dimension}"
        return f"cyclic_gf{self.field.order}_n{self.length}_k{self.dimension}"

    # -- membership ------------------------------------------------------
    def contains(self, word: Sequence[int] | np.ndarray) -> bool:
        w = np.asarray(word, dtype=np.uint8)
        if w.shape != (self.length,):
            raise ValueError(f"word length {w.shape} != {self.length}")
        return bool(self.contains_batch(w[None, :])[0])

    def contains_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized membership for a (W, n) array of words."""
        words = np.asarray(words, dtype=np.uint8)
        if words.ndim != 2 or words.shape[1] != self.length:
            raise ValueError("expected a (W, n) array")
        return ~self.check_products(words.T).any(axis=1)

    def check_products(self, arr: np.ndarray) -> np.ndarray:
        """Coefficients k, ..., n - 1 of p(x) a(x) mod x^n - 1 along the leading
        axis, p the check polynomial of degree k; that axis is moved to the end,
        and the result is C-contiguous in that order.

        Multiplication by p has the code as its kernel and maps onto the cyclic
        code generated by p, of dimension n - k, in which any n - k consecutive
        positions are an information set; so the truncated map has the same
        kernel, and the tensor product of these maps has the sum code as its
        kernel, for any lengths.  Coefficient k + r is sum_j p_j a[r + k - j]
        with no wrap-around, so term j reads rows k - j .. n - 1 - j.

        The columns (all axes but the leading one) are independent and go
        through one kernel a block at a time, in one of two layouts chosen by
        the input's width: narrow inputs as uint16 pairs of cells through a
        pair table of q^2 entries per coefficient (`_pair_products`), wide
        ones bit-sliced (`_bitsliced_products`), where multiplication by p_j
        is m^2 / 2 XORs of 64-cell words on average.  The bit-sliced layout
        costs about (k + 1) m^2 / 2 array operations per block however narrow
        the block, so it is taken only when (n - k) * columns >=
        `_BITSLICE_FROM` * m^2."""
        n, rest = arr.shape[0], arr.shape[1:]
        if n != self.length:
            raise ValueError(f"leading axis {n} != {self.length}")
        keep = n - self.dimension
        R = prod(rest)
        cols = arr.reshape(n, R)  # a view for every input `sum_contains_batch` passes
        out = np.empty((R, keep), dtype=np.uint8)
        m = self.field.degree
        bitsliced = keep * R >= _BITSLICE_FROM * m * m
        unit = 64 if bitsliced else 2  # cells per uint64 word, per uint16 pair
        width = max(unit, min(_BLOCK_CELLS // n, -(-R // unit) * unit) // unit * unit)
        products = (_bitsliced_products if bitsliced else _pair_products)(self, width)
        # zeros pad the last block; stale columns of earlier blocks are valid cells
        block = _aligned_zeros((n, width), np.uint8)
        for s in range(0, R, width):
            b = min(width, R - s)
            block[:, :b] = cols[:, s : s + b]
            out[s : s + b] = products(block)[:, :b].T
        return out.reshape(rest + (keep,))

    # -- encoding / enumeration ------------------------------------------
    def encode(self, message: Sequence[int] | np.ndarray) -> np.ndarray:
        m = np.asarray(message, dtype=np.uint8).reshape(1, -1)
        return self.encode_batch(m)[0]

    def encode_batch(self, messages: np.ndarray, axis: int = -1) -> np.ndarray:
        """Encode every message, of length k along `axis`, into a codeword of
        length n there: one `linalg.apply_matrix_axis` by the generator's bit
        matrix, built on first use and kept on the code."""
        messages = np.asarray(messages, dtype=np.uint8)
        if messages.shape[axis] != self.dimension:
            raise ValueError("message length mismatch")
        if self._generator_bits is None:
            self._generator_bits = linalg.bit_matrix(self.field, self.generator_matrix)
        return linalg.apply_matrix_axis(self.field, self._generator_bits, messages, axis)

    @property
    def systematic_bits(self) -> np.ndarray:
        """Bit matrix (`linalg.bit_matrix`) of the systematic generator [I | A],
        the reduced row echelon form of the generator matrix: it encodes a
        message into the codeword equal to it on the first k positions, an
        information set of a cyclic code.  Built on first use, kept on the code."""
        if self._systematic_bits is None:
            systematic = linalg.rref(self.field, self.generator_matrix)[0]  # full rank k
            self._systematic_bits = linalg.bit_matrix(self.field, systematic)
        return self._systematic_bits

    def codewords(self) -> np.ndarray:
        """All q^k codewords as a (q^k, n) array in lexicographic order
        (cached; small codes only)."""
        count = self.field.order**self.dimension
        if count > _CACHE_LIMIT:
            raise ValueError(f"code with {count} words is too large to enumerate")
        if self._codewords is None:
            msgs = linalg.enumerate_vectors(self.field.order, self.dimension)
            cws = self.encode_batch(msgs)
            self._codewords = cws[np.lexsort(cws.T[::-1])]
        return self._codewords

    def random_codeword(self, rng: np.random.Generator) -> np.ndarray:
        msg = rng.integers(0, self.field.order, size=self.dimension, dtype=np.uint8)
        return self.encode(msg)


def _pair_products(code: CyclicCode, width: int):
    """Block kernel of `check_products` on uint16 pairs of cells: maps an
    (n, width) block of cells to its (n - k, width) kept products, one
    pair-table gather per check coefficient."""
    n, k = code.length, code.dimension
    keep, q = n - k, code.field.order
    terms = [(k - j, _pair_table(code.field, c)) for j, c in enumerate(code.check_coeffs) if c]
    acc = np.empty((keep, width // 2), dtype=np.uint16)

    def products(block: np.ndarray) -> np.ndarray:
        pairs = block.view(np.uint16)
        idx = pairs.astype(np.intp)
        idx -= (pairs >> 8) * (256 - q)  # lo + 256 hi -> lo + q hi
        acc[...] = 0
        for start, table in terms:
            np.bitwise_xor(acc, table[idx[start : start + keep]], out=acc)
        return acc.view(np.uint8)

    return products


@lru_cache(maxsize=None)
def _pair_table(field: GF2m, c: int) -> np.ndarray:
    """Multiplication by c on both bytes of a uint16 pair of cells lo, hi < q,
    at index lo + q hi: q^2 entries, 65,536 for GF(256) and 4,096 for GF(64)."""
    row = field.mul_table[c].astype(np.uint16)
    table = (row[None, :] | (row[:, None] << 8)).reshape(-1)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _bitsliced_products(code: CyclicCode, width: int):
    """Block kernel of `check_products` on bit planes (Biham 1997): maps an
    (n, width) block of cells, width a multiple of 64, to its (n - k, width)
    kept products.

    Bit b of every cell of a row goes into one bit plane of width / 64
    uint64 words: per 8 cells, shift by b, mask the low bit of each byte and
    multiply by 0x0102040810204080, which gathers the 8 bits into the top
    byte.  Multiplication by p_j is GF(2)-linear, so bit bo of term j is the
    XOR of the planes bi of rows k - j .. n - 1 - j over the pairs (bi, bo)
    with bit bo of p_j * 2^bi set (`_bitslice_terms`).  A 256-entry spread
    table turns the output planes back into cells."""
    n, m = code.length, code.field.degree
    keep = n - code.dimension
    words = width // 8  # uint64 words of 8 cells per row of a block
    shifted = _aligned_zeros((n, words), np.uint64)
    planes = _aligned_zeros((m, n, words), np.uint8)  # bytes of 8 bits, one per cell
    acc = _aligned_zeros((m, keep, width // 64), np.uint64)
    cells = _aligned_zeros((keep, words), np.uint64)
    spread = _aligned_zeros((keep, words), np.uint64)
    bit_planes = planes.view(np.uint64)
    pairs = [(acc[bo], bit_planes[bi, off : off + keep]) for bi, bo, off in _bitslice_terms(code)]
    acc_bytes = acc.view(np.uint8)

    def products(block: np.ndarray) -> np.ndarray:
        grouped = block.view(np.uint64)
        for b in range(m):
            np.right_shift(grouped, np.uint64(b), out=shifted)
            np.bitwise_and(shifted, _LOW_BITS, out=shifted)
            np.multiply(shifted, _GATHER_BITS, out=shifted)
            np.right_shift(shifted, np.uint64(56), out=shifted)
            planes[b] = shifted
        acc[...] = 0
        for out, plane in pairs:
            np.bitwise_xor(out, plane, out=out)
        np.take(_SPREAD_BITS, acc_bytes[0], out=cells)
        for bo in range(1, m):
            np.take(_SPREAD_BITS, acc_bytes[bo], out=spread)
            np.left_shift(spread, np.uint64(bo), out=spread)
            np.bitwise_or(cells, spread, out=cells)
        return cells.view(np.uint8)

    return products


def _aligned_zeros(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Zeros from a 64-byte boundary, so that no vector load splits a cache line."""
    raw = np.zeros(prod(shape) * np.dtype(dtype).itemsize + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + raw.size - 64].view(dtype).reshape(shape)


def _bitslice_terms(code: CyclicCode) -> List[Tuple[int, int, int]]:
    """(input bit bi, output bit bo, row offset k - j) for every check
    coefficient p_j and every bit bo set in p_j * 2^bi; built on first use
    and cached on the code."""
    if code._bitslice_terms is None:
        field, k = code.field, code.dimension
        m = field.degree
        code._bitslice_terms = [
            (bi, bo, k - j)
            for j, c in enumerate(code.check_coeffs)
            if c
            for bi in range(m)
            for bo in range(m)
            if field.mul_table[c, 1 << bi] >> bo & 1
        ]
    return code._bitslice_terms


#: bit i of every byte of a uint64 word, and the multiplier that gathers
#: those 8 bits into the top byte (bit i from byte i)
_BYTE_BITS = np.arange(8, dtype=np.uint64)
_LOW_BITS = np.uint64(0x0101010101010101)
_GATHER_BITS = np.uint64(0x0102040810204080)
#: byte -> uint64 whose byte i holds bit i of it
_SPREAD_BITS = (
    (np.arange(256, dtype=np.uint64)[:, None] >> _BYTE_BITS & np.uint64(1)) << 8 * _BYTE_BITS
).sum(axis=1, dtype=np.uint64)


def repetition(field: GF2m, length: int) -> CyclicCode:
    """[n, 1] repetition code: check polynomial x - 1."""
    return CyclicCode(field, length, (1, 1))


def full_code(field: GF2m, length: int) -> CyclicCode:
    """The whole space F_q^n as a cyclic code (check polynomial x^n - 1)."""
    return CyclicCode(field, length, x_pow_n_minus_1(field, length))


def rs_primitive(field: GF2m, rate_num: int, rate_den: int) -> CyclicCode:
    """Primitive Reed-Solomon code of length n = 2^m - 1 and rate num/den.

    The check polynomial is (x - 1)(x - w)...(x - w^(k-1)) with
    k = n * rate_num / rate_den, so codewords are exactly the evaluation
    vectors of polynomials of degree < k at (1, w^-1, ..., w^(1-n)).
    """
    n = field.order - 1
    if n < 1:
        raise ValueError("field too small for a primitive RS code")
    if rate_den < 1:
        raise ValueError(f"rate denominator {rate_den} must be at least 1")
    if (n * rate_num) % rate_den != 0:
        raise ValueError(f"n={n} not compatible with rate {rate_num}/{rate_den}")
    k = n * rate_num // rate_den
    if not 1 <= k <= n:
        raise ValueError(f"rate gives dimension {k} outside [1, {n}]")
    p: Tuple[int, ...] = (1,)
    for i in range(k):
        p = unipoly_mul(field, p, (field.omega_pow(i), 1))
    code = CyclicCode(field, n, p)
    code._rs_root_count = k
    return code


def min_distance(code: CyclicCode) -> int:
    """Exact minimum Hamming weight of a nonzero codeword."""
    if code._min_distance is not None:
        return code._min_distance
    cws = code.codewords()
    weights = np.count_nonzero(cws, axis=1)
    nz = weights[weights > 0]
    if nz.size == 0:
        raise ValueError("zero code has no minimum distance")
    code._min_distance = int(nz.min())
    return code._min_distance


# -- decoding ------------------------------------------------------------

def bounded_distance_decode(
    code: CyclicCode, word: Sequence[int] | np.ndarray
) -> Optional[Tuple[np.ndarray, int]]:
    """Unique decoding of one word of a primitive RS code within radius
    floor((d-1)/2): the one-row view of `decode_lines`.  Returns (codeword,
    distance) or None when no codeword lies within the radius."""
    if not code.is_rs_primitive:
        raise ValueError("bounded-distance decoding requires a primitive RS code")
    w = np.asarray(word, dtype=np.uint8)
    if w.shape != (code.length,):
        raise ValueError("word length mismatch")
    codewords, dists, resolved = decode_lines(code, w[None, :])
    return (codewords[0], int(dists[0])) if resolved[0] else None


def _syndrome_context(code: CyclicCode):
    """Tables of the syndrome decoder, built once per code, on first use.

    The 2e syndromes S_t = sum_i a_i w^((k+t)i) are linear in the word and
    vanish on the code, the kernel of its kept check products
    (`CyclicCode.check_products`); so a word's syndromes are its kept
    products times one (n - k, 2e) matrix M.  The products K of the unit
    words e_k .. e_(n-1) are invertible, since 0 .. k - 1 is an information
    set, and M = K^-1 Y with Y their syndromes: one `linalg.rref` of
    [K | Y].  The context holds M and the evaluation matrix w^(-iu) of
    polynomials of degree at most e at X^-1 = w^-i, each expanded by
    `linalg.bit_matrix` for `linalg.bit_product`; the points w^-i and the
    Forney factors X^(1-k) as (n,) tables, and field inverses (0 -> 0)."""
    if code._syndrome_ctx is None:
        field, n, k = code.field, code.length, code.dimension
        e = (n - k) // 2
        i = np.arange(n)
        exp = np.array([field.omega_pow(j) for j in range(n)], dtype=np.uint8)
        units = code.check_products(np.eye(n, dtype=np.uint8)[:, k:])
        direct = exp[np.outer(i[k:], k + np.arange(2 * e)) % n]
        to_syndromes = linalg.rref(field, np.hstack([units, direct]))[0][:, n - k :]
        evaluate = exp[np.outer(np.arange(e + 1), -i) % n]
        inv = np.array([0] + [field.inv(a) for a in range(1, field.order)], dtype=np.uint8)
        code._syndrome_ctx = (
            e,
            linalg.bit_matrix(field, to_syndromes),
            linalg.bit_matrix(field, evaluate),
            exp[-i % n],
            exp[i * (1 - k) % n],
            inv,
        )
    return code._syndrome_ctx


def decode_lines(
    code: CyclicCode, lines: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique decoding of a (W, n) batch of lines of a primitive RS code
    within radius e = floor((n - k)/2), the package's one unique decoder.

    Returns (codewords, dists, resolved).  A resolved line holds the unique
    codeword within distance e and that distance; an unresolved line, which
    has no codeword that close, keeps the received word at distance 0.

    Each step runs only on the lines that can still resolve.  One call of
    `CyclicCode.check_products` finds the codewords, whose kept products all
    vanish, and feeds the syndromes of the other lines, through the matrix
    of `_syndrome_context`.  Codewords vanish at w^k .. w^(n-1), so an error
    pattern of values Y_j at X_j = w^(i_j) has syndromes S_t = sum_j Y_j
    X_j^k X_j^t.  Berlekamp-Massey (Massey 1969) gives the locator Lambda(x)
    = prod_j (1 - X_j x) of length L of every line, and the lines with
    1 <= L <= e go on in groups of one L each.  deg Lambda <= L, so the
    Chien search finds its roots X_j^-1 from its first L + 1 coefficients.
    Where they are L roots, all simple, Forney's formula (Forney 1965) gives
    Y_j = X_j^(1-k) Omega(X_j^-1) / Lambda'(X_j^-1) with Omega = S Lambda mod
    x^(2e), of degree below L, evaluated by Horner over its L terms at those
    L roots only.  A line is resolved only when the corrected word is a
    codeword within distance e, which is then the only one.
    """
    if not code.is_rs_primitive:
        raise ValueError("bounded-distance decoding requires a primitive RS code")
    field, n = code.field, code.length
    lines = np.asarray(lines, dtype=np.uint8)
    if lines.ndim != 2 or lines.shape[1] != n:
        raise ValueError("expected a (W, n) array of lines")
    e, syndrome, evaluate, points, forney, inv = _syndrome_context(code)
    codewords = lines.copy()
    dists = np.zeros(lines.shape[0], dtype=np.int64)
    kept = code.check_products(lines.T)
    resolved = ~kept.any(axis=1)  # a codeword at distance 0
    todo = np.flatnonzero(~resolved)
    if e == 0 or todo.size == 0:
        return codewords, dists, resolved
    table, m = field.mul_table, field.degree
    S = linalg.bit_product(field, kept[todo], syndrome)
    del kept  # not held through Berlekamp-Massey's temporaries
    locator, length = _berlekamp_massey(table, inv, S)
    errors = np.zeros((todo.size, n), dtype=np.uint8)
    for ell in (np.flatnonzero(np.bincount(length)[1 : e + 1]) + 1).tolist():
        rows = np.flatnonzero(length == ell)
        lam = locator[rows, : ell + 1]
        roots = linalg.bit_product(field, lam, evaluate[: (ell + 1) * m]) == 0
        full = roots.sum(axis=1) == ell
        rows, lam, roots = rows[full], lam[full], roots[full]
        # Lambda generates S, so S Lambda mod x^(2e) has degree below L
        omega = np.zeros((rows.size, ell), dtype=np.uint8)
        for u in range(ell):
            omega[:, u:] ^= table[lam[:, u : u + 1], S[rows, : ell - u]]
        deriv = np.zeros((rows.size, ell), dtype=np.uint8)
        deriv[:, 0::2] = lam[:, 1::2]  # characteristic 2: only odd powers survive
        # L distinct roots of a degree <= L polynomial are simple: Lambda' != 0
        row, at = np.nonzero(roots)
        x, value, slope = points[at], omega[row, ell - 1], deriv[row, ell - 1]
        for u in range(ell - 2, -1, -1):
            value = table[value, x] ^ omega[row, u]
            slope = table[slope, x] ^ deriv[row, u]
        errors[rows[row], at] = table[table[forney[at], value], inv[slope]]
    dist = np.count_nonzero(errors, axis=1)
    ok = (dist >= 1) & (dist <= e)
    ok[ok] = code.contains_batch(lines[todo[ok]] ^ errors[ok])
    done = todo[ok]
    codewords[done] ^= errors[ok]
    dists[done] = dist[ok]
    resolved[done] = True
    return codewords, dists, resolved


def _berlekamp_massey(
    table: np.ndarray, inv: np.ndarray, S: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Shortest LFSR (connection polynomial C, length L) of every row of a
    (W, N) syndrome array.  Returns C as a (W, N + 1) array and L.

    A geometric row, S_0 != 0 and S_(t+1) = r S_t for every t with r = S_1 /
    S_0, gets C = 1 + r x and L = 1 without Massey's steps, which return just
    that (C = 1 where S_1 = 0).  The other rows run N steps of Massey's
    algorithm at once, on (column, line) arrays: lines run along the
    contiguous axis, so a sum over coefficients is a reduction over axis 0.
    The branch on the discrepancy d becomes a mask; a product a b is a
    gather from the raveled multiplication table at a q + b, the syndromes
    reversed and scaled by q once.  deg C <= L after every step (Massey
    1969), so the discrepancy and the update C + (d / b) x^m B read columns
    0 .. max L of the batch only.  Each step shifts x^m B up by one over
    columns 0 .. r + 2 and puts x C in its place where L grows."""
    W, N = S.shape
    geometric, ratio = np.zeros(W, dtype=bool), np.zeros(W, dtype=np.uint8)
    if N >= 2:
        ratio = table[S[:, 1], inv[S[:, 0]]]
        geometric = (S[:, 0] != 0) & (table[S[:, :-1], ratio[:, None]] == S[:, 1:]).all(axis=1)
    rest = np.flatnonzero(~geometric)
    shift = table.shape[0].bit_length() - 1
    mul = table.reshape(-1)
    rev = S[rest].T[::-1].astype(np.intp) << shift  # S_r, ..., S_0 at rev[N - 1 - r :]
    C = np.zeros((N + 1, rest.size), dtype=np.uint8)
    C[0] = 1
    xB = np.zeros((N + 2, rest.size), dtype=np.uint8)  # x^m B, with B = 1 and m = 1 first
    xB[1] = 1
    L = np.zeros(rest.size, dtype=np.int64)
    b = np.ones(rest.size, dtype=np.intp)
    top = 0  # max L of the batch
    for r in range(N if rest.size else 0):  # no steps when every row is geometric
        d = np.bitwise_xor.reduce(mul[rev[N - 1 - r : N + top - r] | C[: top + 1]], axis=0)
        grow = (d != 0) & (2 * L <= r)
        L = np.where(grow, r + 1 - L, L)
        last, top = top, int(L.max(initial=0))
        factor = mul[(d.astype(np.intp) << shift) | inv[b]]
        update = mul[(factor.astype(np.intp) << shift) | xB[: top + 1]]
        xB[1 : r + 3] = xB[: r + 2]
        np.copyto(xB[1 : last + 2], C[: last + 1], where=grow)  # x C: deg C <= last
        np.copyto(xB[last + 2 : r + 3], 0, where=grow)
        C[: top + 1] ^= update  # d = 0: no change
        b = np.where(grow, d, b)
    # the output is allocated only now, past the steps' largest temporaries
    locator = np.zeros((W, N + 1), dtype=np.uint8)
    locator[:, 0] = 1
    locator[geometric, 1] = ratio[geometric]
    locator[rest], length = C.T, geometric.astype(np.int64)
    length[rest] = L
    return locator, length


def nearest_lines(
    code: CyclicCode, lines: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest codewords of a (W, n) batch of lines by the module's decoder
    rule, with the contract of `decode_lines`: (codewords, dists, resolved),
    an unresolved line kept at distance 0.

    A primitive RS code with more than 2^16 codewords goes to `decode_lines`.
    Every other code is scanned exhaustively, one block of the (W, q^k)
    table of Hamming distances at a time; every line resolves, and the first
    minimum of its row is, among its nearest codewords, the lexicographically
    smallest, since `codewords` is sorted.  The scan is refused, as by
    `CyclicCode.codewords`, for codes of more than 2^21 codewords."""
    lines = np.asarray(lines, dtype=np.uint8)
    if lines.ndim != 2 or lines.shape[1] != code.length:
        raise ValueError("expected a (W, n) array of lines")
    if code.is_rs_primitive and code.field.order**code.dimension > _BOUNDED_ABOVE:
        return decode_lines(code, lines)
    cws = code.codewords()
    nearest = np.empty(lines.shape[0], dtype=np.intp)
    dists = np.empty(lines.shape[0], dtype=np.int64)
    step = max(1, _SCAN_CELLS // cws.size)
    for s in range(0, lines.shape[0], step):
        table = np.count_nonzero(lines[s : s + step, None] != cws[None], axis=2)
        nearest[s : s + step] = table.argmin(axis=1)
        dists[s : s + step] = table.min(axis=1)
    return cws[nearest], dists, np.ones(lines.shape[0], dtype=bool)


def distance_bound(
    code: CyclicCode, dists: np.ndarray, resolved: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Certified Hamming distance of each line that `nearest_lines` decoded,
    as int64 (lower, upper) arrays: a resolved line gives its distance at
    both ends, an unresolved line e + 1 and n - k, since it lies beyond the
    decoding radius e = floor((n - k)/2) and within the covering radius n - k."""
    redundancy = code.length - code.dimension
    return np.where(resolved, dists, redundancy // 2 + 1), np.where(resolved, dists, redundancy)


def delta_to_code(
    word: Sequence[int] | np.ndarray, code: CyclicCode
) -> DistanceBound:
    """Normalized distance from a word to the code, as a certified interval
    (`distance_bound`): the one-row view of `nearest_lines`."""
    _codewords, dists, resolved = nearest_lines(code, np.asarray(word, dtype=np.uint8)[None])
    lower, upper = distance_bound(code, dists, resolved)
    return DistanceBound(Fraction(int(lower[0]), code.length), Fraction(int(upper[0]), code.length))
