"""m-dimensional words over GF(2^m): lines, flats, direction norms, membership.

Index convention: an entry is addressed as (i_1, ..., i_m), zero-based.  A
line in direction j fixes every coordinate except the j-th.  Weights and
norms are exact `Fraction`s, line distances integer counts of cells.
`enumerate_flats` lists plain `Flat`s; a flat test weighs each flat by
its size.

Both membership tests run the one kernel `CyclicCode.check_products`,
which multiplies every line along an axis by that code's check polynomial
modulo x^n - 1 and keeps only n - k consecutive products per line.  A word
belongs to the product code of a family (C_1, ..., C_m) iff, along every
axis taken alone, everything kept is zero.  It belongs to the sum code (the
dual of the tensor product of the duals) iff everything kept is zero after
the products are taken along every axis in turn; this holds for every
family, equal lengths or not.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .codes import CyclicCode, distance_bound, nearest_lines
from .gf_poly import GF2m, field_make

#: cells per block of `TensorWord.text_blocks`, the writer that streams a
#: certificate to its file; characters per block of the reader `from_text`
_TEXT_BLOCK = 1 << 18
#: (row, column) pairs per block of `xor_line_counts`; a pair's XOR of line
#: codes takes L x (code width) bytes, L = N/n lines and a width of 1, 2, 4,
#: 8 or 8 ceil(n/8) bytes (`_line_codes`): 36 bytes on RS[3,1]^3 (N = 27),
#: where an XOR of the words themselves takes N
_XOR_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class TensorWord:
    """Immutable m-dimensional array of field elements."""

    field: GF2m
    data: np.ndarray

    def __post_init__(self) -> None:
        self._hold(np.array(self.data, dtype=np.uint8))  # a copy

    def _hold(self, arr: np.ndarray) -> None:
        """Take `arr`, a uint8 array no one else holds, as the read-only data."""
        if arr.max(initial=0) >= self.field.order:
            raise ValueError("entry outside the field")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @staticmethod
    def zeros(field: GF2m, shape: Sequence[int]) -> "TensorWord":
        return TensorWord(field, np.zeros(tuple(shape), dtype=np.uint8))

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def weight(self) -> int:
        return int(np.count_nonzero(self.data))

    def norm(self) -> Fraction:
        return Fraction(self.weight(), self.size)

    def __add__(self, other: "TensorWord") -> "TensorWord":
        if other.field != self.field or other.shape != self.shape:
            raise ValueError("shape or field mismatch")
        return TensorWord(self.field, self.data ^ other.data)

    __sub__ = __add__  # characteristic 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TensorWord)
            and other.field == self.field
            and np.array_equal(other.data, self.data)
        )

    def __repr__(self) -> str:
        return f"TensorWord(GF(2^{self.field.degree}), shape={self.shape}, |supp|={self.weight()})"

    # -- text serialization -------------------------------------------------
    def text_blocks(self) -> Iterator[str]:
        """The text form in pieces: the header `shape n_1 ... n_m field 2^m`,
        then hex entries row-major, one innermost row per line, in blocks of
        whole rows of about `_TEXT_BLOCK` cells."""
        head = "shape " + " ".join(str(n) for n in self.shape)
        yield head + f" field 2^{self.field.degree}\n"
        flat = self.data.reshape(-1, self.shape[-1])
        step = max(1, _TEXT_BLOCK // flat.shape[1])
        for s in range(0, flat.shape[0], step):
            rows = flat[s : s + step]
            cells = np.take(_HEX_CELL, rows)
            cells[:, -1] = np.take(_HEX_LINE_END, rows[:, -1])
            yield cells.tobytes().translate(None, b"\0").decode("ascii")

    def to_text(self) -> str:
        return "".join(self.text_blocks())

    @staticmethod
    def from_text(text: str, start: int = 0, stop: Optional[int] = None) -> "TensorWord":
        """Parse the `to_text` form held in text[start:stop] (the whole text by
        default) without copying it: the entries fill one preallocated array,
        a block of `_TEXT_BLOCK` characters at a time, that the word then
        holds as its data.  Anything malformed raises `ValueError`."""
        stop = len(text) if stop is None else stop
        start = _LEADING_SPACE.match(text, start, stop).end()
        eol = text.find("\n", start, stop)
        eol = stop if eol < 0 else eol
        toks = text[start:eol].split()
        if len(toks) < 4 or toks[0] != "shape" or toks[-2] != "field" or toks.count("field") > 1:
            raise ValueError(f"bad header {text[start:eol]!r}")
        base, _, deg = toks[-1].partition("^")
        if base != "2":
            raise ValueError("only characteristic-2 fields are supported")
        field = field_make(int(deg))
        shape = tuple(int(t) for t in toks[1:-2])
        size = prod(shape)
        # no text holds more entries than characters, so a larger shape is
        # refused after the entries are read, without allocating it
        fits = min(shape) >= 1 and size <= stop - eol
        vals = np.empty(size if fits else 0, dtype=np.uint8)
        count, pos = 0, eol
        while pos < stop:
            end = text.find("\n", pos + _TEXT_BLOCK, stop)
            end = stop if end < 0 else end
            entries = _hex_entries(text[pos:end])
            if count + entries.size <= vals.size:
                vals[count : count + entries.size] = entries
            count += entries.size
            pos = end
        if not fits or count != size:
            raise ValueError("entry count does not match the shape")
        return TensorWord._adopt(field, vals.reshape(shape))

    @staticmethod
    def _adopt(field: GF2m, arr: np.ndarray) -> "TensorWord":
        """The word holding `arr` itself instead of a copy (see `_hold`)."""
        word = object.__new__(TensorWord)
        object.__setattr__(word, "field", field)
        word._hold(arr)
        return word


#: value -> the 4 bytes (high hex digit or NUL when below 16, low hex digit,
#: separator, NUL) as one uint32; the separator is a space in `_HEX_CELL`
#: and a newline in `_HEX_LINE_END`, the table of each row's last cell
_HEX_CELL, _HEX_LINE_END = (
    np.array([[*f"{v:x}".rjust(2, "\0").encode(), sep, 0] for v in range(256)], np.uint8)
    .view(np.uint32)
    .reshape(-1)
    for sep in b" \n"
)
#: the leading whitespace that `str.lstrip` removes
_LEADING_SPACE = re.compile(r"\s*")
#: character -> hex digit value, _SPACE for whitespace (as `str.split`), _BAD otherwise
_SPACE, _BAD = 16, 17
_HEX_VALUE = np.array(
    [int(c, 16) if c in string.hexdigits else _SPACE if c.isspace() else _BAD
     for c in map(chr, range(256))],
    dtype=np.uint8,
)


def _hex_entries(chunk: str) -> np.ndarray:
    """The whitespace-separated hex entries (one or two digits) of a text."""
    val = _HEX_VALUE[np.frombuffer(chunk.encode("ascii", "replace"), dtype=np.uint8)]
    if (val == _BAD).any():
        raise ValueError("tensor entries must be hex digits")
    digit = np.concatenate(([False], val < 16, [False]))
    first = np.flatnonzero(digit[1:-1] & ~digit[:-2])
    last = np.flatnonzero(digit[1:-1] & ~digit[2:])
    if (last - first > 1).any():
        raise ValueError("tensor entry above ff")
    return np.where(last > first, val[first] << 4, 0).astype(np.uint8) | val[last]


@dataclass(frozen=True)
class Flat:
    """Axis-parallel flat: free axes plus a base point zeroed on those axes."""

    free_axes: Tuple[int, ...]
    base: Tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.free_axes))) != self.free_axes:
            raise ValueError("free axes must be strictly increasing")
        for i in self.free_axes:
            if self.base[i] != 0:
                raise ValueError("base must be zero on free axes")

    @property
    def k(self) -> int:
        return len(self.free_axes)


@dataclass(frozen=True)
class CodeFamily:
    """One component code per axis; lengths define the grid shape."""

    codes: Tuple[CyclicCode, ...]

    def __post_init__(self) -> None:
        if not self.codes:
            raise ValueError("empty family")
        f = self.codes[0].field
        if any(c.field != f for c in self.codes):
            raise ValueError("all component codes must share a field")

    @staticmethod
    def power(code: CyclicCode, m: int) -> "CodeFamily":
        return CodeFamily((code,) * m)

    @property
    def field(self) -> GF2m:
        return self.codes[0].field

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(c.length for c in self.codes)

    @property
    def m(self) -> int:
        return len(self.codes)

    def restrict(self, axes: Sequence[int]) -> "CodeFamily":
        return CodeFamily(tuple(self.codes[i] for i in axes))

    def label(self) -> str:
        labels = [c.label() for c in self.codes]
        if len(set(labels)) == 1:
            return f"{labels[0]}^{self.m}"
        return "x".join(labels)


# ----------------------------------------------------------------------
# Flats and restrictions.
# ----------------------------------------------------------------------

def enumerate_flats(shape: Sequence[int], k: int) -> List[Flat]:
    """All k-flats: the free-axis sets in lexicographic order, and for each
    set every base point over the fixed axes, row-major."""
    shape = tuple(shape)
    m = len(shape)
    if not 1 <= k <= m - 1:
        raise ValueError(f"flat dimension {k} outside [1, {m - 1}]")
    out: List[Flat] = []
    for axes in itertools.combinations(range(m), k):
        fixed = [i for i in range(m) if i not in axes]
        for coords in itertools.product(*(range(shape[i]) for i in fixed)):
            base = [0] * m
            for i, v in zip(fixed, coords):
                base[i] = v
            out.append(Flat(axes, tuple(base)))
    return out


def restrict(word: TensorWord, flat: Flat) -> TensorWord:
    """k-dimensional word read along the free axes, axis order ascending."""
    if len(flat.base) != len(word.shape):
        raise ValueError("flat does not match the word's rank")
    idx = tuple(
        slice(None) if i in flat.free_axes else flat.base[i]
        for i in range(len(word.shape))
    )
    return TensorWord(word.field, word.data[idx])


def _line_codes(words: np.ndarray, shape: Sequence[int], axis: int) -> np.ndarray:
    """The line codes of flat (..., N) words, N = prod(shape): each
    direction-`axis` line's n cells (bytes), zero-padded to 1, 2, 4 or 8
    bytes and read as one unsigned integer, or above 8 cells to ceil(n/8)
    uint64 words.  An array of shape (W, L, ...), W words per code and L =
    N/n lines, so that a count over lines adds whole planes of words."""
    lead = words.shape[:-1]
    shape = tuple(shape)
    n = shape[axis]
    width = 1 << (n - 1).bit_length() if n <= 8 else 8 * -(-n // 8)
    lines = np.moveaxis(words.reshape(lead + shape), len(lead) + axis, -1)
    packed = np.zeros(lead + (prod(shape) // n, width), dtype=np.uint8)
    packed.reshape(lines.shape[:-1] + (width,))[..., :n] = lines
    codes = packed.view(f"u{min(width, 8)}")
    return np.ascontiguousarray(np.moveaxis(codes, (-1, -2), (0, 1)))


def _nonzero_codes(codes: np.ndarray) -> np.ndarray:
    """The number of nonzero lines in (W, L, ...) line codes: an int64
    array of shape (...).  A line's W words are OR-folded first."""
    folded = codes[0] if codes.shape[0] == 1 else np.bitwise_or.reduce(codes, axis=0)
    return np.count_nonzero(folded, axis=0)


def line_counts(words: np.ndarray, shape: Sequence[int], axis: int) -> np.ndarray:
    """Number of nonzero direction-`axis` lines of each flat word: an int64
    array of shape (...) for words of shape (..., N), N = prod(shape)."""
    return _nonzero_codes(_line_codes(words, shape, axis))


def xor_line_counts(
    rows: np.ndarray, cols: np.ndarray, shape: Sequence[int], axis: int
) -> np.ndarray:
    """(R, C) table of `line_counts(rows[r] ^ cols[c])` for flat (R, N) and
    (C, N) words, a block of at most `_XOR_BLOCK` pairs at a time.

    Each pair is counted on the line codes (`_line_codes`), not on its N
    cells: packing puts every cell in its own byte of the code, so the code
    of rows[r] ^ cols[c] is the XOR of the two codes, and a line is nonzero
    iff its code is.  A pair costs the XOR of its L = N/n codes (of
    ceil(n/8) words each above 8 cells) and a count of L."""
    table = np.empty((rows.shape[0], cols.shape[0]), dtype=np.int64)
    row_codes = _line_codes(rows, shape, axis)[..., None]
    col_codes = _line_codes(cols, shape, axis)[..., None, :]
    step = max(1, _XOR_BLOCK // max(1, cols.shape[0]))
    for s in range(0, rows.shape[0], step):
        table[s : s + step] = _nonzero_codes(row_codes[:, :, s : s + step] ^ col_codes)
    return table


def line_weight(word: TensorWord, axis: int) -> Fraction:
    """Fraction of direction-`axis` lines on which the word is nonzero."""
    if not 0 <= axis < len(word.shape):
        raise ValueError("axis out of range")
    total = word.size // word.shape[axis]
    return Fraction(int(line_counts(word.data.reshape(-1), word.shape, axis)), total)


def _exact_ratio_min(
    num: np.ndarray, den: np.ndarray, num_scale: int, den_scale: int
) -> Tuple[Fraction, int]:
    """Exact min over i with den[i] > 0 of (num[i]/num_scale) / (den[i]/den_scale),
    and the first index attaining it.

    A float pass only shortlists the near-minimal entries; every comparison
    that decides the result is between exact fractions."""
    mask = den > 0
    approx = num[mask] / den[mask]
    shortlist = np.flatnonzero(mask)[approx <= approx.min() * (1 + 1e-9) + 1e-12]
    return min(
        (Fraction(int(num[i]) * den_scale, int(den[i]) * num_scale), int(i)) for i in shortlist
    )


# ----------------------------------------------------------------------
# Membership.
# ----------------------------------------------------------------------

def in_direction_code(words: np.ndarray, code: CyclicCode, axis: int) -> np.ndarray:
    """Per word of a (W, n_1, ..., n_m) array, whether every direction-`axis`
    line lies in `code`."""
    if words.shape[axis + 1] != code.length:
        raise ValueError("axis length does not match the code")
    kept = code.check_products(np.moveaxis(words, axis + 1, 0))
    return ~kept.any(axis=tuple(range(1, kept.ndim)))


def product_contains(word: TensorWord, family: CodeFamily) -> bool:
    """Membership in C_1 (x) ... (x) C_m, one word of `product_contains_batch`."""
    return bool(product_contains_batch(word.data[None], family)[0])


def product_contains_batch(words: np.ndarray, family: CodeFamily) -> np.ndarray:
    """Vectorized product-code membership for a (W, n_1, ..., n_m) array: a
    word is a member iff it lies in every direction code, and each axis tests
    only the words that passed the axes before it."""
    words = np.asarray(words, dtype=np.uint8)
    if words.shape[1:] != family.shape:
        raise ValueError("word shape does not match the family")
    member = np.ones(words.shape[0], dtype=bool)
    for axis, code in enumerate(family.codes):
        member[member] = in_direction_code(words[member], code, axis)
    return member


def sum_contains(word: TensorWord, family: CodeFamily) -> bool:
    """Membership in C_1 (+) ... (+) C_m, the dual of the dual tensor product."""
    return bool(sum_contains_batch(word.data[None], family)[0])


def sum_contains_batch(words: np.ndarray, family: CodeFamily) -> np.ndarray:
    """Vectorized sum-code membership for a (W, n_1, ..., n_m) array: a word
    is a member iff every product that `CyclicCode.check_products` keeps,
    taken along every axis in turn, is zero."""
    words = np.asarray(words, dtype=np.uint8)
    if words.shape[1:] != family.shape:
        raise ValueError("word shape does not match the family")
    # each step consumes the leading axis and appends its kept products last,
    # C-contiguous, so that the next step reads its input without a copy
    acc = np.moveaxis(words, 0, -1)
    for code in family.codes:
        acc = code.check_products(acc)
    return ~acc.reshape(words.shape[0], -1).any(axis=1)


# ----------------------------------------------------------------------
# Direction codes C^(i): encoding, sampling, decoding.
# ----------------------------------------------------------------------

def direction_words(
    code: CyclicCode, shape: Sequence[int], axis: int, coeffs: np.ndarray
) -> np.ndarray:
    """The words of C^(axis), flattened to (W, N), with coefficient rows
    coeffs (W, D) on the basis of one generator row on one line each: lines
    row-major over the other axes, generator rows inner.  Each row is
    reshaped into one message per line and encoded by `encode_batch`."""
    other = tuple(n for i, n in enumerate(shape) if i != axis)
    msgs = coeffs.reshape((-1,) + other + (code.dimension,))
    return np.moveaxis(code.encode_batch(msgs), -1, axis + 1).reshape(msgs.shape[0], -1)


def random_direction_word(
    code: CyclicCode, shape: Sequence[int], axis: int, rng: np.random.Generator
) -> TensorWord:
    msg_shape = list(shape)
    msg_shape[axis] = code.dimension
    msgs = rng.integers(0, code.field.order, size=tuple(msg_shape), dtype=np.uint8)
    return TensorWord(code.field, code.encode_batch(msgs, axis))


def random_sum_codeword(
    family: CodeFamily, rng: np.random.Generator
) -> Tuple[TensorWord, List[TensorWord]]:
    """Uniform word of the sum code, returned with the generating parts."""
    parts = [
        random_direction_word(code, family.shape, axis, rng)
        for axis, code in enumerate(family.codes)
    ]
    return sum(parts[1:], parts[0]), parts


def random_product_codeword(family: CodeFamily, rng: np.random.Generator) -> TensorWord:
    msg_shape = tuple(c.dimension for c in family.codes)
    arr = rng.integers(0, family.field.order, size=msg_shape, dtype=np.uint8)
    for axis, code in enumerate(family.codes):
        arr = code.encode_batch(arr, axis)
    return TensorWord(family.field, arr)


def product_codewords(family: CodeFamily) -> np.ndarray:
    """All codewords of the product code, flattened to (count, N)."""
    dims = tuple(c.dimension for c in family.codes)
    if family.field.degree * prod(dims) > 20:  # q^prod(dims) > 2^20, q = 2^degree
        raise ValueError("product code too large to enumerate")
    msgs = linalg.enumerate_vectors(family.field.order, prod(dims))
    cur = msgs.reshape((msgs.shape[0],) + dims)
    for axis, code in enumerate(family.codes):
        cur = code.encode_batch(cur, axis + 1)
    return cur.reshape(msgs.shape[0], -1)


def nearest_in_direction(
    words: np.ndarray, family: CodeFamily, axis: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest decoding of every direction-`axis` line of a (W, n_1, ..., n_m)
    array of words in one batch (`codes.nearest_lines`): (decoded, lower,
    upper), where per word lower and upper are the int64 sums of its lines'
    `codes.distance_bound`s, bounds on its Hamming distance to C^(axis).
    Lines that a bounded-distance decoder cannot resolve are left unchanged;
    the decoded word is then a best-effort representative rather than a
    certified minimizer, and lower and upper may differ."""
    words = np.asarray(words, dtype=np.uint8)
    if words.shape[1:] != family.shape:
        raise ValueError("word shape does not match the family")
    code = family.codes[axis]
    moved = np.moveaxis(words, axis + 1, -1)
    lines, dists, resolved = nearest_lines(code, moved.reshape(-1, code.length))
    lower, upper = distance_bound(code, dists, resolved)
    per_word = (words.shape[0], prod(family.shape) // code.length)
    decoded = np.moveaxis(lines.reshape(moved.shape), -1, axis + 1)
    return decoded, lower.reshape(per_word).sum(axis=1), upper.reshape(per_word).sum(axis=1)


def decode_to_products(words: np.ndarray, family: CodeFamily) -> Tuple[np.ndarray, np.ndarray]:
    """The product codewords reached from a (W, n_1, ..., n_m) stack by at
    most m sweeps of `nearest_in_direction` over the axes 0 ... m-1, each
    one call per axis and one membership test on the words still in the
    stack: (decoded, reached), every word after its last sweep and whether
    it is a product codeword.  A word leaves the stack once it is one, or
    when a sweep leaves it unchanged: a line's decoding depends on that line
    alone, so every later sweep would repeat that one.  A result within half
    the product code's minimum distance prod_i d_i of the word is its unique
    nearest codeword (Elias, "Error-free coding", IRE Trans. PGIT 1954);
    another need not be nearest."""
    decoded = np.array(words, dtype=np.uint8)
    reached = np.zeros(decoded.shape[0], dtype=bool)
    active = np.arange(decoded.shape[0])
    for _ in range(family.m):
        start = arr = decoded[active]
        for axis in range(family.m):
            arr = nearest_in_direction(arr, family, axis)[0]
        decoded[active] = arr
        reached[active] = product_contains_batch(arr, family)
        active = active[~reached[active] & (arr != start).any(axis=tuple(range(1, arr.ndim)))]
        if active.size == 0:
            break
    return decoded, reached


def _min_distance_to_rows(words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-word minimum Hamming distance to any row of `rows`, a loop over
    the rows or, when there are fewer words, over the words."""
    if words.shape[0] < rows.shape[0]:
        return np.array([np.count_nonzero(rows ^ w, axis=1).min() for w in words], dtype=np.int64)
    best = np.full(words.shape[0], words.shape[1] + 1, dtype=np.int64)
    for row in rows:
        d = np.count_nonzero(words ^ row[None, :], axis=1)
        np.minimum(best, d, out=best)
    return best
