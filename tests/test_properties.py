"""Property tests: the bit-plane matrix product against the column loop,
the membership kernel, line, product and sum-code membership against their
oracles, certificate text and its blocks, batched line decoding
against per-line Berlekamp-Welch decoding and per-word nearest-codeword
scans, the product decoder against brute-force nearest codewords, line
counts on packed line codes against the per-line oracle, and the coset
invariance of flat and product-code distances."""

import itertools
import math
from contextlib import contextmanager
from functools import lru_cache
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_nearest,
    orc_axis_syndrome,
    orc_berlekamp_massey,
    orc_bounded_distance_decode,
    orc_line_norm,
    orc_matmul,
    orc_mul_table,
    orc_product_contains,
    orc_sum_contains,
)
from prodexp import codes, linalg, tensor
from prodexp.codes import (
    CyclicCode,
    bounded_distance_decode,
    decode_lines,
    full_code,
    min_distance,
    nearest_lines,
    repetition,
    rs_primitive,
)
from prodexp.expansion import ExpansionCertificate, certify_upper_bound
from prodexp.gf_poly import field_make
from prodexp.tensor import (
    CodeFamily,
    TensorWord,
    _min_distance_to_rows,
    decode_to_products,
    line_counts,
    nearest_in_direction,
    product_codewords,
    product_contains,
    random_direction_word,
    random_product_codeword,
    sum_contains_batch,
    xor_line_counts,
)
from prodexp.testability import FlatTest, _flat_distances

F2 = field_make(1)
F4 = field_make(2)
F16 = field_make(4)
F64 = field_make(6)
C31 = rs_primitive(F4, 1, 3)
RS15 = rs_primitive(F16, 1, 3)
RS63 = rs_primitive(F64, 1, 3)
RS255 = rs_primitive(field_make(8), 1, 3)

# reproducible runs that write no example database
REPRODUCIBLE = settings(database=None, derandomize=True, deadline=None)

EQUAL_LENGTH_FAMILIES = [
    CodeFamily.power(repetition(F2, 2), 2),
    CodeFamily.power(repetition(F2, 2), 3),
    CodeFamily.power(C31, 2),
    CodeFamily.power(C31, 3),
    CodeFamily((C31, full_code(F4, 3))),
    CodeFamily.power(rs_primitive(F16, 1, 3), 2),
]


def _symbols(family: CodeFamily, count: int):
    return st.lists(
        st.integers(0, family.field.order - 1), min_size=count, max_size=count
    ).map(lambda vals: np.array(vals, dtype=np.uint8))


@st.composite
def words(draw, family: CodeFamily) -> TensorWord:
    arr = draw(_symbols(family, prod(family.shape)))
    return TensorWord(family.field, arr.reshape(family.shape))


@st.composite
def sum_code_words(draw, family: CodeFamily) -> TensorWord:
    """a_1 + ... + a_m with a_i in C^(i), from drawn messages."""
    total = np.zeros(family.shape, dtype=np.uint8)
    for axis, code in enumerate(family.codes):
        msg_shape = list(family.shape)
        msg_shape[axis] = code.dimension
        msgs = draw(_symbols(family, prod(msg_shape))).reshape(msg_shape)
        total ^= code.encode_batch(msgs, axis)
    return TensorWord(family.field, total)


@st.composite
def family_and_word(draw, families, word_strategy):
    family = draw(st.sampled_from(families))
    return family, draw(word_strategy(family))


@st.composite
def product_code_words(draw, family: CodeFamily) -> TensorWord:
    """A drawn message array encoded along every axis in turn."""
    arr = draw(_symbols(family, prod(c.dimension for c in family.codes)))
    arr = arr.reshape([c.dimension for c in family.codes])
    for axis, code in enumerate(family.codes):
        arr = code.encode_batch(arr, axis)
    return TensorWord(family.field, arr)


def _one_cell_changed(draw, family: CodeFamily, word: TensorWord) -> TensorWord:
    arr = word.data.copy()
    cell = tuple(draw(st.integers(0, n - 1)) for n in family.shape)
    arr[cell] ^= draw(st.integers(1, family.field.order - 1))
    return TensorWord(family.field, arr)


@st.composite
def near_sum_code_words(draw, family: CodeFamily) -> TensorWord:
    """A sum-code word with one drawn cell changed to another value."""
    return _one_cell_changed(draw, family, draw(sum_code_words(family)))


@st.composite
def near_product_code_words(draw, family: CodeFamily) -> TensorWord:
    """A product-code word with one drawn cell changed to another value."""
    return _one_cell_changed(draw, family, draw(product_code_words(family)))


@REPRODUCIBLE
@given(family_and_word(EQUAL_LENGTH_FAMILIES, words))
def test_membership_kernels_agree_on_random_words(case):
    family, word = case
    batch = word.data[None]
    assert sum_contains_batch(batch, family)[0] == orc_sum_contains(batch, family)[0]


@REPRODUCIBLE
@given(family_and_word(EQUAL_LENGTH_FAMILIES, sum_code_words))
def test_membership_kernels_accept_sum_code_words(case):
    family, word = case
    batch = word.data[None]
    assert sum_contains_batch(batch, family)[0]
    assert orc_sum_contains(batch, family)[0]


UNEQUAL_LENGTH_FAMILIES = [
    CodeFamily((rs_primitive(F16, 1, 3), repetition(F16, 5))),
    CodeFamily((repetition(F4, 3), repetition(F4, 2), repetition(F4, 4))),
    CodeFamily((repetition(F4, 3), full_code(F4, 2), C31)),
    CodeFamily((repetition(F2, 3), repetition(F2, 2))),
]


@REPRODUCIBLE
@given(
    family_and_word(
        UNEQUAL_LENGTH_FAMILIES,
        lambda fam: st.one_of(words(fam), sum_code_words(fam), near_sum_code_words(fam)),
    )
)
def test_membership_kernel_matches_oracle_unequal_lengths(case):
    """Unequal lengths and a full-code factor (every word a member): random
    words, sum-code words, and sum-code words with one cell changed."""
    family, word = case
    batch = word.data[None]
    assert sum_contains_batch(batch, family)[0] == orc_sum_contains(batch, family)[0]


@REPRODUCIBLE
@given(family_and_word(UNEQUAL_LENGTH_FAMILIES, sum_code_words))
def test_membership_kernel_accepts_sum_code_words_unequal_lengths(case):
    family, word = case
    assert sum_contains_batch(word.data[None], family)[0]


CERTIFICATE_FAMILIES = [
    CodeFamily.power(repetition(F2, 2), 2),
    CodeFamily.power(C31, 3),
]


@REPRODUCIBLE
@given(family_and_word(CERTIFICATE_FAMILIES, sum_code_words))
def test_certificate_text_roundtrip(case):
    family, word = case
    assume(word.weight() > 0)  # the zero word certifies nothing
    cert = certify_upper_bound(word, family)
    assert ExpansionCertificate.from_text(cert.to_text()) == cert


@contextmanager
def _text_block(size):
    """The text writer and reader forced onto blocks of `size`."""
    saved = tensor._TEXT_BLOCK
    tensor._TEXT_BLOCK = size
    try:
        yield
    finally:
        tensor._TEXT_BLOCK = saved


@st.composite
def text_words(draw) -> TensorWord:
    """Words of 1 to 3 axes over GF(2), GF(16) or GF(256), with rows of 1 to
    20 cells, so that some rows are longer than the smallest blocks."""
    field = field_make(draw(st.sampled_from((1, 4, 8))))
    shape = draw(st.lists(st.integers(1, 6), min_size=0, max_size=2)) + [draw(st.integers(1, 20))]
    raw = draw(st.binary(min_size=prod(shape), max_size=prod(shape)))
    data = np.frombuffer(raw, dtype=np.uint8) & (field.order - 1)
    return TensorWord(field, data.reshape(shape))


@REPRODUCIBLE
@given(text_words())
def test_text_blocks_are_one_text_at_every_block_size(word):
    """Joined, the blocks give one text whatever the block size, and it reads
    back as the word; each block after the header holds
    max(1, _TEXT_BLOCK // n) rows of n cells (the last one the rest), so a
    block smaller than a row still holds one whole row."""
    n = word.shape[-1]
    rows = word.size // n
    texts = set()
    for size in (1, 7, 64, tensor._TEXT_BLOCK):
        with _text_block(size):
            blocks = list(word.text_blocks())
            assert TensorWord.from_text("".join(blocks)) == word
        step = max(1, size // n)
        assert [b.count("\n") for b in blocks[1:]] == [min(step, rows - s) for s in range(0, rows, step)]
        texts.add("".join(blocks))
    assert len(texts) == 1


LINE_CODES = [
    repetition(F2, 2),  # repeated root: x^2 - 1 = (x - 1)^2
    C31,
    RS15,
    rs_primitive(F64, 1, 3),
    full_code(F4, 3),
    repetition(F16, 5),
]


@st.composite
def code_and_lines(draw):
    """A code and a batch of one to five lines: random words, codewords and
    codewords with one symbol changed."""
    code = draw(st.sampled_from(LINE_CODES))
    family = CodeFamily((code,))
    kinds = st.one_of(
        words(family),
        product_code_words(family),
        near_product_code_words(family),
    )
    lines = draw(st.lists(kinds, min_size=1, max_size=5))
    return code, np.stack([w.data for w in lines])


@REPRODUCIBLE
@given(code_and_lines())
def test_line_membership_matches_oracle(case):
    """`CyclicCode.contains_batch` against the dual-generator oracle."""
    code, lines = case
    want = orc_sum_contains(lines, CodeFamily((code,)))
    assert code.contains_batch(lines).tolist() == want.tolist()


#: GF(2), GF(4), GF(64) and GF(256); the binary cyclic [7, 4] code has the
#: check polynomial (x + 1)(x^3 + x + 1)
KERNEL_CODES = [
    CyclicCode(F2, 7, (1, 0, 1, 1, 1)),
    repetition(F2, 3),
    C31,
    full_code(F4, 3),
    RS63,
    RS255,
]
#: one column, a 64-cell word boundary on either side, and several blocks
#: at every length here
KERNEL_WIDTHS = (1, 63, 64, 65, 4097)


@lru_cache(maxsize=None)
def _oracle_mul(field):
    return orc_mul_table(field.degree, field.modulus)


@contextmanager
def _kernel_layout(layout):
    """`check_products` forced onto one layout, whatever the width."""
    saved = codes._BITSLICE_FROM
    codes._BITSLICE_FROM = {"pair": math.inf, "bitsliced": 0, "by width": saved}[layout]
    try:
        yield
    finally:
        codes._BITSLICE_FROM = saved


@st.composite
def kernel_inputs(draw, code, width):
    """An (n, batch, width) view of batch * width columns of a code's length
    (the leading axis strided, as `contains_batch` passes it): codewords,
    codewords with one cell changed in about half the columns, or uniform
    cells."""
    batch = draw(st.integers(1, 3 if code.length * width < 1 << 20 else 1))
    kind = draw(st.sampled_from(["members", "near members", "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, q = code.length, code.field.order
    if kind == "uniform":
        cols = rng.integers(0, q, size=(batch * width, n), dtype=np.uint8)
    else:  # sums of two of 32 codewords
        base = code.encode_batch(rng.integers(0, q, size=(32, code.dimension), dtype=np.uint8))
        cols = base[rng.integers(0, 32, size=batch * width)] ^ base[rng.integers(0, 32, size=batch * width)]
    if kind == "near members":
        hit = np.flatnonzero(rng.random(batch * width) < 0.5)
        cols[hit, rng.integers(0, n, size=hit.size)] ^= rng.integers(1, q, size=hit.size, dtype=np.uint8)
    return kind, np.moveaxis(cols.reshape(batch, width, n), -1, 0)


@pytest.mark.parametrize("width", KERNEL_WIDTHS)
@pytest.mark.parametrize("code", KERNEL_CODES, ids=repr)
@settings(REPRODUCIBLE, max_examples=2)
@given(data=st.data())
def test_check_products_matches_axis_syndrome(code, width, data):
    """Both layouts of `CyclicCode.check_products`, and the one the width
    rule picks, equal the oracle's dual-generator syndrome product for
    product; codeword columns give zeros."""
    kind, arr = data.draw(kernel_inputs(code, width))
    want = np.moveaxis(orc_axis_syndrome(arr, 0, code, _oracle_mul(code.field)), 0, -1)
    for layout in ("pair", "bitsliced", "by width"):
        with _kernel_layout(layout):
            got = code.check_products(arr)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want), layout
    if kind == "members":
        assert not want.any()


@pytest.mark.parametrize(
    "shape, dtype", [((255, 256), np.uint64), ((8, 255, 2048), np.uint8), ((170, 32), np.uint64), ((5,), np.uint16)]
)
def test_aligned_zeros_start_on_a_cache_line(shape, dtype):
    """The membership kernels' buffers are zeros of the shape and dtype asked
    for, C-contiguous and writeable, from a 64-byte boundary whatever offset
    the allocator hands out: allocations of every size in between move it."""
    held = []
    for pad in range(0, 160, 16):
        held.append(np.empty(pad + 1, dtype=np.uint8))
        a = codes._aligned_zeros(shape, dtype)
        assert a.shape == shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable
        assert a.ctypes.data % 64 == 0 and not a.any()


PRODUCT_FAMILIES = [
    CodeFamily.power(C31, 3),
    CodeFamily((RS15, repetition(F16, 5))),
]


@REPRODUCIBLE
@given(
    family_and_word(
        PRODUCT_FAMILIES,
        lambda fam: st.one_of(
            words(fam),
            product_code_words(fam),
            near_product_code_words(fam),
            sum_code_words(fam),
        ),
    )
)
def test_product_membership_matches_oracle(case):
    """Random words, product-code words, product-code words with one cell
    changed, and sum-code words (in the product code only by chance)."""
    family, word = case
    assert product_contains(word, family) == orc_product_contains(word.data, family)


@st.composite
def code_and_noisy_lines(draw, codes, max_lines):
    """A primitive RS code and a batch of lines, each a uniform word or a
    codeword with a drawn number of symbol errors: none, exactly e, exactly
    e + 1, or anything up to 2e + 2.  Half the batches use one kind for every
    line, so all-codeword batches (every syndrome zero) occur."""
    code = draw(st.sampled_from(codes))
    n, q = code.length, code.field.order
    e = (n - code.dimension) // 2
    kind = st.one_of(st.none(), st.sampled_from([0, e, e + 1]), st.integers(0, 2 * e + 2))
    count = draw(st.integers(1, max_lines))
    kinds = [draw(kind)] * count if draw(st.booleans()) else [draw(kind) for _ in range(count)]
    symbols = lambda size, low: st.lists(st.integers(low, q - 1), min_size=size, max_size=size)
    lines = []
    for errors in kinds:
        if errors is None:
            lines.append(np.array(draw(symbols(n, 0)), dtype=np.uint8))
            continue
        line = code.encode(draw(symbols(code.dimension, 0)))
        where = draw(st.lists(st.integers(0, n - 1), min_size=errors, max_size=errors, unique=True))
        line[where] ^= np.array(draw(symbols(errors, 1)), dtype=np.uint8)
        lines.append(line)
    return code, np.stack(lines)


def _assert_decode_lines_matches_bounded(code, lines):
    codewords, dists, resolved = decode_lines(code, lines)
    for line, codeword, dist, ok in zip(lines, codewords, dists, resolved):
        want = orc_bounded_distance_decode(code, line)
        one = bounded_distance_decode(code, line)
        if want is None:
            assert not ok and dist == 0 and np.array_equal(codeword, line)
            assert one is None
        else:
            assert ok and dist == want[1] and np.array_equal(codeword, want[0])
            assert one[1] == want[1] and np.array_equal(one[0], want[0])


def _assert_matmul_matches_column_loop(field, A, B):
    """`linalg.matmul`, and `bit_product` with one `bit_matrix` of B used for
    A and again for A's rows reversed, equal the column loop."""
    want = orc_matmul(orc_mul_table(field.degree, field.modulus), A, B)
    bits = linalg.bit_matrix(field, B)
    assert np.array_equal(linalg.matmul(field, A, B), want)
    assert np.array_equal(linalg.bit_product(field, A, bits), want)
    assert np.array_equal(linalg.bit_product(field, A[::-1], bits), want[::-1])


def _random_matrices(field, rng, r, n, c):
    return (
        rng.integers(0, field.order, size=(r, n), dtype=np.uint8),
        rng.integers(0, field.order, size=(n, c), dtype=np.uint8),
    )


@pytest.mark.parametrize("degree", range(1, 9))
@settings(REPRODUCIBLE, max_examples=15)
@given(st.tuples(*[st.integers(0, 12)] * 3), st.integers(0, 2**32 - 1))
def test_matmul_matches_column_loop(degree, dims, seed):
    field = field_make(degree)
    _assert_matmul_matches_column_loop(field, *_random_matrices(field, np.random.default_rng(seed), *dims))


@pytest.mark.parametrize("degree", range(1, 9))
@pytest.mark.parametrize("dims", [(0, 4, 3), (4, 0, 3), (1, 1, 1)], ids=["no-rows", "no-inner", "1x1"])
def test_matmul_edge_shapes_match_column_loop(degree, dims):
    field = field_make(degree)
    _assert_matmul_matches_column_loop(field, *_random_matrices(field, np.random.default_rng(degree), *dims))


def test_matmul_matches_column_loop_at_rs255_syndrome_size():
    """(2000, 255) x (255, 170) over GF(256), the syndrome product of 2,000
    RS[255,85] lines: each cell sums 2,040 bits, far below 2^24, and the
    rows span 32 blocks, the last one partial."""
    field = field_make(8)
    _assert_matmul_matches_column_loop(field, *_random_matrices(field, np.random.default_rng(255), 2000, 255, 170))


@REPRODUCIBLE
@given(code_and_noisy_lines([RS15, RS63, rs_primitive(F16, 2, 3)], max_lines=6))
def test_decode_lines_matches_bounded_distance_decode(case):
    """The batched syndrome decoder and its one-row view
    `bounded_distance_decode` give, line for line, the codeword, the distance
    and the failures of the Berlekamp-Welch reference decoder.
    RS[15,10] has an odd count n - k = 5 of syndromes, one more than
    Berlekamp-Massey reads, so there only the final membership test rejects
    some wrong corrections."""
    _assert_decode_lines_matches_bounded(*case)


@settings(REPRODUCIBLE, max_examples=4)
@given(code_and_noisy_lines([RS255], max_lines=3))
def test_decode_lines_matches_bounded_distance_decode_rs255(case):
    _assert_decode_lines_matches_bounded(*case)


def test_decode_lines_skips_codewords_and_hopeless_forney_products(monkeypatch):
    """RS[15,5] lines: 6 codewords, 6 codewords with 1, 2, ..., 6 errors,
    and 40 uniform words.  Counted at `linalg.bit_product`, the syndrome
    product receives only the kept check products of the lines outside the
    code, and each locator length L in 1 .. e gets one Chien search, on the
    rows of that length and the first (L + 1) m rows of the evaluation bit
    matrix; these are its only calls.  Forney's values are evaluated only at
    the L roots of the locators that have L roots among the n points, found
    here by evaluating them term by term: counted as gathers from the table
    of points w^-i, one per locator length."""
    code, field, n = RS15, F16, RS15.length
    rng = np.random.Generator(np.random.PCG64(5))
    lines = code.encode_batch(rng.integers(0, field.order, size=(12, code.dimension), dtype=np.uint8))
    for row, errors in zip(range(4, 10), range(1, 7)):
        where = rng.choice(n, size=errors, replace=False)
        lines[row, where] ^= rng.integers(1, field.order, size=errors, dtype=np.uint8)
    lines = np.concatenate([lines, rng.integers(0, field.order, size=(40, n), dtype=np.uint8)])
    context = codes._syndrome_context(code)
    e, syndrome, evaluate, points, _forney, inv = context
    dirty = lines[np.r_[4:10, 12 : len(lines)]]
    S = linalg.matmul(field, dirty, _direct_syndrome_matrix(code))
    C, L = codes._berlekamp_massey(field.mul_table, inv, S)

    def root_count(locator):
        values = [
            np.bitwise_xor.reduce([field.mul(c, field.omega_pow(-i * u % n)) for u, c in enumerate(locator)])
            for i in range(n)
        ]
        return values.count(0)

    full = [r for r in np.flatnonzero(L <= e) if root_count(C[r]) == L[r]]
    real, calls, gathers = linalg.bit_product, [], []

    def counting(f, A, bits):
        calls.append((np.array(A), bits))
        return real(f, A, bits)

    class Points(np.ndarray):
        def __getitem__(self, key):
            gathers.append(np.size(key))
            return np.asarray(self)[key]

    monkeypatch.setattr(linalg, "bit_product", counting)
    monkeypatch.setattr(codes, "_syndrome_context", lambda _code: (*context[:3], points.view(Points), *context[4:]))
    resolved = decode_lines(code, lines)[2]
    (products, bits), *chien = calls
    assert bits is syndrome and np.array_equal(products, code.check_products(dirty.T))
    lengths = sorted(set(L[(L >= 1) & (L <= e)].tolist()))
    assert all(np.shares_memory(bits, evaluate) for _A, bits in chien)
    assert [(len(A), bits.shape[0]) for A, bits in chien] == [
        (np.count_nonzero(L == ell), (ell + 1) * field.degree) for ell in lengths
    ]
    assert gathers == [sum(L[r] for r in full if L[r] == ell) for ell in lengths]
    # the five lines within the radius reach Forney's products, and many
    # uniform lines with L <= e do not
    assert resolved[:9].all() and len(full) >= 5 and np.count_nonzero(L <= e) - len(full) >= 20


def _direct_syndrome_matrix(code):
    """The (n, 2e) matrix w^((k+t)i) of the 2e syndromes of a word."""
    field, n, k = code.field, code.length, code.dimension
    e = (n - k) // 2
    return np.array([[field.omega_pow((k + t) * i % n) for t in range(2 * e)] for i in range(n)], dtype=np.uint8)


#: RS[15,4]: n - k = 11 is odd, so its 2e = 10 syndromes do not decide membership
RS15_4 = rs_primitive(F16, 4, 15)


@pytest.mark.parametrize("code", [RS15, RS63, RS255, RS15_4], ids=lambda c: c.label())
def test_products_to_syndromes_matrix_matches_power_sums(code):
    """The context's matrix M takes the kept check products of a word to
    its 2e syndromes sum_i a_i w^((k+t)i), on 300 uniform words, 100
    codewords (all syndromes 0) and the unit words."""
    field, n = code.field, code.length
    rng = np.random.default_rng(n + code.dimension)
    words = np.concatenate([
        rng.integers(0, field.order, size=(300, n), dtype=np.uint8),
        code.encode_batch(rng.integers(0, field.order, size=(100, code.dimension), dtype=np.uint8)),
        np.eye(n, dtype=np.uint8),
    ])
    got = linalg.bit_product(field, code.check_products(words.T), codes._syndrome_context(code)[1])
    want = orc_matmul(orc_mul_table(field.degree, field.modulus), words, _direct_syndrome_matrix(code))
    assert np.array_equal(got, want)
    assert not want[300:400].any()


@pytest.mark.parametrize("code", [RS15, RS63, RS255], ids=lambda c: c.label())
def test_decode_lines_matches_oracle_at_every_locator_length(code):
    """One batch that holds every locator length from 0 to e + 1, shuffled:
    codewords plus nu = 0 .. e errors (L = nu), and two codewords plus
    e + 1 errors, picked from 2,000 such lines, one with L = e and one
    with L = e + 1 (about one line in q).  Each line gets the codeword,
    the distance or the failure of the Berlekamp-Welch reference decoder."""
    field, n = code.field, code.length
    e = (n - code.dimension) // 2
    rng = np.random.default_rng(n)
    table, inv = field.mul_table, codes._syndrome_context(code)[-1]

    def noisy(count, nu):
        lines = code.encode_batch(rng.integers(0, field.order, size=(count, code.dimension), dtype=np.uint8))
        for row in range(count):
            lines[row, rng.choice(n, size=nu, replace=False)] ^= rng.integers(1, field.order, size=nu, dtype=np.uint8)
        return lines

    def lengths(lines):
        return codes._berlekamp_massey(table, inv, linalg.matmul(field, lines, _direct_syndrome_matrix(code)))[1]

    beyond = noisy(2000, e + 1)
    L_beyond = lengths(beyond)
    picked = [beyond[L_beyond == e][:1], beyond[L_beyond == e + 1][:1]]
    lines = np.concatenate([noisy(1, nu) for nu in range(e + 1)] + picked)[rng.permutation(e + 3)]
    assert sorted(lengths(lines).tolist()) == [*range(e + 1), e, e + 1]
    _assert_decode_lines_matches_bounded(code, lines)


def test_decode_lines_keeps_non_codeword_with_vanishing_syndromes_unresolved():
    """RS[15,4] has n - k = 11 check products but reads 2e = 10 syndromes.
    The word w^i plus a codeword has S_0 = ... = S_9 = 0 (its only nonzero
    power sum is at w^14), so its locator has length L = 0, yet it is no
    codeword, and no codeword lies within e = 5 of it: it stays unresolved
    at distance 0, beside a codeword and a codeword with 5 errors, as the
    reference decoder says."""
    code, field, n = RS15_4, F16, RS15_4.length
    rng = np.random.default_rng(4)
    lines = code.encode_batch(rng.integers(0, field.order, size=(3, code.dimension), dtype=np.uint8))
    lines[1] ^= np.array([field.omega_pow(i) for i in range(n)], dtype=np.uint8)
    lines[2, rng.choice(n, size=5, replace=False)] ^= rng.integers(1, field.order, size=5, dtype=np.uint8)
    S = linalg.matmul(field, lines, _direct_syndrome_matrix(code))
    assert not S[1].any() and not code.contains(lines[1])
    codewords, dists, resolved = decode_lines(code, lines)
    assert resolved.tolist() == [True, False, True] and dists.tolist() == [0, 0, 5]
    assert np.array_equal(codewords[1], lines[1])
    _assert_decode_lines_matches_bounded(code, lines)


@pytest.mark.parametrize("degree", [4, 6, 8])
@pytest.mark.parametrize("density", [1, 0.3, 0.05])
def test_berlekamp_massey_locator_degree_at_most_its_length(degree, density):
    """Massey's invariant deg C <= L, on 1,000 random rows of the 2e
    syndromes of the rate-1/3 RS code over GF(2^degree), a share `density`
    of their entries nonzero: `decode_lines` reads a locator of length
    L <= e from its columns 0 .. e alone.  C generates the row: every
    S_t with t >= L is sum_(j=1..L) C_j S_(t-j)."""
    field = field_make(degree)
    e, *_tables, inv = codes._syndrome_context(rs_primitive(field, 1, 3))
    rng = np.random.default_rng(degree)
    S = rng.integers(1, field.order, size=(1000, 2 * e)) * (rng.random((1000, 2 * e)) < density)
    C, L = codes._berlekamp_massey(field.mul_table, inv, S.astype(np.uint8))
    degree_of_C = C.shape[1] - 1 - np.argmax(C[:, ::-1] != 0, axis=1)
    assert (C[:, 0] == 1).all() and (degree_of_C <= L).all()
    table = field.mul_table
    for t in range(2 * e):
        terms = table[C[:, : t + 1], S[:, t::-1]]  # C_j S_(t-j), j = 0 .. t
        generated = np.bitwise_xor.reduce(terms, axis=1) == 0
        assert generated[L <= t].all()


#: the rate-1/3 RS code over GF(2^degree)
RATE_THIRD = {4: RS15, 6: RS63, 8: RS255}


def _random_syndromes(code, rng, count, density):
    """`count` rows of 2e field elements, a share `density` of them nonzero."""
    e, q = codes._syndrome_context(code)[0], code.field.order
    S = rng.integers(1, q, size=(count, 2 * e)) * (rng.random((count, 2 * e)) < density)
    return S.astype(np.uint8)


def _mixed_syndromes(code, rng, count, uniform):
    """The 2e syndromes of `count` lines of `code`, from their kept check
    products through the decoder's matrix: a share `uniform` of
    uniform words, the others codewords plus nu errors for nu = 1, 2, ...,
    e + 1 in turn, so that the batch's largest L changes as
    Berlekamp-Massey runs."""
    field, n = code.field, code.length
    e, syndrome = codes._syndrome_context(code)[:2]
    lines = code.encode_batch(rng.integers(0, field.order, size=(count, code.dimension), dtype=np.uint8))
    for row in range(count):
        if rng.random() < uniform:
            lines[row] = rng.integers(0, field.order, size=n, dtype=np.uint8)
        else:
            nu = 1 + row % (e + 1)
            lines[row, rng.choice(n, size=nu, replace=False)] ^= rng.integers(1, field.order, size=nu, dtype=np.uint8)
    return linalg.bit_product(field, code.check_products(lines.T), syndrome)


def _assert_berlekamp_massey_matches_oracle(code, S):
    """`codes._berlekamp_massey` gives the (C, L) of the row-layout oracle,
    which runs on the oracle's own multiplication table and inverses."""
    field = code.field
    table = orc_mul_table(field.degree, field.modulus)
    C, L = codes._berlekamp_massey(field.mul_table, codes._syndrome_context(code)[-1], S)
    C_orc, L_orc = orc_berlekamp_massey(table, np.argmax(table == 1, axis=1).astype(np.uint8), S)
    assert C.shape == C_orc.shape and L.dtype == L_orc.dtype
    assert np.array_equal(C, C_orc) and np.array_equal(L, L_orc)


@pytest.mark.parametrize("degree", [4, 6, 8])
@pytest.mark.parametrize("density", [1, 0.3, 0.05])
def test_berlekamp_massey_matches_row_layout_oracle(degree, density):
    """400 random syndrome rows of the rate-1/3 RS code over GF(2^degree)."""
    code = RATE_THIRD[degree]
    _assert_berlekamp_massey_matches_oracle(code, _random_syndromes(code, np.random.default_rng(degree), 400, density))


@pytest.mark.parametrize("degree", [4, 6, 8])
@pytest.mark.parametrize("uniform", [0.5, 0.1, 0])
def test_berlekamp_massey_matches_row_layout_oracle_on_mixed_lines(degree, uniform):
    """400 lines: uniform words and codewords plus 1 .. e + 1 errors."""
    code = RATE_THIRD[degree]
    _assert_berlekamp_massey_matches_oracle(code, _mixed_syndromes(code, np.random.default_rng(degree), 400, uniform))


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_berlekamp_massey_matches_row_layout_oracle_on_one_row(degree):
    """Batches of one row: a uniform word, a codeword plus one error, a
    codeword plus e errors, and a random syndrome row."""
    code, rng = RATE_THIRD[degree], np.random.default_rng(degree)
    e = codes._syndrome_context(code)[0]
    rows = [_mixed_syndromes(code, rng, 1, 1)]
    rows += [_mixed_syndromes(code, rng, row + 1, 0)[row:] for row in (0, e - 1)]
    rows += [_random_syndromes(code, rng, 1, 0.3)]
    for S in rows:
        assert S.shape == (1, 2 * e)
        _assert_berlekamp_massey_matches_oracle(code, S)


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_berlekamp_massey_matches_row_layout_oracle_on_geometric_rows(degree):
    """Rows that skip Massey's steps and rows that only just do not, in one
    batch: geometric rows S_t = S_0 r^t (L = 1), with S_1 = 0 among them
    (r = 0, C = 1), and the same rows with their last syndrome changed,
    which run the steps; beside them the zero row (L = 0) and random rows."""
    code, rng = RATE_THIRD[degree], np.random.default_rng(degree)
    field, table = code.field, code.field.mul_table
    e = codes._syndrome_context(code)[0]
    start = rng.integers(1, field.order, size=300)
    ratio = rng.integers(0, field.order, size=300)
    ratio[:50] = 0
    geometric = np.empty((300, 2 * e), dtype=np.uint8)
    geometric[:, 0] = start
    for t in range(1, 2 * e):
        geometric[:, t] = table[geometric[:, t - 1], ratio]
    broken = geometric.copy()
    broken[:, -1] ^= rng.integers(1, field.order, size=300, dtype=np.uint8)
    S = np.concatenate([geometric, broken, np.zeros((1, 2 * e), np.uint8), _random_syndromes(code, rng, 100, 0.5)])
    _assert_berlekamp_massey_matches_oracle(code, S[rng.permutation(len(S))])
    C, L = codes._berlekamp_massey(table, codes._syndrome_context(code)[-1], geometric)
    assert (L == 1).all() and (C[:50, 1] == 0).all() and (C[50:, 1] == ratio[50:]).all()
    assert not C[:, 2:].any()


@pytest.mark.parametrize("degree", [4, 6, 8])
@pytest.mark.parametrize("mixed", [False, True])
def test_locator_derivative_nonzero_at_every_root_of_a_full_line(degree, mixed):
    """A locator of length L <= e with L roots among the n points w^-i has
    degree at most L, so every root is simple and Lambda' vanishes at none
    of them: `decode_lines` divides by Lambda' there without a guard.
    Evaluated by Horner at every point, on 600 random syndrome rows (a third
    of their entries nonzero) or 600 mixed lines.  Random rows have full
    locators with roots only over GF(16); over GF(64) and GF(256) nearly all
    their locators have length near e and fewer roots."""
    code = RATE_THIRD[degree]
    n, table = code.length, code.field.mul_table
    e, _syndrome, _evaluate, points, _forney, inv = codes._syndrome_context(code)
    rng = np.random.default_rng(degree)
    S = _mixed_syndromes(code, rng, 600, 0.5) if mixed else _random_syndromes(code, rng, 600, 0.3)
    C, L = codes._berlekamp_massey(table, inv, S)
    lam, length = C[L <= e, : e + 1], L[L <= e]
    value = np.zeros((len(lam), n), dtype=np.uint8)
    slope = np.zeros((len(lam), n), dtype=np.uint8)
    for u in range(e, -1, -1):
        value = table[value, points] ^ lam[:, u : u + 1]
        if u < e:  # characteristic 2: Lambda' = sum over odd u + 1 of lam_(u+1) x^u
            slope = table[slope, points] ^ (lam[:, u + 1 : u + 2] if u % 2 == 0 else 0)
    roots = value == 0
    full = roots.sum(axis=1) == length
    assert (slope[full][roots[full]] != 0).all()
    assert np.count_nonzero(roots[full]) >= (100 if mixed else 10 if degree == 4 else 0)


#: the binary [7,3] cyclic code with check polynomial 1 + x + x^3: 64 of
#: the 128 words of F_2^7 have more than one nearest codeword
BINARY_7_3 = CyclicCode(F2, 7, (1, 1, 0, 1))


@pytest.mark.parametrize("block", [None, 1, 40])
@pytest.mark.parametrize("code", [repetition(F2, 2), C31, BINARY_7_3], ids=lambda c: c.label())
def test_nearest_lines_scan_matches_per_word_oracle(code, block, monkeypatch):
    """Every word of F_q^n in one batch, scanned in blocks of the default
    size, of one line and of a few lines: the codeword and the distance of
    the per-word scan `brute_nearest`, the lexicographically smallest of the
    tied nearest codewords included."""
    if block is not None:
        monkeypatch.setattr(codes, "_SCAN_CELLS", block * code.codewords().size)
    words = linalg.enumerate_vectors(code.field.order, code.length)
    codewords, dists, resolved = nearest_lines(code, words)
    assert resolved.all()
    for word, codeword, dist in zip(words, codewords, dists):
        want = brute_nearest(word, code)
        assert dist == want[1] and np.array_equal(codeword, want[0])
    table = np.count_nonzero(words[:, None] != code.codewords()[None], axis=2)
    ties = np.count_nonzero((table == dists[:, None]).sum(axis=1) > 1)
    assert code is not BINARY_7_3 or ties == 64


@REPRODUCIBLE
@given(code_and_noisy_lines([RS15], max_lines=6))
def test_nearest_lines_unique_decodes_large_rs_codes(case):
    """RS[15,5] has 2^20 codewords, more than 2^16: `nearest_lines` gives
    exactly what the syndrome decoder gives, unresolved lines included."""
    code, lines = case
    for got, want in zip(nearest_lines(code, lines), decode_lines(code, lines)):
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# The product decoder.
# ----------------------------------------------------------------------

DECODER_FAMILIES = [
    CodeFamily.power(repetition(F2, 2), 3),
    CodeFamily.power(C31, 2),
    CodeFamily.power(C31, 3),
]


@st.composite
def noisy_product_code_words(draw, family: CodeFamily) -> TensorWord:
    """A product-code word with up to four drawn cells changed."""
    word = draw(product_code_words(family))
    for _ in range(draw(st.integers(0, 4))):
        word = _one_cell_changed(draw, family, word)
    return word


@REPRODUCIBLE
@given(
    family_and_word(
        DECODER_FAMILIES, lambda fam: st.one_of(words(fam), noisy_product_code_words(fam))
    )
)
def test_decode_to_product_within_half_distance_is_unique_nearest(case):
    """Decoded alone, as a one-row batch, a word reaches no product codeword
    or a product codeword c; when 2 d(x, c) is below the product code's
    minimum distance prod_i d_i, c is the one product codeword nearest to x."""
    family, word = case
    (decoded,), (reached,) = decode_to_products(word.data[None], family)
    if not reached:
        return
    decoded = TensorWord(family.field, decoded)
    assert product_contains(decoded, family)
    dist = (word + decoded).weight()
    if 2 * dist < prod(min_distance(code) for code in family.codes):
        dists = np.count_nonzero(product_codewords(family) ^ word.data.reshape(-1), axis=1)
        assert dist == dists.min() and np.count_nonzero(dists == dist) == 1


def test_decode_to_product_none_beyond_decoding_radius():
    """The RS[15,5]^2 tuples of `agreement --t 2 --m 2 --mode sampled
    --samples 4 --seed 3`: no word of them reaches the product code."""
    family = CodeFamily.power(RS15, 2)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(4):
        for axis, code in enumerate(family.codes):
            word = random_direction_word(code, family.shape, axis, rng)
            assert not decode_to_products(word.data[None], family)[1][0]


def test_decode_to_product_stops_after_a_sweep_that_changes_nothing(monkeypatch):
    """A uniform RS[15,5]^3 word whose every line lies beyond the decoding
    radius: the first sweep leaves it unchanged, so every later sweep would
    repeat it, and the decoder gives up after m calls of
    `nearest_in_direction`, not m^2."""
    family = CodeFamily.power(RS15, 3)
    rng = np.random.Generator(np.random.PCG64(3))
    word = TensorWord(F16, rng.integers(0, F16.order, size=family.shape, dtype=np.uint8))
    for axis in range(family.m):
        decoded, lower, upper = nearest_in_direction(word.data[None], family, axis)
        # unresolved lines stay as they are, known only within an interval
        assert np.array_equal(decoded[0], word.data) and lower[0] < upper[0]
    real, axes = tensor.nearest_in_direction, []
    monkeypatch.setattr(
        tensor, "nearest_in_direction", lambda w, fam, axis: axes.append(axis) or real(w, fam, axis)
    )
    assert not decode_to_products(word.data[None], family)[1][0]
    assert axes == [0, 1, 2]


MIXED_STACK_FAMILIES = [CodeFamily.power(RS15, 2), CodeFamily.power(RS15, 3), CodeFamily.power(C31, 3)]


def _mixed_stack(family: CodeFamily):
    """A product codeword c and words around it, in a (W, n_1, ..., n_m)
    stack, and the sweeps that decoding each word takes.  On RS[15,5]^m
    (e = 5): c with three cells changed, which one sweep decodes; c with
    errors on a 5 x 6 block of the first two axes and on the cells (6 + j,
    j), j < 6, times 0 .. 5 on every further axis, which a second sweep
    finishes; and c with an error cube of side 6, which one sweep leaves
    unchanged.  RS[3,1] is the constant lines, so every RS[3,1]^3 word
    reaches the product code in one sweep: there c and uniform words."""
    rng = np.random.Generator(np.random.PCG64(7))
    q, m, n = family.field.order, family.m, family.shape[0]
    c = random_product_codeword(family, rng).data
    if n == 3:
        uniform = rng.integers(0, q, size=(6,) + family.shape, dtype=np.uint8)
        return np.concatenate([c[None], uniform]), [1] * 7
    block = [(i, j) for i in range(5) for j in range(6)] + [(6 + j, j) for j in range(6)]
    cell_sets = [
        [tuple(rng.integers(0, n, size=m)) for _ in range(3)],
        [cell + rest for cell in block for rest in itertools.product(range(6), repeat=m - 2)],
        list(itertools.product(range(6), repeat=m)),
    ]
    stack = np.repeat(c[None], 1 + len(cell_sets), axis=0)
    for word, cells in zip(stack[1:], cell_sets):
        for cell in cells:
            word[cell] ^= rng.integers(1, q)
    return stack, [1, 1, 2, 1]


@pytest.mark.parametrize("family", MIXED_STACK_FAMILIES, ids=lambda f: f.label())
def test_decode_to_products_matches_decode_to_product_word_for_word(family):
    """The batched decoder gives every word of a mixed stack what it gives
    that word alone, as a one-row batch: the same array, reached or not."""
    words, _sweeps = _mixed_stack(family)
    decoded, reached = decode_to_products(words, family)
    for word, got, ok in zip(words, decoded, reached):
        (one,), (one_ok,) = decode_to_products(word[None], family)
        assert ok == one_ok
        assert np.array_equal(one, got)
    assert reached.tolist() == ([True] * 7 if family.shape[0] == 3 else [True, True, True, False])


@pytest.mark.parametrize("family", MIXED_STACK_FAMILIES, ids=lambda f: f.label())
def test_decode_to_products_never_decodes_a_retired_word(family, monkeypatch):
    """Counted at `nearest_in_direction`: sweep s hands each axis exactly the
    words whose decoding takes at least s sweeps, so a word that reached the
    product code or came out of a sweep unchanged is not decoded again."""
    words, sweeps = _mixed_stack(family)
    real, calls = tensor.nearest_in_direction, []
    monkeypatch.setattr(
        tensor, "nearest_in_direction", lambda w, fam, axis: calls.append(len(w)) or real(w, fam, axis)
    )
    decode_to_products(words, family)
    assert calls == [sum(s > r for s in sweeps) for r in range(max(sweeps)) for _axis in range(family.m)]


# ----------------------------------------------------------------------
# Line counts on packed line codes.
# ----------------------------------------------------------------------

#: lines of one code word (up to 8 cells) and of two or three uint64 words
LINE_LENGTHS = (1, 2, 3, 5, 8, 9, 15, 16, 17)


@st.composite
def line_count_cases(draw):
    """(shape, axis, rows, cols): direction-`axis` lines of a drawn length in
    a grid of up to three axes, or the (N, 1) grid whose lines are single
    cells (the Hamming tables of `rho_a_exact`); flat rows and columns of
    cells 0..255, each cell zero with a drawn probability so that zero and
    nonzero lines both occur."""
    n = draw(st.sampled_from(LINE_LENGTHS))
    shape, axis = draw(
        st.sampled_from([((n,), 0), ((n, 2), 0), ((3, n), 1), ((2, n, 2), 1), ((n, 1), 1)])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero = draw(st.sampled_from([0.0, 0.7, 0.95, 1.0]))

    def flat_words(count):
        words = rng.integers(1, 256, size=(count, prod(shape)), dtype=np.uint8)
        words[rng.random(words.shape) < zero] = 0
        return words

    return shape, axis, flat_words(draw(st.integers(1, 5))), flat_words(draw(st.integers(1, 5)))


@REPRODUCIBLE
@given(line_count_cases())
def test_line_counts_match_oracle(case):
    """`line_counts` of (W, N) words and of one (N,) word, and every entry of
    `xor_line_counts`, in blocks of the default size and of one pair, are
    the oracle's nonzero-line count."""
    shape, axis, rows, cols = case
    lines = prod(shape) // shape[axis]

    def count(word):
        return orc_line_norm(shape, word.tolist(), axis) * lines

    assert line_counts(rows, shape, axis).tolist() == [count(r) for r in rows]
    assert line_counts(rows[0], shape, axis) == count(rows[0])
    want = [[count(r ^ c) for c in cols] for r in rows]
    assert xor_line_counts(rows, cols, shape, axis).tolist() == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_XOR_BLOCK", 1)
        assert xor_line_counts(rows, cols, shape, axis).tolist() == want


#: families whose product code `product_codewords` lists, with m >= 2
COSET_FAMILIES = [
    CodeFamily.power(repetition(F2, 2), 2),
    CodeFamily.power(repetition(F2, 2), 4),
    CodeFamily((repetition(F2, 3), repetition(F2, 4))),
    CodeFamily.power(C31, 3),
    CodeFamily.power(rs_primitive(F4, 2, 3), 2),
    CodeFamily((C31, full_code(F4, 3))),
]


@REPRODUCIBLE
@given(family_and_word(COSET_FAMILIES, words), st.data())
def test_flat_and_product_distances_are_coset_invariant(family_word, data):
    """Adding a product codeword c to a word x changes neither its distance
    to the product code nor any flat's distance to its restricted product
    code: the coset invariance that lets `rho_r_exact` scan one word per
    coset."""
    family, word = family_word
    c = data.draw(product_code_words(family))
    test = FlatTest.build(family.shape, data.draw(st.integers(1, family.m - 1)))
    pair = np.stack([word.data.reshape(-1), (word + c).data.reshape(-1)], axis=1)
    flat = _flat_distances(pair, test, family)
    dist = _min_distance_to_rows(pair, product_codewords(family))
    assert flat[0] == flat[1]
    assert dist[0] == dist[1]
