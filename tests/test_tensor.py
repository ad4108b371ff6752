"""Tensor words: flats, norms, membership, per-direction decoding."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    delta_to_product,
    orc_cells,
    orc_flats,
    orc_sum_contains,
    orc_sum_syndrome,
    orc_tensor_text,
)
from prodexp.codes import (
    bounded_distance_decode,
    delta_to_code,
    full_code,
    repetition,
    rs_primitive,
)
from prodexp.expansion import counterexample_word
from prodexp import codes, tensor
from prodexp.gf_poly import field_make
from prodexp.tensor import (
    CodeFamily,
    Flat,
    TensorWord,
    line_counts,
    line_norm_scale,
    line_weight,
    nearest_in_direction,
    product_contains,
    random_sum_codeword,
    restrict,
    xor_line_counts,
    sum_contains,
    sum_contains_batch,
)

F2 = field_make(1)
F4 = field_make(2)
F16 = field_make(4)
REP2 = repetition(F2, 2)
C31 = rs_primitive(F4, 1, 3)
RS15 = rs_primitive(F16, 1, 3)


def W(field, nested):
    return TensorWord(field, np.array(nested, dtype=np.uint8))


# ----------------------------------------------------------------------
# Flats.
# ----------------------------------------------------------------------

def oracle_flats(shape, k):
    """(`Flat`, cell indices) for every k-flat of `orc_flats`: a flat's first
    cell, zero on its free axes, is its base."""
    cells = orc_cells(shape)
    return [(Flat(axes, cells[members[0]]), members) for members, axes in orc_flats(shape, k)]


def test_restrict_full_dimension_is_identity():
    w = W(F4, [[1, 2], [3, 0]])
    flat = Flat((0, 1), (0, 0))
    assert restrict(w, flat) == w


def test_restrict_line_indexing():
    w = W(F4, [[1, 2], [3, 0]])  # [[a,b],[c,d]]
    # line varying axis 1 at base (0, .) -> row 0? No: base fixes axis 0 at 0
    got = restrict(w, Flat((1,), (0, 0)))
    assert list(got.data) == [1, 2]
    # line varying axis 0 at base (., 1) -> entries (0,1) and (1,1) = (b, d)
    got = restrict(w, Flat((0,), (0, 1)))
    assert list(got.data) == [2, 0]


def test_counterexample_restrictions_have_weight_one():
    w = counterexample_word(F4, 1)
    for flat, members in oracle_flats((3, 3, 3), 1):
        sub = restrict(w, flat)
        assert sub.weight() == 1
        assert list(sub.data) == [w.data.reshape(-1)[i] for i in members]


# ----------------------------------------------------------------------
# Norms.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(2, 3), (3, 4), (2, 2, 3)])
def test_line_norm_scale_matches_line_weight(shape):
    """weights[i] |a|_i / denom is `line_weight(a, i)` for every axis, and
    denom is lcm_i(N / n_i), the least integer scale of all the norms."""
    weights, denom = line_norm_scale(shape)
    N = int(np.prod(shape))
    assert denom == np.lcm.reduce([N // n for n in shape])
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        arr = rng.integers(0, 4, shape, dtype=np.uint8)
        arr[rng.random(shape) < 0.6] = 0  # sparse, so that some lines are zero
        word = TensorWord(F4, arr)
        for axis in range(len(shape)):
            lines = int(line_counts(word.data.reshape(-1), shape, axis))
            assert Fraction(weights[axis] * lines, denom) == line_weight(word, axis)


def test_line_weight_zero_word():
    z = TensorWord.zeros(F4, (3, 3))
    assert line_weight(z, 0) == 0 and line_weight(z, 1) == 0


def test_line_weight_single_entry():
    w = W(F2, [[1, 0], [0, 0]])
    assert line_weight(w, 0) == Fraction(1, 2)
    assert line_weight(w, 1) == Fraction(1, 2)


def test_counterexample_line_weight_is_one_everywhere():
    w = counterexample_word(F4, 1)
    for axis in range(3):
        assert line_weight(w, axis) == 1


def test_line_counts_match_per_line_scan():
    """Batched counts of (W, N) words equal a count of the nonzero lines read
    one at a time, on every axis of grids of equal and unequal sides."""
    rng = np.random.default_rng(5)
    for shape in ((2, 2), (3, 2), (2, 3, 4), (3, 1, 2)):
        words = rng.integers(0, 4, size=(6, int(np.prod(shape))), dtype=np.uint8)
        words[rng.random(words.shape) < 0.6] = 0
        for axis in range(len(shape)):
            want = [
                sum(
                    bool(np.moveaxis(w.reshape(shape), axis, -1)[idx].any())
                    for idx in np.ndindex(*(n for i, n in enumerate(shape) if i != axis))
                )
                for w in words
            ]
            got = line_counts(words, shape, axis)
            assert got.dtype == np.int64 and got.tolist() == want
            assert int(line_counts(words[0], shape, axis)) == want[0]


def test_xor_line_counts_table_matches_pairs():
    """Entry (r, c) is the line count of rows[r] ^ cols[c], also when the
    table is cut into blocks of one row."""
    rng = np.random.default_rng(6)
    shape = (3, 2, 2)
    rows = rng.integers(0, 2, size=(5, 12), dtype=np.uint8)
    cols = rng.integers(0, 2, size=(7, 12), dtype=np.uint8)
    for axis in range(3):
        want = [[int(line_counts(r ^ c, shape, axis)) for c in cols] for r in rows]
        assert xor_line_counts(rows, cols, shape, axis).tolist() == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_XOR_BLOCK", 1)
        assert xor_line_counts(rows, cols, shape, 1).tolist() == [
            [int(line_counts(r ^ c, shape, 1)) for c in cols] for r in rows
        ]


def test_sandwich_inequality_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        shape = tuple(rng.choice([2, 3, 4], size=rng.integers(2, 4)))
        arr = rng.integers(0, 4, size=shape, dtype=np.uint8)
        w = TensorWord(F4, arr)
        for axis in range(len(shape)):
            assert w.norm() <= line_weight(w, axis) <= shape[axis] * w.norm()


# ----------------------------------------------------------------------
# Membership.
# ----------------------------------------------------------------------

def test_product_contains_zero_and_pure_tensor():
    fam = CodeFamily.power(C31, 2)
    assert product_contains(TensorWord.zeros(F4, (3, 3)), fam)
    u = np.array([2, 2, 2], dtype=np.uint8)
    v = np.array([3, 3, 3], dtype=np.uint8)
    pure = TensorWord(F4, F4.mul_table[u[:, None], v[None, :]])
    assert product_contains(pure, fam)


def test_product_contains_rejects_unit_vector():
    fam = CodeFamily.power(REP2, 2)
    w = W(F2, [[1, 0], [0, 0]])
    assert not product_contains(w, fam)


def test_product_implies_sum_exhaustive_2x2():
    fam = CodeFamily.power(REP2, 2)
    for bits in itertools.product((0, 1), repeat=4):
        w = W(F2, [[bits[0], bits[1]], [bits[2], bits[3]]])
        if product_contains(w, fam):
            assert sum_contains_batch(w.data[None], fam)[0]
            assert orc_sum_contains(w.data[None], fam)[0]


def test_product_implies_sum_sampled_gf4():
    from prodexp.tensor import random_product_codeword

    fam = CodeFamily.power(C31, 3)
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = random_product_codeword(fam, rng)
        assert product_contains(w, fam)
        assert sum_contains(w, fam)


def test_sum_contains_direction_words():
    fam = CodeFamily.power(C31, 3)
    rng = np.random.default_rng(1)
    word, parts = random_sum_codeword(fam, rng)
    for part in parts:
        assert sum_contains_batch(part.data[None], fam)[0]
    assert sum_contains_batch(word.data[None], fam)[0]
    assert orc_sum_contains(word.data[None], fam)[0]


def test_sum_contains_flip_one_entry_fires_dual_check():
    fam = CodeFamily.power(C31, 3)
    rng = np.random.default_rng(2)
    word, _ = random_sum_codeword(fam, rng)
    arr = word.data.copy()
    arr[0, 1, 2] ^= 3
    flipped = TensorWord(F4, arr)
    assert not sum_contains_batch(flipped.data[None], fam)[0]
    assert not orc_sum_contains(flipped.data[None], fam)[0]
    # exhibit a firing dual parity check: some syndrome entry is nonzero
    assert orc_sum_syndrome(flipped.data[None], fam).any()


def test_sum_contains_unequal_lengths_rs15_by_rep5():
    """Unequal lengths go through the same kernel as equal ones."""
    f16 = field_make(4)
    fam = CodeFamily((rs_primitive(f16, 1, 3), repetition(f16, 5)))
    rng = np.random.default_rng(12)
    word, _ = random_sum_codeword(fam, rng)
    assert word.shape == (15, 5) and sum_contains(word, fam)
    arr = word.data.copy()
    arr[4, 2] ^= 7
    assert not sum_contains(TensorWord(f16, arr), fam)
    assert orc_sum_contains(word.data[None], fam)[0]
    assert not orc_sum_contains(arr[None], fam)[0]


def test_sum_contains_t3_witness_and_one_changed_cell(monkeypatch):
    """The RS[63,21]^3 witness is a sum-code word; changing one nonzero
    entry to another nonzero value keeps its support and leaves the code.
    Every step is wide enough (3,969, 2,646 and 1,764 columns) for the
    bit-sliced layout of the kernel."""
    layouts = []
    for name in ("_pair_products", "_bitsliced_products"):
        real = getattr(codes, name)
        monkeypatch.setattr(codes, name, lambda *a, real=real, name=name: layouts.append(name) or real(*a))
    f64 = field_make(6)
    fam = CodeFamily.power(rs_primitive(f64, 1, 3), 3)
    word = counterexample_word(f64, 21)
    assert sum_contains(word, fam)
    assert layouts == ["_bitsliced_products"] * 3
    arr = word.data.copy()
    cell = tuple(np.argwhere(arr)[0])
    arr[cell] = arr[cell] % 63 + 1
    changed = TensorWord(f64, arr)
    assert changed.weight() == word.weight() == 63 * 63
    assert not sum_contains(changed, fam)
    assert orc_sum_contains(np.stack([word.data, arr]), fam).tolist() == [True, False]


def test_sum_methods_agree_on_3x3_gf4():
    fam = CodeFamily.power(C31, 2)
    rng = np.random.default_rng(3)
    words = rng.integers(0, 4, size=(100_000, 3, 3), dtype=np.uint8)
    a = sum_contains_batch(words, fam)
    b = orc_sum_contains(words, fam)
    assert np.array_equal(a, b)
    # the full sum-code basis and shifted cosets
    from prodexp.expansion import DecompositionSpace

    basis = DecompositionSpace(fam).basis.reshape(-1, 3, 3)
    assert sum_contains_batch(basis, fam).all()
    assert orc_sum_contains(basis, fam).all()
    shift = rng.integers(0, 4, size=(basis.shape[0], 3, 3), dtype=np.uint8)
    shifted = basis ^ shift
    assert np.array_equal(
        sum_contains_batch(shifted, fam),
        orc_sum_contains(shifted, fam),
    )


def test_flat_restrictions_consistent_with_product_membership():
    fam = CodeFamily.power(REP2, 3)
    rng = np.random.default_rng(4)
    from prodexp.tensor import random_product_codeword

    for _ in range(20):
        w = random_product_codeword(fam, rng)
        for k in (1, 2):
            for flat, members in oracle_flats((2, 2, 2), k):
                sub = restrict(w, flat)
                assert list(sub.data.reshape(-1)) == [w.data.reshape(-1)[i] for i in members]
                subfam = fam.restrict(flat.free_axes)
                if k == 1:
                    assert subfam.codes[0].contains(sub.data)
                else:
                    assert product_contains(sub, subfam)


# ----------------------------------------------------------------------
# Per-direction decoding.
# ----------------------------------------------------------------------

def test_nearest_in_direction_member_is_fixed():
    fam = CodeFamily.power(REP2, 2)
    w = W(F2, [[1, 1], [1, 1]])
    got, lower, upper = nearest_in_direction(w.data[None], fam, 0)
    assert np.array_equal(got, w.data[None])
    assert lower.tolist() == upper.tolist() == [0]


def test_nearest_in_direction_unit_vector():
    fam = CodeFamily.power(REP2, 2)
    w = W(F2, [[1, 0], [0, 0]])
    got, lower, upper = nearest_in_direction(w.data[None], fam, 0)
    assert np.array_equal(got, np.zeros((1, 2, 2), dtype=np.uint8))
    assert lower.tolist() == upper.tolist() == [1]  # 1 of the 4 cells


def test_nearest_in_direction_matches_exhaustive_oracle():
    """Sampled words vs full enumeration of C^(0) on a 3x3 grid over GF(4)."""
    fam = CodeFamily.power(C31, 2)
    # C^(0): every column a repetition codeword: 4^3 = 64 members
    members = []
    for cols in itertools.product(range(4), repeat=3):
        arr = np.zeros((3, 3), dtype=np.uint8)
        for j, c in enumerate(cols):
            arr[:, j] = c
        members.append(arr)
    rng = np.random.default_rng(5)
    for _ in range(200):
        arr = rng.integers(0, 4, size=(3, 3), dtype=np.uint8)
        _got, lower, upper = nearest_in_direction(arr[None], fam, 0)
        oracle = min(int(np.count_nonzero(arr ^ m)) for m in members)
        assert lower.tolist() == upper.tolist() == [oracle]


def test_nearest_in_direction_sums_per_line_intervals():
    """RS[15,5] columns that are codewords, decodable, or beyond the radius:
    the integer counts equal the sums of the per-line intervals of
    `delta_to_code` times n, and only the resolved columns change, to their
    one-row decodes."""
    f16 = field_make(4)
    code = rs_primitive(f16, 1, 3)
    rng = np.random.default_rng(11)
    arr = rng.integers(0, 16, size=(15, 15), dtype=np.uint8)
    for j in range(10):
        arr[:, j] = code.random_codeword(rng)
        arr[: j // 2, j] ^= 1  # 0..4 errors, within the radius 5
    got, lower, upper = nearest_in_direction(arr[None], CodeFamily.power(code, 2), 0)
    want_lower = want_upper = Fraction(0)
    for j in range(15):
        res = bounded_distance_decode(code, arr[:, j])
        line = delta_to_code(arr[:, j], code)
        want_lower += line.lower * 15
        want_upper += line.upper * 15
        expected = arr[:, j] if res is None else res[0]
        assert np.array_equal(got[0, :, j], expected)
    assert want_lower < want_upper
    assert lower.tolist() == [want_lower] and upper.tolist() == [want_upper]


@pytest.mark.parametrize(
    "family",
    [CodeFamily((RS15, repetition(F16, 3))), CodeFamily.power(RS15, 3)],
    ids=["rs15-x-rep3", "rs15-cubed"],
)
def test_nearest_in_direction_batch_equals_per_word(family):
    """A (W, n_1, ..., n_m) batch gives, word for word, the decoded word and
    the integer bounds of a one-word batch `word[None]`, on both sides of the
    decoder rule (RS[15,5] by unique decoding, the [3,1] repetition code by
    the scan)."""
    rng = np.random.default_rng(7)
    words = [tensor.random_product_codeword(family, rng).data for _ in range(2)]
    words += [rng.integers(0, 16, size=family.shape, dtype=np.uint8) for _ in range(2)]
    words[1] = words[1].copy()
    words[1][(0,) * family.m] ^= 5  # one error: every line through it is decodable
    batch = np.stack(words)
    for axis in range(family.m):
        decoded, lower, upper = nearest_in_direction(batch, family, axis)
        assert decoded.shape == batch.shape
        assert lower.dtype == upper.dtype == np.int64
        assert lower.shape == upper.shape == (len(words),)
        for i, word in enumerate(words):
            one, one_lower, one_upper = nearest_in_direction(word[None], family, axis)
            assert np.array_equal(decoded[i], one[0])
            assert (lower[i], upper[i]) == (one_lower[0], one_upper[0])


def test_delta_to_product_on_member_and_nonmember():
    fam = CodeFamily.power(REP2, 2)
    assert delta_to_product(TensorWord.zeros(F2, (2, 2)), fam) == 0
    w = W(F2, [[1, 0], [0, 0]])
    assert delta_to_product(w, fam) == Fraction(1, 4)


def test_product_codewords_refuses_rs15_squared_before_enumerating(monkeypatch):
    """RS[15,5]^2 has 16^25 product codewords: the guard must refuse from
    the dimensions alone, before a message is enumerated."""
    monkeypatch.setattr(
        tensor.linalg, "enumerate_vectors", lambda *a: pytest.fail("built past the guard")
    )
    with pytest.raises(ValueError, match="product code too large to enumerate"):
        tensor.product_codewords(CodeFamily.power(RS15, 2))


@pytest.mark.parametrize("n_cols, block", [(5, None), (300, None), (1000, 64), (1000, 7)])
def test_min_distance_to_rows_matches_per_column_brute_force(monkeypatch, n_cols, block):
    """Per column of a cells-major array, the minimum Hamming distance to
    the rows: 5 columns against 40 rows take the loop over columns, the
    others the blocked loop over rows, across several blocks when the block
    constant is patched to one that does not divide the column count."""
    if block is not None:
        monkeypatch.setattr(tensor, "_DISTANCE_BLOCK", block)
    rng = np.random.default_rng(n_cols)
    cols = rng.integers(0, 4, size=(9, n_cols), dtype=np.uint8)
    rows = rng.integers(0, 4, size=(40, 9), dtype=np.uint8)
    want = [min(sum(a != b for a, b in zip(col, row)) for row in rows) for col in cols.T]
    got = tensor._min_distance_to_rows(cols, rows)
    assert got.dtype == np.int64
    assert got.tolist() == want


# ----------------------------------------------------------------------
# Serialization.
# ----------------------------------------------------------------------

def test_tensor_text_roundtrip():
    rng = np.random.default_rng(6)
    w = TensorWord(field_make(4), rng.integers(0, 16, size=(3, 4, 2), dtype=np.uint8))
    again = TensorWord.from_text(w.to_text())
    assert again == w


def test_tensor_text_golden():
    w = W(F4, [[1, 2], [3, 0]])
    assert w.to_text() == "shape 2 2 field 2^2\n1 2\n3 0\n"


def test_tensor_text_blocks_match_per_entry_format(monkeypatch):
    """The block-wise writer and reader against the per-entry hex format,
    with blocks small enough to split the text at every row."""
    from prodexp import tensor

    rng = np.random.default_rng(4)
    data = rng.integers(0, 256, size=(3, 5, 7), dtype=np.uint8)
    data[0, 0, :3] = (0, 15, 16)
    word = TensorWord(field_make(8), data)
    rows = [" ".join(format(int(v), "x") for v in row) + "\n" for row in data.reshape(-1, 7)]
    want = "shape 3 5 7 field 2^8\n" + "".join(rows)
    for block in (1, 8, 1 << 20):
        monkeypatch.setattr(tensor, "_TEXT_BLOCK", block)
        assert word.to_text() == want
        assert TensorWord.from_text(want) == word


@pytest.mark.parametrize("degree", [1, 2, 8])
@pytest.mark.parametrize("shape", [(3,), (4, 1), (3, 2, 1), (5, 7), (2, 3, 17)])
def test_tensor_text_matches_the_gather_writer(degree, shape):
    """The uint32 cell tables give the text of the three-byte gather and
    compaction of `oracles.orc_tensor_text`, including rows of one cell,
    whose only cell carries the newline."""
    field = field_make(degree)
    rng = np.random.default_rng(degree * 100 + len(shape))
    data = rng.integers(0, field.order, size=shape, dtype=np.uint8)
    if degree == 8:
        data.reshape(-1)[:3] = (0, 15, 16)  # one and two hex digits
        assert data.min() < 16 <= data.max()
    word = TensorWord(field, data)
    assert word.to_text() == orc_tensor_text(word)


def test_tensor_text_rejects_bad_counts():
    with pytest.raises(ValueError):
        TensorWord.from_text("shape 2 2 field 2^2\n1 2 3\n")
    # a shape larger than the text could hold is refused, not allocated
    with pytest.raises(ValueError, match="entry count"):
        TensorWord.from_text("shape 100000 100000 100000 field 2^8\n1 2\n")
    with pytest.raises(ValueError, match="hex digits"):
        TensorWord.from_text("shape 0 2 field 2^8\n1 g\n")


def test_tensor_text_reads_a_slice_of_a_longer_text():
    """`from_text` with offsets reads only text[start:stop]."""
    w = W(F4, [[1, 2], [3, 0]])
    text = "prefix " + w.to_text() + "suffix 5 5"
    start = len("prefix ")
    assert TensorWord.from_text(text, start, start + len(w.to_text())) == w
    with pytest.raises(ValueError):
        TensorWord.from_text(text, start)


def test_full_code_factor_everything_is_member():
    fam = CodeFamily((C31, full_code(F4, 3)))
    rng = np.random.default_rng(7)
    word = rng.integers(0, 4, size=(3, 3), dtype=np.uint8)
    assert sum_contains_batch(word[None], fam)[0]
