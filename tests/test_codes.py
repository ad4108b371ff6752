"""Cyclic code construction, duality, distances, decoding."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import brute_nearest, low_degree_evaluation_vectors, orc_dual
from prodexp import linalg
from prodexp.codes import (
    bounded_distance_decode,
    decode_lines,
    delta_to_code,
    distance_bound,
    full_code,
    min_distance,
    nearest_lines,
    repetition,
    rs_primitive,
)
from prodexp.gf_poly import field_make


@pytest.fixture(scope="module")
def rs15():
    return rs_primitive(field_make(4), 1, 3)


def test_rs_primitive_gf4_is_repetition():
    code = rs_primitive(field_make(2), 1, 3)
    assert (code.length, code.dimension) == (3, 1)
    assert code.check_coeffs == (1, 1)  # x - 1


def test_generator_matrix_is_built_once_and_read_only(rs15):
    """Rows x^j g(x), j < k: one shared array, which no caller may change."""
    G = rs15.generator_matrix
    assert G is rs15.generator_matrix and not G.flags.writeable
    g = rs15.generator_coeffs
    for j in range(rs15.dimension):
        assert np.array_equal(G[j], np.roll(np.pad(g, (0, rs15.length - len(g))), j))
    with pytest.raises(ValueError):
        G[0, 0] ^= 1


def test_rs_primitive_gf16_shape(rs15):
    assert (rs15.length, rs15.dimension) == (15, 5)
    assert len(rs15.check_coeffs) - 1 == 5


def test_rs_primitive_min_distance(rs15):
    assert min_distance(rs15) == 11 == rs15.length - rs15.dimension + 1


def test_rs_primitive_rejects_bad_rate():
    with pytest.raises(ValueError):
        rs_primitive(field_make(4), 1, 2)  # 15 not divisible by 2
    with pytest.raises(ValueError, match="denominator 0 must be at least 1"):
        rs_primitive(field_make(4), 1, 0)  # once a ZeroDivisionError


def test_cyclic_contains_zero_and_repetition():
    f = field_make(2)
    code = rs_primitive(f, 1, 3)
    assert code.contains([0, 0, 0])
    for c in range(4):
        assert code.contains([c, c, c])
    assert not code.contains([1, 0, 0])


def test_cyclic_shift_invariance(rs15):
    rng = np.random.default_rng(0)
    for _ in range(50):
        cw = rs15.random_codeword(rng)
        assert rs15.contains(np.roll(cw, 1))
    tiny = rs_primitive(field_make(2), 1, 3)
    for word in tiny.codewords():
        assert tiny.contains(np.roll(word, 1))


def test_dual_of_full_code_is_zero():
    f = field_make(2)
    d = orc_dual(full_code(f, 3))
    assert d.dimension == 0
    assert d.contains([0, 0, 0])
    assert not d.contains([1, 0, 0])


def test_dual_of_rep3_gf4():
    code = rs_primitive(field_make(2), 1, 3)
    d = orc_dual(code)
    assert (d.length, d.dimension) == (3, 2)


def test_dual_rs15_orthogonality(rs15):
    d = orc_dual(rs15)
    assert d.dimension == 10
    G, H = rs15.generator_matrix, d.generator_matrix
    assert not linalg.matmul(rs15.field, G, H.T).any()


def test_double_dual_same_members():
    f = field_make(2)
    code = rs_primitive(f, 1, 3)
    dd = orc_dual(orc_dual(code))
    # exhaustive at n = 3
    assert sorted(map(tuple, code.codewords().tolist())) == sorted(
        map(tuple, dd.codewords().tolist())
    )
    rs = rs_primitive(field_make(4), 1, 3)
    ddrs = orc_dual(orc_dual(rs))
    assert np.array_equal(
        linalg.rref(rs.field, rs.generator_matrix)[0],
        linalg.rref(rs.field, ddrs.generator_matrix)[0],
    )


def test_star_of_check_poly_generates_dual(rs15):
    """Cyclic shifts of the starred check polynomial span the dual code."""
    f, n = rs15.field, rs15.length
    # p*(x) = p(x^(n-1)) mod (x^n - 1): coefficient p_e moves to index -e mod n
    vec = np.zeros(n, dtype=np.uint8)
    for e, c in enumerate(rs15.check_coeffs):
        vec[(-e) % n] ^= c
    shifts = np.array([np.roll(vec, s) for s in range(n)], dtype=np.uint8)
    # orthogonal to the primal code
    assert not linalg.matmul(f, shifts, rs15.generator_matrix.T).any()
    # spans the full dual
    R, pivots = linalg.rref(f, shifts)
    assert len(pivots) == n - rs15.dimension
    assert np.array_equal(R[: len(pivots)], linalg.rref(f, orc_dual(rs15).generator_matrix)[0])


def test_min_distance_tiny_codes():
    assert min_distance(rs_primitive(field_make(2), 1, 3)) == 3
    assert min_distance(repetition(field_make(1), 2)) == 2


def test_nearest_lines_identity(rs15):
    rng = np.random.default_rng(1)
    cw = rs15.random_codeword(rng)
    codewords, dists, resolved = nearest_lines(rs15, cw[None])
    assert resolved[0] and dists[0] == 0 and np.array_equal(codewords[0], cw)


def test_bounded_distance_roundtrip_3_errors(rs15):
    rng = np.random.default_rng(2)
    cw = rs15.random_codeword(rng)
    bad = cw.copy()
    for pos in (1, 6, 13):
        bad[pos] ^= rng.integers(1, 16)
    res = bounded_distance_decode(rs15, bad)
    assert res is not None
    assert np.array_equal(res[0], cw) and res[1] == 3


def test_bounded_distance_failure_signalled(rs15):
    """A word beyond radius 5 from every codeword must fail to decode."""
    rng = np.random.default_rng(3)
    found = False
    for _ in range(50):
        word = rng.integers(0, 16, size=15, dtype=np.uint8)
        if bounded_distance_decode(rs15, word) is None:
            found = True
            break
    assert found


def test_brute_matches_bounded_inside_radius(rs15):
    """Planted corruptions within floor((d-1)/2) decode back to the plant,
    which by uniqueness is also the brute-force answer; all 10,000 go
    through `decode_lines` as one batch."""
    rng = np.random.default_rng(4)
    e = (rs15.length - rs15.dimension) // 2
    plants, words = [], []
    for trial in range(10_000):
        cw = rs15.random_codeword(rng)
        nerr = int(rng.integers(0, e + 1))
        bad = cw.copy()
        pos = rng.choice(rs15.length, size=nerr, replace=False)
        for p in pos:
            bad[p] ^= rng.integers(1, 16)
        plants.append(cw)
        words.append(bad)
    plants, words = np.array(plants), np.array(words)
    codewords, dists, resolved = decode_lines(rs15, words)
    assert resolved.all()
    assert np.array_equal(codewords, plants)
    assert np.array_equal(dists, np.count_nonzero(words ^ plants, axis=1))


def test_brute_vs_bounded_explicit_crosscheck(rs15):
    rng = np.random.default_rng(5)
    for _ in range(20):
        cw = rs15.random_codeword(rng)
        bad = cw.copy()
        for p in rng.choice(15, size=4, replace=False):
            bad[p] ^= rng.integers(1, 16)
        brute = brute_nearest(bad, rs15)
        bounded = bounded_distance_decode(rs15, bad)
        assert bounded is not None
        assert np.array_equal(brute[0], bounded[0])
        assert brute[1] == bounded[1]


def test_brute_vs_bounded_exhaustive_gf4_rep3():
    """All 64 words of GF(4)^3: inside the unique-decoding radius the two
    strategies return the same codeword and distance."""
    import itertools

    code = rs_primitive(field_make(2), 1, 3)
    e = (code.length - code.dimension) // 2
    for word in itertools.product(range(4), repeat=3):
        w = np.array(word, dtype=np.uint8)
        brute = brute_nearest(w, code)
        bounded = bounded_distance_decode(code, w)
        if brute[1] <= e:
            assert bounded is not None
            assert np.array_equal(brute[0], bounded[0]) and brute[1] == bounded[1]
        else:
            assert bounded is None


def test_brute_refuses_codes_too_large_to_enumerate():
    """RS[15,6] and GF(16)^6 have 2^24 codewords, above the 2^21 that
    `codewords()` enumerates: the minimum distance and the exhaustive scan
    of `nearest_lines` refuse them without building a single codeword."""
    rs = rs_primitive(field_make(4), 6, 15)
    with pytest.raises(ValueError, match="too large to enumerate"):
        min_distance(rs)
    assert rs._codewords is None
    whole = full_code(field_make(4), 6)
    with pytest.raises(ValueError, match="too large to enumerate"):
        nearest_lines(whole, np.zeros((1, 6), dtype=np.uint8))
    assert whole._codewords is None


def test_brute_tie_break_lexicographic():
    code = repetition(field_make(1), 2)
    # distance 1 to both 00 and 11; lexicographically smallest wins
    codewords, dists, resolved = nearest_lines(code, np.array([[1, 0], [0, 1]], dtype=np.uint8))
    assert resolved.all() and list(dists) == [1, 1]
    assert codewords.tolist() == [[0, 0], [0, 0]]


def test_distance_bound_counts_each_line_in_integers(rs15):
    """A resolved line gives its distance at both ends, an unresolved one
    e + 1 = 6 and n - k = 10, as int64 counts of cells."""
    dists = np.array([0, 3, 0, 5], dtype=np.int64)
    lower, upper = distance_bound(rs15, dists, np.array([True, True, False, True]))
    assert lower.dtype == upper.dtype == np.int64
    assert lower.tolist() == [0, 3, 6, 5] and upper.tolist() == [0, 3, 10, 5]


def test_delta_to_code_examples(rs15):
    f = field_make(1)
    rep = repetition(f, 2)
    assert delta_to_code([0, 0], rep).value == 0
    assert delta_to_code([1, 0], rep).value == Fraction(1, 2)
    rng = np.random.default_rng(6)
    cw = rs15.random_codeword(rng)
    assert delta_to_code(cw, rs15).value == 0


def test_delta_to_code_certified_interval_on_failure(rs15):
    rng = np.random.default_rng(7)
    for _ in range(50):
        word = rng.integers(0, 16, size=15, dtype=np.uint8)
        if bounded_distance_decode(rs15, word) is None:
            bound = delta_to_code(word, rs15)
            assert not bound.exact
            assert bound.lower == Fraction(6, 15)
            assert bound.upper == Fraction(10, 15)
            # cross-check the certificate against the brute-force truth
            true = brute_nearest(word, rs15)[1]
            assert bound.lower <= Fraction(true, 15) <= bound.upper
            return
    pytest.fail("no undecodable word found")


def test_delta_matches_brute_oracle_gf4():
    code = rs_primitive(field_make(2), 1, 3)
    cws = [tuple([c] * 3) for c in range(4)]
    rng = random.Random(8)
    for _ in range(1000):
        word = tuple(rng.randrange(4) for _ in range(3))
        oracle = min(sum(1 for a, b in zip(word, cw) if a != b) for cw in cws)
        assert delta_to_code(list(word), code).value == Fraction(oracle, 3)


def test_delta_triangle_inequality_sampled(rs15):
    rng = np.random.default_rng(9)
    for _ in range(20):
        word = rng.integers(0, 16, size=15, dtype=np.uint8)
        d = delta_to_code(word, rs15)
        for _ in range(10):
            cw = rs15.random_codeword(rng)
            hr = Fraction(int(np.count_nonzero(word ^ cw)), 15)
            assert d.lower <= hr


def test_low_degree_evaluation_vectors_match_code(rs15):
    vecs = low_degree_evaluation_vectors(rs15.field, 2)
    # degree < 2 is a subset of degree < 5: all rows must be codewords
    assert rs15.contains_batch(vecs).all()


def test_check_poly_membership_agrees_with_generator_span():
    """Exhaustive at n = 3: the check-polynomial test accepts exactly the
    words spanned by the generator matrix."""
    code = rs_primitive(field_make(2), 1, 3)
    span = {tuple(row) for row in code.codewords().tolist()}
    import itertools

    for word in itertools.product(range(4), repeat=3):
        assert code.contains(list(word)) == (word in span)


def test_enumerate_vectors_refuses_2_to_the_25_before_allocating(monkeypatch):
    """2^25 vectors exceed the 2^24 limit: the refusal comes before the
    index range or the output array is allocated."""
    def refused(*args, **kwargs):
        pytest.fail("allocated past the guard")

    for name in ("arange", "zeros", "empty"):
        monkeypatch.setattr(linalg.np, name, refused)
    with pytest.raises(ValueError, match="enumeration of 33554432 vectors is too large"):
        linalg.enumerate_vectors(2, 25)
