"""Robustness and agreement testability: exact values, checks, sampling."""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod

import numpy as np
import pytest

import oracles
from prodexp.codes import full_code, repetition, rs_primitive
from prodexp.expansion import counterexample_word, rho_exact
from prodexp.gf_poly import field_make
from prodexp.tensor import (
    CodeFamily,
    TensorWord,
    decode_to_products,
    line_weight,
    product_codewords,
    product_contains,
    random_product_codeword,
)
from prodexp.testability import (
    FlatTest,
    _systematic_reencode,
    _word_pool,
    agreement_ratio_sampled,
    check_composition,
    check_lemmas,
    check_pair_proximity,
    composition_report,
    derived_constants,
    line_test,
    rho_a_exact,
    rho_r_exact,
    rho_r_sampled_upper,
    robustness_ratio,
    test_expectation,
)

F2 = field_make(1)
F4 = field_make(2)
F16 = field_make(4)
REP2 = repetition(F2, 2)
C31 = rs_primitive(F4, 1, 3)
RS15 = rs_primitive(F16, 1, 3)

FAM2 = CodeFamily.power(REP2, 2)
FAM3 = CodeFamily.power(REP2, 3)
G2 = CodeFamily.power(C31, 2)


def W(field, nested):
    return TensorWord(field, np.array(nested, dtype=np.uint8))


# ----------------------------------------------------------------------
# Flat tests and expectations.
# ----------------------------------------------------------------------

def test_flat_test_weights_sum_to_one():
    """A flat's weight is its size over the total size.  Each free-axis set
    I has prod_{i not in I} n_i flats, which cover the grid once, so the
    weights of every set sum to 1/C(m, k) and all of them to one."""
    for shape, k in (((2, 2), 1), ((3, 3, 3), 1), ((3, 3, 3), 2), ((2, 3, 4), 2)):
        flats = oracles.orc_flats(shape, k)
        assert FlatTest.build(shape, k).size == sum(len(members) for members, _ in flats)
        counts = Counter(axes for _, axes in flats)
        assert sorted(counts) == list(itertools.combinations(range(len(shape)), k))
        for axes, count in counts.items():
            assert count == prod(n for i, n in enumerate(shape) if i not in axes)
            assert count * prod(shape[i] for i in axes) == prod(shape)


def test_flat_test_build_rejects_bad_k():
    """`FlatTest.build` is the one check of the flat dimension: 1 <= k <= m - 1."""
    with pytest.raises(ValueError, match=r"flat dimension 2 outside \[1, 1\]"):
        FlatTest.build((2, 2), 2)
    with pytest.raises(ValueError, match=r"flat dimension 0 outside \[1, 1\]"):
        FlatTest.build((2, 2), 0)


def test_flat_weights_uniform_iff_equal_sides():
    """Size-proportional weights are uniform iff all flats have one size."""

    def sizes(shape, k):
        return {len(members) for members, _ in oracles.orc_flats(shape, k)}

    assert sizes((3, 3, 3), 2) == {9}
    assert sizes((2, 3, 4), 2) == {6, 8, 12}


def test_test_expectation_zero_on_codeword():
    w = W(F2, [[1, 1], [1, 1]])
    assert test_expectation(w, line_test((2, 2)), FAM2).value == 0


def test_test_expectation_unit_vector():
    w = W(F2, [[1, 0], [0, 0]])
    assert test_expectation(w, line_test((2, 2)), FAM2).value == Fraction(1, 4)


def test_test_expectation_counterexample_matches_per_line_oracle():
    w = counterexample_word(F4, 1)
    fam = CodeFamily.power(C31, 3)
    got = test_expectation(w, line_test((3, 3, 3)), fam).value
    # independent per-line enumeration
    codewords = [tuple([c] * 3) for c in range(4)]
    total = 0
    for flat_cells, _axes in oracles.orc_flats((3, 3, 3), 1):
        flat_vals = tuple(w.data.reshape(-1)[list(flat_cells)])
        total += min(
            sum(1 for a, b in zip(flat_vals, cw) if a != b) for cw in codewords
        )
    assert got == Fraction(total, 27 * 3)


# ----------------------------------------------------------------------
# Exact constants vs the independent oracle.
# ----------------------------------------------------------------------

def test_rho_r_exact_matches_oracle_rep2():
    assert rho_r_exact(line_test((2, 2)), FAM2) == oracles.orc_rho_r(
        (2, 2), oracles.rep2_codes(2), 1
    )[0]
    assert rho_r_exact(line_test((2, 2, 2)), FAM3) == oracles.orc_rho_r(
        (2, 2, 2), oracles.rep2_codes(3), 1
    )[0]
    assert rho_r_exact(FlatTest.build((2, 2, 2), 2), FAM3) == oracles.orc_rho_r(
        (2, 2, 2), oracles.rep2_codes(3), 2
    )[0]


REP3 = oracles.orc_cyclic_code(oracles.GF2_MUL, 2, 3, (1, 1))
REP4 = oracles.orc_cyclic_code(oracles.GF2_MUL, 2, 4, (1, 1))


def test_rho_r_exact_matches_oracle_unequal_lengths():
    """One word per coset of the product code against the oracle's scan of
    every word, on grids whose sides differ; rep3 x rep4 sits below the 1/m
    ceiling."""
    fam23 = CodeFamily((REP2, repetition(F2, 3)))
    assert rho_r_exact(line_test((2, 3)), fam23) == oracles.orc_rho_r(
        (2, 3), [oracles.REP2, REP3], 1
    )[0]
    fam34 = CodeFamily((repetition(F2, 3), repetition(F2, 4)))
    value = rho_r_exact(line_test((3, 4)), fam34)
    assert value == Fraction(5, 12)
    assert value == oracles.orc_rho_r((3, 4), [REP3, REP4], 1)[0]


@pytest.mark.parametrize(
    "family, k",
    [(G2, 1), (CodeFamily.power(REP2, 4), 1), (CodeFamily.power(REP2, 4), 3)],
    ids=["RS[3,1]^2", "rep2^4-k1", "rep2^4-k3"],
)
def test_rho_r_exact_equals_full_space_scan(family, k):
    """The coset representatives give the minimum over all q^N words."""
    test = FlatTest.build(family.shape, k)
    assert rho_r_exact(test, family) == oracles.full_space_rho_r(test, family)


def test_rho_r_exact_scores_one_word_per_coset(monkeypatch):
    """RS[3,1]^2 has N = 9 and K = 1: the kernel scores 4^8 distinct words,
    each zero on the information cell (0, 0), not the 4^9 of the space."""
    from prodexp import testability

    real, seen = testability._exact_ratio, []

    def counted(cells, *args):
        seen.append(cells.copy())
        return real(cells, *args)

    monkeypatch.setattr(testability, "_exact_ratio", counted)
    assert rho_r_exact(line_test((3, 3)), G2) == Fraction(1, 2)
    cells = np.concatenate(seen, axis=1)  # one word per column
    assert cells.shape == (9, 4**8)
    assert not cells[0].any()
    assert np.unique(cells, axis=1).shape[1] == 4**8


@pytest.mark.parametrize(
    "family",
    [
        FAM2,
        CodeFamily((REP2, repetition(F2, 3))),
        CodeFamily((repetition(F2, 3), repetition(F2, 4))),
        CodeFamily.power(C31, 3),
        CodeFamily.power(rs_primitive(F4, 2, 3), 2),
        CodeFamily((rs_primitive(field_make(3), 3, 7), rs_primitive(field_make(3), 1, 7))),
        CodeFamily.power(rs_primitive(field_make(3), 2, 7), 2),
        CodeFamily((C31, full_code(F4, 3))),
    ],
    ids=lambda fam: fam.label(),
)
def test_product_codewords_on_the_information_set_are_a_bijection(family):
    """The product code restricted to I = I_1 x ... x I_m, I_i = {0, ...,
    k_i - 1}, is F_q^K cell for cell: each coset of the product code holds
    exactly one word that vanishes on I, the words `rho_r_exact` scans."""
    cws = product_codewords(family).reshape((-1,) + family.shape)
    on_info = cws[(slice(None),) + tuple(slice(c.dimension) for c in family.codes)]
    K = prod(c.dimension for c in family.codes)
    assert cws.shape[0] == family.field.order**K
    assert np.unique(on_info.reshape(cws.shape[0], K), axis=0).shape[0] == cws.shape[0]


def test_rho_a_exact_matches_oracle():
    assert rho_a_exact(FAM2) == oracles.orc_rho_a((2, 2), oracles.rep2_codes(2))
    assert rho_a_exact(FAM3) == oracles.orc_rho_a((2, 2, 2), oracles.rep2_codes(3))
    assert rho_a_exact(G2) == oracles.orc_rho_a((3, 3), [oracles.gf4_rep3()] * 2)


def test_rho_r_exact_gf4_spot_checked_by_oracle_ratios():
    """Full enumeration over GF(4)^9 in the implementation; the oracle
    recomputes individual word ratios for a sample."""
    value = rho_r_exact(line_test((3, 3)), G2)
    code = oracles.gf4_rep3()
    prod_code = oracles.orc_product_code((3, 3), [code, code])
    flats = oracles.orc_flats((3, 3), 1)
    rng = np.random.default_rng(0)
    seen = []
    for _ in range(500):
        word = tuple(int(v) for v in rng.integers(0, 4, size=9))
        d = oracles.orc_delta(word, prod_code)
        if d == 0:
            continue
        acc = 0
        for cells, _axes in flats:
            sub = tuple(word[i] for i in cells)
            acc += min(sum(1 for a, b in zip(sub, cw) if a != b) for cw in code)
        seen.append(Fraction(acc, 18) / d)
    assert min(seen) >= value
    # and the implementation value is itself attained by some word, so it
    # lower-bounds every oracle ratio
    assert all(value <= r for r in seen)


def test_rho_r_exact_rejects_degenerate_family():
    fam = CodeFamily.power(full_code(F2, 2), 2)
    with pytest.raises(ValueError):
        rho_r_exact(line_test((2, 2)), fam)


def test_rho_a_exact_unequal_lengths_matches_oracle():
    """Lines of the two directions carry weights 1/3 and 1/2."""
    fam = CodeFamily((REP2, repetition(F2, 3)))
    rep3 = [(0, 0, 0), (1, 1, 1)]
    assert rho_a_exact(fam) == oracles.orc_rho_a((2, 3), [oracles.REP2, rep3])


def test_rho_a_exact_reports_disagreeing_tuple_at_distance_zero(monkeypatch):
    """A zero denominator under a nonzero numerator is a bug, not a value."""
    from prodexp import testability

    real = testability.xor_line_counts

    def no_distance(rows, cols, shape, axis):
        table = real(rows, cols, shape, axis)
        return 0 * table if tuple(shape) == FAM2.shape else table  # Hamming tables kept

    monkeypatch.setattr(testability, "xor_line_counts", no_distance)
    with pytest.raises(RuntimeError, match="distance 0"):
        rho_a_exact(FAM2)


def test_systematic_reencode_is_product_codeword_agreeing_on_information_set():
    """Every word of a stack re-encodes to a product codeword equal to it on
    the information set: three one-word stacks per family, then one stack of
    four words, each re-encoded as it would be alone."""
    rng, stack_rng = np.random.default_rng(4), np.random.default_rng(5)
    for fam in (CodeFamily.power(RS15, 2), CodeFamily((C31, repetition(F4, 2), C31))):
        info = (slice(None),) + tuple(slice(0, c.dimension) for c in fam.codes)
        q = fam.field.order
        stacks = [rng.integers(0, q, fam.shape, dtype=np.uint8)[None] for _ in range(3)]
        stacks.append(stack_rng.integers(0, q, (4, *fam.shape), dtype=np.uint8))
        for words in stacks:
            cands = _systematic_reencode(words, fam)
            assert cands.shape == words.shape
            assert all(product_contains(TensorWord(fam.field, cand), fam) for cand in cands)
            assert np.array_equal(cands[info], words[info])
            for w in range(words.shape[0]):
                assert np.array_equal(cands[w], _systematic_reencode(words[w : w + 1], fam)[0])


def test_rho_a_excludes_fully_agreeing_tuples():
    # the value is finite and positive, which fails if 0/0 tuples slip in
    v = rho_a_exact(FAM2)
    assert v > 0


def test_agreement_ratio_sampled_against_tuple_oracle():
    """Every direction-word tuple of rep2^2: None exactly for fully agreeing
    tuples, otherwise at most the tuple's exact ratio, since the decoded
    candidate only upper-bounds the denominator's minimum."""
    fam = FAM2
    shape = fam.shape
    codes = oracles.rep2_codes(fam.m)
    spaces = [oracles.orc_direction_space(shape, ax, c) for ax, c in enumerate(codes)]
    prod_code = oracles.orc_product_code(shape, codes)
    exact = 0
    for tup in itertools.product(*spaces):
        words = [TensorWord(F2, np.array(t, dtype=np.uint8).reshape(shape)) for t in tup]
        got = agreement_ratio_sampled(words, fam)
        want = oracles.orc_tuple_ratio(shape, tup, prod_code)
        assert (got is None) == (want is None)
        if got is not None:
            assert got <= want
            exact += got == want
    assert exact > 0


def test_bounds_rho_r_at_most_one_rho_a_at_most_two():
    for fam, test in ((FAM2, line_test((2, 2))), (FAM3, line_test((2, 2, 2)))):
        assert rho_r_exact(test, fam) <= 1
        assert rho_a_exact(fam) <= 2
    assert rho_r_exact(FlatTest.build((2, 2, 2), 2), FAM3) <= 1
    assert rho_r_exact(line_test((3, 3)), G2) <= 1
    assert rho_a_exact(G2) <= 2


# ----------------------------------------------------------------------
# Inequality checks.
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "code, m", [(REP2, 2), (REP2, 3), (C31, 2)], ids=["rep2_m2", "rep2_m3", "gf4_m2"]
)
def test_check_robust_agreement_holds(code, m):
    (rep,) = [rep for rep in check_lemmas(code, m) if rep.name == "robust_agreement"]
    assert rep.holds, rep.inequalities


M2_FAMILIES = {
    "rep2^2": (CodeFamily.power(REP2, 2), Fraction(1, 2), Fraction(1, 2)),
    "rep3^2": (CodeFamily.power(repetition(F2, 3), 2), Fraction(5, 9), Fraction(1, 2)),
    "rep2xrep3": (CodeFamily((REP2, repetition(F2, 3))), Fraction(3, 5), Fraction(1, 2)),
    "rep3xrep4": (
        CodeFamily((repetition(F2, 3), repetition(F2, 4))),
        Fraction(3, 5),
        Fraction(5, 12),
    ),
    "RS[3,1]^2": (G2, Fraction(1, 2), Fraction(1, 2)),
}


@pytest.mark.parametrize("fam, rho, rho_r", M2_FAMILIES.values(), ids=M2_FAMILIES)
def test_m2_agreement_is_product_expansion(fam, rho, rho_r):
    """At m = 2, w = c_1 + c_2 ranges over the sum code as (c_1, c_2) ranges
    over the tuples, and the splittings of w are (c_1 + c, c + c_2) over the
    product codewords c, so ratio_a(c_1, c_2) = ||w|| / mincost(w) and rho_a =
    rho.  The line test then transfers it: rho_r(T_2^1) >= rho / (rho + 1)."""
    assert rho_exact(fam) == rho_a_exact(fam) == rho
    assert rho_r_exact(line_test(fam.shape), fam) == rho_r >= rho / (rho + 1)


def test_m3_agreement_differs_from_product_expansion():
    """The identity is particular to m = 2: on rep2^3 rho is 1/3, rho_a 4/9."""
    assert (rho_exact(FAM3), rho_a_exact(FAM3)) == (Fraction(1, 3), Fraction(4, 9))


def test_check_composition_rep2_m3_exact():
    rep = composition_report(
        FAM3,
        1,
        2,
        rho_r_exact(line_test(FAM3.shape), FAM3),
        rho_r_exact(FlatTest.build(FAM3.shape, 2), FAM3),
        rho_r_exact(line_test(FAM2.shape), FAM2),
    )
    assert rep.holds
    q = rep.quantities
    assert q["rho_r_T3^1"] == Fraction(1, 3)
    assert q["rho_r_T3^2"] == Fraction(1, 2)
    assert q["rho_r_T2^1"] == Fraction(1, 2)


def test_check_composition_rejects_equal_flat_dims():
    with pytest.raises(ValueError):
        check_composition(REP2, 3, 2, 2, samples=24, seed=5)


def test_check_composition_gf4_m3_sampled():
    rep = check_composition(C31, 3, 1, 2, samples=24, seed=5)
    assert rep.mode == "sampled"
    assert rep.holds, rep.inequalities


def test_check_composition_sampled_pool_minima_match_oracle():
    """The pool quantities are the minima of every pool word's exact T^1 and
    T^2 ratio, each computed from the definitions by `tests/oracles.py`."""
    codes = [oracles.gf4_rep3()] * 3
    prod_code = oracles.orc_product_code((3, 3, 3), codes)
    pool = [
        tuple(int(v) for v in word.data.reshape(-1))
        for _, word in _word_pool(CodeFamily.power(C31, 3), 24, 5)
    ]
    assert len(pool) == 51
    rep = check_composition(C31, 3, 1, 2, samples=24, seed=5)
    for k in (1, 2):
        flats, sub_codes = oracles.orc_flat_test((3, 3, 3), codes, k)
        ratios = [oracles.orc_word_ratio(w, prod_code, flats, sub_codes) for w in pool]
        assert rep.quantities[f"rho_r_T3^{k}_pool"] == min(r for r in ratios if r is not None)


def test_word_pool_diagonals_are_twisted_diagonals():
    """`diagonal` is T_0 and `diagonal-scaled` is T_s with s_j = j k,
    k = max(1, n // 3) whatever the rate: k = 5 on RS[15,3]^3, k = 1 on rep2^4."""
    for fam in (CodeFamily.power(rs_primitive(F16, 1, 5), 3), CodeFamily.power(REP2, 4)):
        k, axes = max(1, fam.shape[0] // 3), range(1, fam.m)
        pool = dict(_word_pool(fam, 0, 1))
        for name, step in (("diagonal", 0), ("diagonal-scaled", k)):
            shifts = [j * step for j in axes]
            want = oracles.orc_twisted_diagonal(fam.field, fam.shape, shifts)
            assert np.array_equal(pool[name].data, want), (fam.label(), name)


def test_word_pool_holds_little_beyond_its_words():
    """The tracemalloc peak of building the RS[63,21]^3 pool (250,047 cells a
    word) stays within its words' bytes plus 6 words.  Besides the pool, a
    corruption round holds at most 4 words: the last round's base codeword and
    corrupted copy while `random_product_codeword` encodes the next base and
    copies it into its word.  The other 2 words cover the encodings' smaller
    arrays and the diagonals' support indices (2 x 3,969 int64).  Int64 index
    arrays over the whole grid would take 24 words (6 MB) alone.  A tiny pool
    built first loads what numpy imports lazily outside the measurement."""
    _word_pool(CodeFamily.power(C31, 3), 1, 1)
    fam = CodeFamily.power(rs_primitive(field_make(6), 1, 3), 3)
    tracemalloc.start()
    try:
        pool = _word_pool(fam, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    word_bytes = prod(fam.shape)
    assert len(pool) == 28 and word_bytes == 250_047
    assert peak <= sum(word.data.nbytes for _, word in pool) + 6 * word_bytes


def test_check_hyperplane_bound_instances():
    """`check_lemmas` reports the hyperplane bound on C^2 and, from m = 3
    on, on C^3."""
    planes = {
        rep.instance: rep
        for code, m in ((REP2, 3), (C31, 2))
        for rep in check_lemmas(code, m)
        if rep.name == "hyperplane_bound"
    }
    assert sorted(planes) == sorted(fam.label() for fam in (FAM2, FAM3, G2))
    assert all(rep.holds for rep in planes.values()), planes


def test_line_test_chain_bound_rep2_m3():
    rr_m = rho_r_exact(line_test((2, 2, 2)), FAM3)
    rr_2 = rho_r_exact(line_test((2, 2)), FAM2)
    delta = Fraction(1)
    M = 3
    assert rr_m >= rr_2 * delta**M / 12


def test_agreement_chain_recomputation_all_words():
    """For every word x: ||x - z|| <= d_x (1 + 2/rho_a), where the y_i are
    nearest direction words, z is the best agreement codeword for them, and
    d_x is the mean direction distance."""
    for fam in (FAM2, FAM3):
        shape = fam.shape
        m = fam.m
        ra = rho_a_exact(fam)
        spaces = [
            [np.array(w).reshape(shape) for w in oracles.orc_direction_space(shape, ax, oracles.REP2)]
            for ax in range(m)
        ]
        prod_cws = [row.reshape(shape) for row in product_codewords(fam)]
        N = 2 ** len(shape)
        for bits in itertools.product((0, 1), repeat=2 ** m):
            x = np.array(bits, dtype=np.uint8).reshape(shape)
            ys = []
            for ax in range(m):
                best = min(
                    spaces[ax],
                    key=lambda s: (int(np.count_nonzero(x ^ s)), tuple(s.reshape(-1))),
                )
                ys.append(best)
            d_x = sum(
                Fraction(int(np.count_nonzero(x ^ y)), x.size) for y in ys
            ) / m
            # z minimizes the mean direction line-weight to the tuple
            def agree_cost(cw):
                return sum(
                    line_weight(TensorWord(F2, ys[i] ^ cw), i) for i in range(m)
                ) / m

            z = min(prod_cws, key=lambda cw: (agree_cost(cw), tuple(cw.reshape(-1))))
            lhs = Fraction(int(np.count_nonzero(x ^ z)), x.size)
            assert lhs <= d_x * (1 + 2 / ra)


# ----------------------------------------------------------------------
# Sampled robustness.
# ----------------------------------------------------------------------

def test_robustness_ratio_skips_codewords():
    """None comes back exactly for product codewords: on every word of
    rep2^2, and on RS[15,5]^2 codewords with and without one changed cell."""
    for bits in itertools.product((0, 1), repeat=4):
        w = W(F2, np.array(bits).reshape(2, 2))
        assert (robustness_ratio(w, line_test((2, 2)), FAM2) is None) == product_contains(w, FAM2)
    fam = CodeFamily.power(RS15, 2)
    rng = np.random.default_rng(3)
    for _ in range(4):
        c = random_product_codeword(fam, rng)
        arr = c.data.copy()
        i, j = rng.integers(0, 15, size=2)
        arr[i, j] ^= rng.integers(1, 16)
        for w, member in ((c, True), (TensorWord(F16, arr), False)):
            assert product_contains(w, fam) == member
            assert (robustness_ratio(w, line_test((15, 15)), fam) is None) == member


def test_robustness_ratio_upper_bounds_truth_tiny():
    rng = np.random.default_rng(1)
    t = line_test((2, 2))
    for _ in range(100):
        arr = rng.integers(0, 2, size=(2, 2), dtype=np.uint8)
        w = TensorWord(F2, arr)
        ub = robustness_ratio(w, t, FAM2)
        if ub is None:
            continue
        truth = test_expectation(w, t, FAM2).value / oracles.delta_to_product(w, FAM2)
        assert ub >= truth


def test_robustness_ratio_decodes_each_line_once(monkeypatch):
    """The line test's numerator and denominator share one decode per line:
    the 30 lines of an RS[15,5]^2 word pass through `nearest_lines` once."""
    from prodexp import tensor

    batches = []
    real = tensor.nearest_lines

    def counted(code, lines):
        batches.append(len(lines))
        return real(code, lines)

    monkeypatch.setattr(tensor, "nearest_lines", counted)
    rng = np.random.default_rng(5)
    word = TensorWord(F16, rng.integers(0, 16, size=(15, 15), dtype=np.uint8))
    assert robustness_ratio(word, line_test((15, 15)), CodeFamily.power(RS15, 2)) is not None
    assert sum(batches) == 30


def test_robustness_ratio_refuses_other_flat_tests():
    """Beyond the line test the expectation would bound both sides of the
    ratio, which would always be 1."""
    word = W(F2, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(ValueError, match="line test only"):
        robustness_ratio(word, FlatTest.build((2, 2, 2), 2), FAM3)


def test_rho_r_sampled_upper_deterministic_and_consistent():
    t = line_test((15, 15))
    fam = CodeFamily.power(RS15, 2)
    a = rho_r_sampled_upper(t, fam, samples=20, seed=9)
    b = rho_r_sampled_upper(t, fam, samples=20, seed=9)
    assert a == b
    assert a.value >= Fraction(1, 72)
    assert all(r >= Fraction(1, 72) for _, r in a.ratios)
    assert a.value >= rho_r_exact(line_test((2, 2)), FAM2) / 100  # sanity: positive


def test_rho_r_sampled_upper_blocks_are_exact(monkeypatch):
    """The pool's ratios do not depend on how it is cut into blocks: the
    default block (the whole 22-word pool), blocks of one word, and blocks
    of 3 words (the last holds one); each ratio is also the one-word
    `robustness_ratio`."""
    from prodexp import testability

    args = (line_test((15, 15)), CodeFamily.power(RS15, 2), 4, 9)
    want = rho_r_sampled_upper(*args)
    assert len(want.ratios) + want.skipped == 22 and want.value > 0
    for words in (1, 3):
        monkeypatch.setattr(testability, "_POOL_BLOCK_LINES", 15 * words)
        assert rho_r_sampled_upper(*args) == want
    assert want.ratios == tuple(
        (name, robustness_ratio(word, args[0], args[1])) for name, word in _word_pool(args[1], 4, 9)
    )


def test_rho_r_sampled_upper_builds_each_block_when_it_decodes_it(monkeypatch):
    """The pool's blocks are stacked one at a time, each just before
    `_line_ratios` decodes it, never all of them first."""
    from prodexp import testability

    events = []
    stack, line_ratios = np.stack, testability._line_ratios
    monkeypatch.setattr(np, "stack", lambda *a, **k: events.append("build") or stack(*a, **k))
    monkeypatch.setattr(
        testability, "_line_ratios", lambda *a: events.append("ratios") or line_ratios(*a)
    )
    monkeypatch.setattr(testability, "_POOL_BLOCK_LINES", 15 * 3)
    rho_r_sampled_upper(line_test((15, 15)), CodeFamily.power(RS15, 2), 4, 9)
    assert events == ["build", "ratios"] * 8  # 22 pool words in blocks of 3


def _oracle_line_ratio(word, family, kinds):
    """The line-test ratio of one word built line by line from the
    Berlekamp-Welch reference decoder: a decoded line counts its distance at
    both ends, a line it cannot decode e + 1 and n - k, and the ratio is
    sum_j upper_j / (m max_j lower_j), None when that maximum is 0.  Adds
    the kind of every line to `kinds`."""
    lower, upper = [], []
    for axis, code in enumerate(family.codes):
        redundancy = code.length - code.dimension
        lo = up = 0
        for line in np.moveaxis(word, axis, -1).reshape(-1, code.length):
            decoded = oracles.orc_bounded_distance_decode(code, line)
            if decoded is None:
                kinds.add("undecodable")
                lo, up = lo + redundancy // 2 + 1, up + redundancy
            else:
                kinds.add("decoded" if decoded[1] else "clean")
                lo, up = lo + decoded[1], up + decoded[1]
        lower.append(lo)
        upper.append(up)
    return None if max(lower) == 0 else Fraction(sum(upper), family.m * max(lower))


def test_line_ratios_on_unresolved_lines_match_per_line_oracle():
    """RS[15,5]^2 words and an RS[15,5]^3 word whose lines are clean,
    decodable (1 to 4 errors) and beyond the radius (replaced by uniform
    words): `_line_ratios` equals the ratio built line by line from
    `tests/oracles.py::orc_bounded_distance_decode`."""
    from prodexp.testability import _line_ratios

    rng = np.random.default_rng(21)
    for m in (2, 3):
        family = CodeFamily.power(RS15, m)
        words = [random_product_codeword(family, rng).data for _ in range(3 if m == 2 else 1)]
        for w, word in enumerate(words):
            word = words[w] = word.copy()
            lines = word.reshape((15, -1))  # direction-0 lines are its columns
            for j in range(4):
                lines[: j + 1, w + j] ^= rng.integers(1, 16, size=j + 1, dtype=np.uint8)
            lines[:, w + 4 : w + 6] = rng.integers(0, 16, size=(15, 2), dtype=np.uint8)
        if m == 2:
            words += [random_product_codeword(family, rng).data]
            words += [rng.integers(0, 16, size=family.shape, dtype=np.uint8)]
        kinds = set()
        want = [_oracle_line_ratio(word, family, kinds) for word in words]
        assert kinds == {"clean", "decoded", "undecodable"}
        assert _line_ratios(np.stack(words), line_test(family.shape), family) == want
        assert want[0] is not None and (m == 3 or want[-2] is None)


def test_rho_r_sampled_upper_dominates_exact_on_tiny_instance():
    t = line_test((2, 2))
    rep = rho_r_sampled_upper(t, FAM2, samples=50, seed=2)
    assert rep.value >= rho_r_exact(t, FAM2)


# ----------------------------------------------------------------------
# Pair proximity.
# ----------------------------------------------------------------------

def test_pair_proximity_identity_pairs_pass():
    rep = check_pair_proximity(RS15, trials=25, seed=0)
    assert rep.holds and rep.line_budget == 0


def test_pair_proximity_nonzero_budget_rate_2_15():
    code = rs_primitive(F16, 2, 15)  # [15, 2]: budget allows real corruption
    rep = check_pair_proximity(code, trials=200, seed=1)
    assert rep.line_budget == 2
    assert rep.max_observed_delta > 0
    assert rep.holds


def test_pair_proximity_rs63_replaces_one_line():
    """The paper's rate-1/3 square at n=63: the budget (1/6)^2 admits one
    re-randomized line per trial, and row-column decoding recovers a product
    codeword close enough every time."""
    rep = check_pair_proximity(rs_primitive(field_make(6), 1, 3), trials=5, seed=7)
    assert rep.line_budget == 1
    assert rep.max_observed_delta > 0
    assert rep.failures == 0


def _pair_proximity_per_trial(code, trials, seed):
    """(failures, max delta) of the planted-pair check with every trial
    drawn and then decoded on its own, as a one-row batch of
    `decode_to_products`, the loop that `check_pair_proximity` turned into
    one batch."""
    n, k = code.length, code.dimension
    bound = (Fraction(1, 2) - Fraction(k, n)) ** 2
    budget = int(bound * n * n) // n
    fam = CodeFamily.power(code, 2)
    rng = np.random.Generator(np.random.PCG64(seed))
    failures, max_delta = 0, Fraction(0)
    for _ in range(trials):
        c1 = random_product_codeword(fam, rng).data.copy()
        c2 = c1.copy()
        r1 = int(rng.integers(0, budget + 1))
        for col in rng.choice(n, size=r1, replace=False) if r1 else []:
            c1[:, col] = code.random_codeword(rng)
        for row in rng.choice(n, size=budget - r1, replace=False) if budget - r1 else []:
            c2[row, :] = code.random_codeword(rng)
        delta = Fraction(int(np.count_nonzero(c1 ^ c2)), n * n)
        if delta > bound:
            failures += 1
            continue
        max_delta = max(max_delta, delta)
        (decoded,), (reached,) = decode_to_products(c1[None], fam)
        far = reached and Fraction((decoded != c1).sum(), n * n) > 2 * delta
        failures += not reached or far
    return failures, max_delta


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "code",
    [RS15, rs_primitive(F16, 2, 15), rs_primitive(field_make(6), 1, 3)],
    ids=lambda c: c.label(),
)
def test_pair_proximity_batch_matches_per_trial_decoding(code, seed):
    """Drawing every trial first and decoding all planted words in one
    batch reports what drawing and decoding trial by trial reports, at
    t = 2 (RS[15,5], and RS[15,2] with two re-randomized lines) and t = 3
    (RS[63,21])."""
    rep = check_pair_proximity(code, trials=6, seed=seed)
    assert (rep.failures, rep.max_observed_delta) == _pair_proximity_per_trial(code, 6, seed)
    assert rep.trials == 6 and rep.seed == seed


def test_pair_proximity_rejects_high_rate():
    code = rs_primitive(F16, 2, 3)  # k = 10 >= n/2
    with pytest.raises(ValueError):
        check_pair_proximity(code, trials=1, seed=0)


# ----------------------------------------------------------------------
# Constants.
# ----------------------------------------------------------------------

def test_derived_constants_m3():
    c = derived_constants(3)
    assert c.M == 3
    assert c.alpha_r == Fraction(1, 2916)
    assert c.alpha_a == Fraction(2, 3) * c.alpha_r / (1 + c.alpha_r)
    assert c.alpha(Fraction(1, 2)) == Fraction(1, 2) ** 4 / 48


def test_derived_constants_m4():
    c = derived_constants(4)
    assert c.M == 7
    assert c.alpha_exponent == 8 and c.alpha_denominator == 4 * 144
    assert c.alpha(Fraction(1, 3)) == Fraction(1, 3) ** 8 / 576


def test_derived_constants_reject_small_m():
    with pytest.raises(ValueError):
        derived_constants(2)
