"""Expansion constants: witnesses, certificates, decomposition search."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from prodexp import expansion, linalg, tensor
from prodexp.codes import full_code, repetition, rs_primitive
from prodexp.expansion import (
    Decomposition,
    DecompositionSpace,
    ExpansionCertificate,
    certify_upper_bound,
    counterexample_word,
    line_cover_lower_bound,
    line_disjoint_support,
    min_decomposition,
    rho_exact,
    rho_upper_sampled,
    rs_triple_witness,
    verify_certificate,
)
from prodexp.gf_poly import field_make
from prodexp.tensor import CodeFamily, TensorWord, random_sum_codeword, sum_contains_batch

F2 = field_make(1)
F4 = field_make(2)
F16 = field_make(4)
REP2 = repetition(F2, 2)


def W(field, nested):
    return TensorWord(field, np.array(nested, dtype=np.uint8))


# ----------------------------------------------------------------------
# Witness word.
# ----------------------------------------------------------------------

def test_counterexample_t1_support_and_membership():
    w = counterexample_word(F4, 1)
    assert w.weight() == 9
    support = {tuple(c) for c in np.argwhere(w.data != 0).tolist()}
    assert support == {
        (i, j, l)
        for i in range(3)
        for j in range(3)
        for l in range(3)
        if (i + j + l) % 3 == 0
    }
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 3)
    assert sum_contains_batch(w.data[None], fam)[0]


def test_counterexample_entry_formula():
    # entry (i, j, l) on the support is w^(-kj - 2kl)
    for t, field in ((1, F4), (2, F16)):
        n = field.order - 1
        k = n // 3
        w = counterexample_word(field, k)
        rng = np.random.default_rng(t)
        for _ in range(50):
            j, l = int(rng.integers(n)), int(rng.integers(n))
            i = (-j - l) % n
            assert int(w.data[i, j, l]) == field.omega_pow(-k * j - 2 * k * l)


def _shift_vectors(n, m):
    """The pool's two shift vectors (0 and s_j = j k, k = max(1, n // 3)) and
    the witness shifts s_j = -j k."""
    k = max(1, n // 3)
    return [[0] * (m - 1), [j * k for j in range(1, m)], [-j * k for j in range(1, m)]]


def test_twisted_diagonal_matches_full_grid_oracle():
    """`twisted_diagonal`, which indexes the support cells only, gives the
    bytes of the full-grid construction `orc_twisted_diagonal`: on RS grids
    at t = 1..3 and m = 2..4 with n^m <= 2^18, and on rep2 grids at m = 2..5."""
    grids = [
        (field_make(2 * t), (4**t - 1,) * m)
        for t in (1, 2, 3)
        for m in (2, 3, 4)
        if (4**t - 1) ** m <= 1 << 18
    ]
    grids += [(F2, (2,) * m) for m in (2, 3, 4, 5)]
    assert len(grids) == 12
    for field, shape in grids:
        for shifts in _shift_vectors(shape[0], len(shape)):
            word = expansion.twisted_diagonal(field, shape, shifts)
            assert np.array_equal(word.data, oracles.orc_twisted_diagonal(field, shape, shifts))


def test_counterexample_word_is_the_witness_twisted_diagonal():
    for t in (1, 2, 3):
        field = field_make(2 * t)
        n = field.order - 1
        k = n // 3
        word = counterexample_word(field, k)
        cube, shifts = (n,) * 3, (-k, -2 * k)
        assert word == expansion.twisted_diagonal(field, cube, shifts)
        assert np.array_equal(word.data, oracles.orc_twisted_diagonal(field, cube, shifts))


def _spectrum(field, words, m):
    """The transform [w^(ij)] of a (W, n, ..., n) stack along every grid axis."""
    n = words.shape[1]
    bits = linalg.bit_matrix(field, [[field.omega_pow(i * j) for j in range(n)] for i in range(n)])
    for axis in range(1, m + 1):
        words = linalg.apply_matrix_axis(field, bits, words, axis)
    return words


def _twisted_diagonals(field, n, m):
    """Every shift vector s in Z_n^(m-1) and the stack of its T_s."""
    shifts = list(itertools.product(range(n), repeat=m - 1))
    words = [expansion.twisted_diagonal(field, (n,) * m, s).data for s in shifts]
    return shifts, np.stack(words)


@pytest.mark.parametrize("t, m", [(3, 3), (3, 4), (4, 3)], ids=["n7_m3", "n7_m4", "n15_m3"])
def test_twisted_diagonal_spectrum_is_one_line(t, m):
    """The transform of T_s is 1 exactly at the n points (u, u - s_1, ...,
    u - s_(m-1)) and 0 elsewhere, for every s, the witness shifts (-k, -2k)
    among them; and `rs_primitive(field, k, n)`'s codewords transform to zero
    outside W = {0, ..., k-1}, the sign convention of the covering rule."""
    field = field_make(t)
    n = field.order - 1
    shifts, words = _twisted_diagonals(field, n, m)
    if m == 3 and n % 3 == 0:
        assert (-n // 3 % n, -2 * n // 3 % n) in shifts
    want = np.zeros_like(words)
    u = np.arange(n)
    for row, s in enumerate(shifts):
        want[(row, u, *((u - si) % n for si in s))] = 1
    assert np.array_equal(_spectrum(field, words, m), want)
    rng = np.random.default_rng(t)
    for k in range(1, n):
        code = rs_primitive(field, k, n)
        spectra = _spectrum(field, np.stack([code.random_codeword(rng) for _ in range(8)]), 1)
        assert not spectra[:, k:].any() and spectra[:, :k].any()


@pytest.mark.parametrize(
    "t, k, m, covering",
    [(3, 2, 3, 0), (3, 3, 3, 12), (4, 4, 3, 0), (4, 5, 3, 2), (3, 1, 4, 0), (3, 2, 4, 24)],
    ids=["RS7_2^3", "RS7_3^3", "RS15_4^3", "RS15_5^3", "RS7_1^4", "RS7_2^4"],
)
def test_twisted_diagonal_in_sum_code_iff_shifted_windows_cover(t, k, m, covering):
    """T_s lies in the sum code of RS[n,k]^m iff W, W + s_1, ...,
    W + s_(m-1) cover Z_n, W = {0, ..., k-1}: checked for every s."""
    field = field_make(t)
    n = field.order - 1
    shifts, words = _twisted_diagonals(field, n, m)
    covers = [
        len({(w + si) % n for si in (0, *s) for w in range(k)}) == n for s in shifts
    ]
    family = CodeFamily.power(rs_primitive(field, k, n), m)
    assert sum_contains_batch(words, family).tolist() == covers
    assert sum(covers) == covering


def test_rs_triple_witness_only_on_the_rate_third_triple():
    """The one predicate for the rate-1/3 RS triple: the witness on RS[3,1]^3
    and RS[15,5]^3; None on other powers, another rate or a mixed triple."""
    for field in (F4, F16):
        n = field.order - 1
        fam = CodeFamily.power(rs_primitive(field, 1, 3), 3)
        assert rs_triple_witness(fam) == counterexample_word(field, n // 3)
    rs15 = {k: rs_primitive(F16, k, 15) for k in (3, 5, 10)}
    assert [c.dimension for c in rs15.values()] == [3, 5, 10]
    others = [
        CodeFamily.power(rs15[5], 2),
        CodeFamily.power(rs15[5], 4),
        CodeFamily.power(rs15[3], 3),
        CodeFamily((rs15[5], rs15[5], rs15[10])),
    ]
    for fam in others:
        assert rs_triple_witness(fam) is None, fam.label()


def test_counterexample_t2_line_disjoint():
    w = counterexample_word(F16, 5)
    assert w.weight() == 225
    assert line_disjoint_support(w)


def test_counterexample_rejects_bad_parameters():
    with pytest.raises(ValueError):
        counterexample_word(field_make(3), 2)  # n = 7 not divisible by 3
    with pytest.raises(ValueError):
        counterexample_word(F16, 4)  # k != n/3


def test_line_disjoint_support_examples():
    single = W(F2, [[1, 0], [0, 0]])
    assert line_disjoint_support(single)
    shared = W(F2, [[1, 1], [0, 0]])
    assert not line_disjoint_support(shared)


def test_line_cover_bound_greedy_on_dense_word():
    dense = W(F2, [[1, 1], [1, 1]])
    L, tight = line_cover_lower_bound(dense)
    assert not tight
    assert L == 2  # greedy keeps the diagonal cells, which no line pair shares


# ----------------------------------------------------------------------
# Certificates.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("t,deg", [(1, 2), (2, 4)])
def test_certificate_bound_is_one_over_n(t, deg):
    field = field_make(deg)
    n = field.order - 1
    fam = CodeFamily.power(rs_primitive(field, 1, 3), 3)
    cert = certify_upper_bound(counterexample_word(field, n // 3), fam)
    assert cert.bound == Fraction(1, n)
    assert cert.line_disjoint and cert.tight
    assert cert.cover_lower_bound == n * n


def test_certificate_rejects_non_member():
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 3)
    arr = np.zeros((3, 3, 3), dtype=np.uint8)
    arr[0, 0, 0] = 1
    with pytest.raises(ValueError):
        certify_upper_bound(TensorWord(F4, arr), fam)


def test_certificate_text_roundtrip_and_verify():
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 3)
    cert = certify_upper_bound(counterexample_word(F4, 1), fam)
    text = cert.to_text()
    again = ExpansionCertificate.from_text(text)
    assert again == cert
    assert verify_certificate(again, fam)


def test_certificate_reader_holds_one_witness_and_one_block(monkeypatch):
    """Reading the t=3 certificate (RS[63,21]^3: 250,047 cells in 0.5 MB of
    text) allocates the witness once plus per-block temporaries, and never
    a copy of the text: with 4,096-character blocks the tracemalloc peak
    stays within twice the cell count plus 32 bytes per block character."""
    f64 = field_make(6)
    fam = CodeFamily.power(rs_primitive(f64, 1, 3), 3)
    text = certify_upper_bound(counterexample_word(f64, 21), fam).to_text()
    block = 1 << 12
    monkeypatch.setattr(tensor, "_TEXT_BLOCK", block)
    tracemalloc.start()
    try:
        cert = ExpansionCertificate.from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.witness == counterexample_word(f64, 21)
    assert peak <= 2 * 63**3 + 32 * block


def test_certificate_writer_holds_one_block(monkeypatch, tmp_path):
    """`certify-counterexample --t 3` streams the certificate (0.5 MB of
    text) to its file: with 4,096-cell blocks (at most 3 characters a cell),
    what the run allocates after the certificate is built stays within 32
    bytes per block character: far below the two copies of the text that a
    writer joining it before the write would hold."""
    from prodexp import harness

    block = 1 << 12
    monkeypatch.setattr(tensor, "_TEXT_BLOCK", block)
    held = []

    def certify_then_reset_peak(word, family):
        cert = certify_upper_bound(word, family)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return cert

    monkeypatch.setattr(harness, "certify_upper_bound", certify_then_reset_peak)
    path = tmp_path / "t3.cert"
    tracemalloc.start()
    try:
        rc = harness.main(["certify-counterexample", "--t", "3", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and len(held) == 1
    f64 = field_make(6)
    fam = CodeFamily.power(rs_primitive(f64, 1, 3), 3)
    text = certify_upper_bound(counterexample_word(f64, 21), fam).to_text()
    assert path.read_text() == text and len(text) > 500_000
    assert peak - held[0] <= 32 * 3 * block + (1 << 16)


def test_verify_certificate_rejects_tampered_bound():
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 3)
    cert = certify_upper_bound(counterexample_word(F4, 1), fam)
    bad = ExpansionCertificate(
        witness=cert.witness,
        instance=cert.instance,
        bound=cert.bound / 2,
        cover_lower_bound=cert.cover_lower_bound,
        line_disjoint=cert.line_disjoint,
        tight=cert.tight,
    )
    assert not verify_certificate(bad, fam)


@pytest.mark.parametrize("field_name", ["line_disjoint", "tight"])
def test_verify_certificate_rejects_flipped_cover_flag(field_name):
    """Both flags come from one predicate; each is still checked."""
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 3)
    cert = certify_upper_bound(counterexample_word(F4, 1), fam)
    bad = dataclasses.replace(cert, **{field_name: False})
    assert not verify_certificate(bad, fam)


def test_verify_certificate_rejects_zero_witness():
    """The zero word is in every sum code and has cover bound 0; a file
    that claims it once raised ZeroDivisionError in the bound check."""
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 3)
    cert = certify_upper_bound(counterexample_word(F4, 1), fam)
    zero = dataclasses.replace(
        cert, witness=TensorWord.zeros(F4, fam.shape), cover_lower_bound=0, bound=Fraction(0)
    )
    parsed = ExpansionCertificate.from_text(zero.to_text())
    assert parsed.cover_lower_bound == 0 and parsed.witness.weight() == 0
    assert not verify_certificate(parsed, fam)


def test_certificate_of_word_with_shared_lines_uses_greedy_cover():
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 2)
    word = TensorWord(F4, np.full((3, 3), 2, dtype=np.uint8))  # in the product code
    cert = certify_upper_bound(word, fam)
    assert not cert.line_disjoint and not cert.tight
    assert cert.cover_lower_bound == 3  # greedy keeps one cell per row and column
    assert verify_certificate(cert, fam)
    assert not verify_certificate(dataclasses.replace(cert, line_disjoint=True), fam)


def _t1_certificate_text():
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 3)
    return certify_upper_bound(counterexample_word(F4, 1), fam).to_text()


def test_certificate_missing_bound_line_raises_value_error():
    lines = _t1_certificate_text().splitlines(keepends=True)
    text = "".join(ln for ln in lines if not ln.startswith("bound "))
    with pytest.raises(ValueError, match="lacks bound"):
        ExpansionCertificate.from_text(text)


def test_certificate_zero_denominator_raises_value_error():
    text = _t1_certificate_text()
    assert "\nbound 1/3\n" in text
    with pytest.raises(ValueError, match="zero denominator"):
        ExpansionCertificate.from_text(text.replace("\nbound 1/3\n", "\nbound 1/0\n"))


def test_certificate_entry_above_ff_raises_value_error():
    text = _t1_certificate_text()
    head, sep, body = text.partition(" field 2^2\n")
    with pytest.raises(ValueError, match="above ff"):
        ExpansionCertificate.from_text(head + sep + "100" + body[1:])


def test_certificate_header_ending_in_field_raises_value_error():
    text = _t1_certificate_text()
    assert "shape 3 3 3 field 2^2\n" in text
    with pytest.raises(ValueError, match="bad header"):
        ExpansionCertificate.from_text(text.replace(" field 2^2\n", " field\n"))


# ----------------------------------------------------------------------
# Decompositions.
# ----------------------------------------------------------------------

def test_min_decomposition_zero_word():
    fam = CodeFamily.power(REP2, 2)
    dec, cost = min_decomposition(TensorWord.zeros(F2, (2, 2)), fam)
    assert cost == 0
    assert all(p.weight() == 0 for p in dec.parts)


def test_min_decomposition_diagonal_cost_one():
    fam = CodeFamily.power(REP2, 2)
    diag = W(F2, [[1, 0], [0, 1]])
    dec, cost = min_decomposition(diag, fam)
    assert cost == 1
    dec.validate(fam, diag)


def test_min_decomposition_rejects_non_member():
    fam = CodeFamily.power(REP2, 2)
    with pytest.raises(ValueError):
        min_decomposition(W(F2, [[1, 0], [0, 0]]), fam)


def _per_line_basis(code, shape, axis):
    """The basis of C^(axis) placed line by line: lines row-major over the
    other axes, one word per generator row inside each line."""
    rows = []
    for coords in itertools.product(*(range(n) for i, n in enumerate(shape) if i != axis)):
        idx = list(coords)
        idx.insert(axis, slice(None))
        for g in code.generator_matrix:
            arr = np.zeros(shape, dtype=np.uint8)
            arr[tuple(idx)] = g
            rows.append(arr.reshape(-1))
    return np.array(rows, dtype=np.uint8)


@pytest.mark.parametrize(
    "codes",
    [
        (rs_primitive(F4, 1, 3),) * 3,
        (REP2,) * 4,
        (rs_primitive(F16, 1, 3),) * 2,
        (REP2, repetition(F2, 3)),
    ],
    ids=["rs3-m3", "rep2-m4", "rs15-m2", "rep2xrep3"],
)
def test_direction_basis_matches_per_line_construction(codes):
    shape = tuple(c.length for c in codes)
    for axis, code in enumerate(codes):
        got = expansion._direction_basis(code, shape, axis)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, _per_line_basis(code, shape, axis))


@pytest.mark.parametrize(
    "argv, family",
    [
        ("rho-exact --instance rep2 --m 3", CodeFamily.power(REP2, 3)),
        ("rho-exact --instance rs --t 1 --m 2", CodeFamily.power(rs_primitive(F4, 1, 3), 2)),
        ("agreement --instance rep2 --m 3 --mode exact", CodeFamily.power(REP2, 3)),
        (
            "rho-sampled --instance rs --t 1 --m 3 --samples 4 --seed 3",
            CodeFamily.power(rs_primitive(F4, 1, 3), 3),
        ),
    ],
    ids=["rho-exact-rep2-m3", "rho-exact-rs-t1-m2", "agreement-rep2-m3", "rho-sampled-rs-t1-m3"],
)
def test_no_direction_basis_goes_through_matmul(argv, family, monkeypatch, capsys):
    """Direction-code words are encoded one message per line
    (`tensor.direction_words`): `linalg.matmul`, which expands its right
    operand into a bit matrix on every call, never gets a direction basis."""
    from prodexp import harness, linalg

    real, operands = linalg.matmul, []
    monkeypatch.setattr(
        linalg, "matmul", lambda field, A, B: operands.append(np.asarray(B)) or real(field, A, B)
    )
    assert harness.main(argv.split()) == 0
    capsys.readouterr()
    bases = [expansion._direction_basis(c, family.shape, i) for i, c in enumerate(family.codes)]
    assert not [B.shape for B in operands for b in bases if np.array_equal(B, b)]


def test_exhaustive_never_beaten_by_local_search():
    """No splitting found otherwise, here the one that generated the word,
    costs less than the exhaustive minimum."""
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 2)
    rng = np.random.default_rng(0)
    space = DecompositionSpace(fam)
    for _ in range(10):
        word, parts = random_sum_codeword(fam, rng)
        if word.weight() == 0:
            continue
        _, best = min_decomposition(word, fam, space=space)
        generating = Decomposition(tuple(parts))
        generating.validate(fam, word)
        assert best <= generating.cost()


def test_decomposition_validation_catches_bad_parts():
    fam = CodeFamily.power(REP2, 2)
    bad = Decomposition((W(F2, [[1, 0], [0, 0]]), TensorWord.zeros(F2, (2, 2))))
    with pytest.raises(ValueError):
        bad.validate(fam, W(F2, [[1, 0], [0, 0]]))


# ----------------------------------------------------------------------
# Exact expansion constants.
# ----------------------------------------------------------------------

def test_rho_exact_rep2_m2_anchor():
    assert rho_exact(CodeFamily.power(REP2, 2)) == Fraction(1, 2)


def test_rho_exact_gf4_matches_oracle_and_trivial_bounds():
    import oracles

    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 2)
    value = rho_exact(fam)
    assert value == oracles.orc_rho((3, 3), [oracles.gf4_rep3()] * 2)
    assert 0 < value <= 1


def test_rho_exact_with_full_code_factor_at_most_one():
    fam = CodeFamily((REP2, full_code(F2, 2)))
    assert rho_exact(fam) <= 1


def test_rho_exact_monotone_in_number_of_factors():
    assert rho_exact(CodeFamily.power(REP2, 2)) >= rho_exact(CodeFamily.power(REP2, 3))


def test_rho_exact_below_every_certificate():
    import oracles

    fam = CodeFamily.power(REP2, 2)
    value = rho_exact(fam)
    space = DecompositionSpace(fam)
    for row in oracles.sum_code_words(fam, space):
        if not row.any():
            continue
        word = TensorWord(F2, row.reshape(2, 2))
        assert value <= certify_upper_bound(word, fam).bound


# ----------------------------------------------------------------------
# Sampled upper bounds.
# ----------------------------------------------------------------------

def test_rho_upper_sampled_includes_counterexample():
    fam = CodeFamily.power(rs_primitive(F4, 1, 3), 3)
    rep = rho_upper_sampled(fam, samples=4, seed=11)
    assert rep.certified_bound is not None
    assert rep.certified_bound <= Fraction(1, 3)


def test_rho_upper_sampled_zero_samples_errors():
    fam = CodeFamily.power(REP2, 2)
    with pytest.raises(ValueError):
        rho_upper_sampled(fam, samples=0, seed=1)


def test_rho_upper_sampled_deterministic():
    fam = CodeFamily.power(REP2, 2)
    a = rho_upper_sampled(fam, samples=16, seed=42)
    b = rho_upper_sampled(fam, samples=16, seed=42)
    assert a == b


def test_rho_upper_sampled_heuristic_above_exact_when_fully_searched(monkeypatch):
    fam = CodeFamily.power(REP2, 2)
    exact = rho_exact(fam)
    # budget covers the pool: every found decomposition is a true minimizer,
    # so every pool ratio is that word's exact ratio and dominates rho
    monkeypatch.setattr(expansion, "_SEARCH_BUDGET", 64)
    rep = rho_upper_sampled(fam, samples=32, seed=1)
    assert rep.heuristic_min is not None
    assert rep.heuristic_min >= exact


# ----------------------------------------------------------------------
# Cost tables against brute force.
# ----------------------------------------------------------------------

C31 = rs_primitive(F4, 1, 3)


@pytest.mark.parametrize(
    "fam, shape, codes",
    [
        (CodeFamily.power(REP2, 3), (2, 2, 2), "rep2"),
        (CodeFamily.power(C31, 2), (3, 3), "gf4_rep3"),
    ],
    ids=["rep2_m3", "gf4_m2"],
)
def test_min_decomposition_matches_oracle_on_every_word(fam, shape, codes):
    """The two-half coset table gives every sum-code word the minimum
    splitting cost of the oracle's enumeration of all part tuples."""
    import oracles

    orc_codes = oracles.rep2_codes(fam.m) if codes == "rep2" else [oracles.gf4_rep3()] * fam.m
    costs = oracles.orc_sum_code_with_costs(shape, orc_codes)
    space = DecompositionSpace(fam)
    assert len(costs) == fam.field.order ** (space.D - space.ambiguity_dim)
    for word, want in costs.items():
        w = TensorWord(fam.field, np.array(word, dtype=np.uint8).reshape(shape))
        _, got = min_decomposition(w, fam, space=space)
        assert got == want, word


def _brute_first_minimizer(space, base):
    """First coefficient vector, in lexicographic order, of a cheapest
    splitting; parts folded by hand from the field's multiplication table."""
    field = space.family.field
    mul = field.mul_table
    best = None
    for v in itertools.product(range(field.order), repeat=space.ambiguity_dim):
        beta = base.copy()
        for j, c in enumerate(v):
            beta ^= mul[c][space.kernel[j]]
        parts = []
        for sl in space.slices:
            flat = np.zeros(space.N, dtype=np.uint8)
            for coef, row in zip(beta[sl], space.basis[sl]):
                flat ^= mul[coef][row]
            parts.append(TensorWord(field, flat.reshape(space.family.shape)))
        cost = Decomposition(tuple(parts)).cost()
        if best is None or cost < best[1]:
            best = (list(v), cost)
    return best


@pytest.mark.parametrize(
    "fam",
    [CodeFamily.power(REP2, 3), CodeFamily.power(repetition(F4, 2), 3)],
    ids=["rep2_m3", "gf4_rep2_m3"],
)
def test_search_min_ties_go_to_first_brute_force_minimizer(fam):
    space = DecompositionSpace(fam)
    assert space.ambiguity_dim >= 2  # both halves of the table are used
    rng = np.random.default_rng(3)
    words = [TensorWord.zeros(fam.field, fam.shape)]
    words += [random_sum_codeword(fam, rng)[0] for _ in range(6)]
    for word in words:
        base = space.particular(word)
        coeffs, num, den = space.search_min(base)
        want_coeffs, want_cost = _brute_first_minimizer(space, base)
        assert coeffs.tolist() == want_coeffs
        assert Fraction(num, den) == want_cost


@pytest.mark.parametrize(
    "fam",
    [
        CodeFamily.power(REP2, 2),
        CodeFamily.power(REP2, 3),
        CodeFamily((REP2, repetition(F2, 3))),
        CodeFamily.power(C31, 2),
        CodeFamily.power(C31, 3),
        CodeFamily.power(repetition(F4, 2), 3),
    ],
    ids=["rep2_m2", "rep2_m3", "rep2_rep3", "rs31_m2", "rs31_m3", "gf4_rep2_m3"],
)
def test_space_blocks_of_one_row_reduction(fam):
    """`image`, `coeffs` and `kernel` split the basis as the reduction
    [basis | I] -> [T basis | T] promises."""
    import oracles

    space = DecompositionSpace(fam)
    field = fam.field
    r, K = space.image.shape[0], space.ambiguity_dim
    assert np.array_equal(linalg.matmul(field, space.coeffs, space.basis), space.image)
    assert not linalg.matmul(field, space.kernel, space.basis).any()
    assert len(linalg.rref(field, space.image)[1]) == r and r + K == space.D
    assert np.array_equal(space.image[:, space.pivots], np.eye(r, dtype=np.uint8))
    if fam.shape != (2, 2):
        return
    members = {tuple(w) for w in oracles.sum_code_words(fam, space).tolist()}
    for cells in itertools.product(range(2), repeat=4):
        word = W(field, np.array(cells).reshape(2, 2))
        beta = space.particular(word)
        if cells in members:
            assert np.array_equal(linalg.matmul(field, beta[None], space.basis)[0], cells)
        else:
            assert beta is None, cells
    with pytest.raises(ValueError):
        space.particular(TensorWord.zeros(field, (4,)))


def test_rho_exact_unequal_lengths_matches_oracle():
    """Lines of the two directions carry weights 1/3 and 1/2."""
    import oracles

    fam = CodeFamily((REP2, repetition(F2, 3)))
    rep3 = [(0, 0, 0), (1, 1, 1)]
    assert rho_exact(fam) == oracles.orc_rho((2, 3), [oracles.REP2, rep3])


def test_rho_exact_revalidates_the_minimizing_word(monkeypatch):
    fam = CodeFamily.power(REP2, 2)
    real = expansion.min_decomposition
    calls = []

    def off_by_one(word, family, space=None):
        dec, cost = real(word, family, space)
        calls.append(word)
        return dec, cost + 1

    monkeypatch.setattr(expansion, "min_decomposition", off_by_one)
    with pytest.raises(RuntimeError, match="cost table"):
        rho_exact(fam)
    assert len(calls) == 1 and calls[0].weight() > 0


def test_rho_upper_sampled_exact_split_bound():
    """The witness of RS[3,1]^3 is searched exhaustively: its exact splitting
    cost is 11/9, so its ratio 3/11 bounds rho and beats the certificates'
    1/3; the first `_SEARCH_BUDGET` pool words are split exactly."""
    fam = CodeFamily.power(C31, 3)
    rep = rho_upper_sampled(fam, samples=32, seed=1)
    assert rep.certified_bound == Fraction(1, 3)
    assert rep.exact_split_bound == Fraction(3, 11)
    assert rep.exact_split_words == expansion._SEARCH_BUDGET


def test_rho_upper_sampled_exact_split_without_search_is_certificate():
    """RS[15,5]^3 is too large to split: the bound falls back to the
    certificates, and no word counts as split exactly."""
    fam = CodeFamily.power(rs_primitive(F16, 1, 3), 3)
    rep = rho_upper_sampled(fam, samples=1, seed=1)
    assert rep.exact_split_words == 0
    assert rep.exact_split_bound == rep.certified_bound == Fraction(1, 15)
