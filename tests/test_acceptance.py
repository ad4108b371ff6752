"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Each criterion prints one `[acceptance] criterion NN PASS/FAIL` line.  The
tiny-instance constants in FROZEN were produced by the independent
brute-force oracle (`python tests/oracles.py`) before the main build and are
re-derived here from both the oracle and the implementation.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import low_degree_evaluation_vectors
from prodexp.codes import repetition, rs_primitive
from prodexp.expansion import ExpansionCertificate, verify_certificate
from prodexp.gf_poly import field_make
from prodexp.harness import build_parser, config_from_args, run
from prodexp.tensor import (
    CodeFamily,
    TensorWord,
    random_sum_codeword,
    sum_contains_batch,
)
from prodexp.testability import (
    FlatTest,
    check_lemmas,
    check_pair_proximity,
    composition_report,
    derived_constants,
    line_test,
    rho_a_exact,
    rho_r_exact,
    rho_r_sampled_upper,
)
from prodexp.expansion import rho_exact

# Frozen from the independent oracle (tests/oracles.py), before the build.
FROZEN = {
    "rho_rep2_m2": Fraction(1, 2),  # analytic anchor: diagonal word, cost-1 splits
    "rho_rep2_m3": Fraction(1, 3),
    "rho_r_rep2_m2_T21": Fraction(1, 2),
    "rho_r_rep2_m3_T31": Fraction(1, 3),
    "rho_r_rep2_m3_T32": Fraction(1, 2),
    "rho_a_rep2_m2": Fraction(1, 2),
    "rho_a_rep2_m3": Fraction(4, 9),
}
FROZEN_WITNESSES = {
    "rho_r_rep2_m2_T21": (0, 0, 1, 1),
    "rho_r_rep2_m3_T31": (0, 0, 0, 0, 1, 1, 1, 1),
    "rho_r_rep2_m3_T32": (0, 0, 0, 1, 0, 1, 1, 1),
}

F2 = field_make(1)
REP2 = repetition(F2, 2)


def _criterion(num, desc):
    """Decorator: time the body and print one pass/fail line."""

    def wrap(fn):
        import functools

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:2d} FAIL ({desc})")
                raise
            dt = time.monotonic() - t0
            print(f"[acceptance] criterion {num:2d} PASS ({desc}) [{dt:.2f}s]")

        return inner

    return wrap


def _cli(argv):
    parser = build_parser()
    import io

    buf = io.StringIO()
    cfg = config_from_args(parser.parse_args(argv))
    rc = run(cfg, stream=buf)
    return rc, buf.getvalue()


@_criterion(1, "counterexample certificates, t=1,2,3, bound exactly 1/n")
def test_criterion_1_counterexample_certificates(tmp_path):
    budgets = {1: 1.0, 2: 1.0, 3: 60.0}
    for t in (1, 2, 3):
        field = field_make(2 * t)  # warm the field tables outside the timer
        n = field.order - 1
        out = tmp_path / f"t{t}.cert"
        t0 = time.monotonic()
        rc, report = _cli(
            ["certify-counterexample", "--t", str(t), "--out", str(out)]
        )
        elapsed = time.monotonic() - t0
        assert rc == 0
        assert elapsed < budgets[t], f"t={t} took {elapsed:.2f}s"
        import json

        rec = json.loads(report.splitlines()[0])
        assert rec["holds"] is True
        assert rec["value"] == f"1/{n}"
        detail = dict(kv.split("=") for kv in rec["detail"].split(";"))
        assert detail["sum_contains_check_poly"] == "true"
        assert detail["support"] == str(n * n)
        assert detail["line_disjoint"] == "true"
        cert = ExpansionCertificate.from_text(out.read_text())
        assert cert.bound == Fraction(1, n)
        fam = CodeFamily.power(rs_primitive(field, 1, 3), 3)
        assert verify_certificate(cert, fam)


@_criterion(2, "sum-code membership kernel vs dual-tensor oracle at n=15")
def test_criterion_2_membership_cross_validation():
    field = field_make(4)
    fam = CodeFamily.power(rs_primitive(field, 1, 3), 3)
    rng = np.random.Generator(np.random.PCG64(20240501))
    from prodexp.expansion import counterexample_word

    words = [counterexample_word(field, 5).data]
    expected_member = [True]
    for _ in range(1000):
        w, _parts = random_sum_codeword(fam, rng)
        words.append(w.data)
        expected_member.append(True)
    randoms = rng.integers(0, 16, size=(1000, 15, 15, 15), dtype=np.uint8)
    batch = np.concatenate([np.stack(words), randoms], axis=0)
    via_check = sum_contains_batch(batch, fam)
    via_dual = oracles.orc_sum_contains(batch, fam)
    disagreements = int(np.count_nonzero(via_check != via_dual))
    assert disagreements == 0
    assert via_check[: len(expected_member)].all()


@_criterion(3, "tiny-scale exact constants match the frozen oracle fixtures")
def test_criterion_3_exact_tiny_constants():
    t0 = time.monotonic()
    # oracle recomputation (independent path)
    oracle_now = {
        "rho_rep2_m2": oracles.orc_rho((2, 2), oracles.rep2_codes(2)),
        "rho_rep2_m3": oracles.orc_rho((2, 2, 2), oracles.rep2_codes(3)),
        "rho_r_rep2_m2_T21": oracles.orc_rho_r((2, 2), oracles.rep2_codes(2), 1)[0],
        "rho_r_rep2_m3_T31": oracles.orc_rho_r((2, 2, 2), oracles.rep2_codes(3), 1)[0],
        "rho_r_rep2_m3_T32": oracles.orc_rho_r((2, 2, 2), oracles.rep2_codes(3), 2)[0],
        "rho_a_rep2_m2": oracles.orc_rho_a((2, 2), oracles.rep2_codes(2)),
        "rho_a_rep2_m3": oracles.orc_rho_a((2, 2, 2), oracles.rep2_codes(3)),
    }
    assert oracle_now == FROZEN
    # implementation must match exactly
    fam2 = CodeFamily.power(REP2, 2)
    fam3 = CodeFamily.power(REP2, 3)
    impl = {
        "rho_rep2_m2": rho_exact(fam2),
        "rho_rep2_m3": rho_exact(fam3),
        "rho_r_rep2_m2_T21": rho_r_exact(line_test((2, 2)), fam2),
        "rho_r_rep2_m3_T31": rho_r_exact(line_test((2, 2, 2)), fam3),
        "rho_r_rep2_m3_T32": rho_r_exact(FlatTest.build((2, 2, 2), 2), fam3),
        "rho_a_rep2_m2": rho_a_exact(fam2),
        "rho_a_rep2_m3": rho_a_exact(fam3),
    }
    assert impl == FROZEN
    assert FROZEN["rho_rep2_m2"] == Fraction(1, 2)  # analytic anchor
    # frozen minimizers attain the frozen ratios through the implementation
    from prodexp.testability import test_expectation

    for key, bits in FROZEN_WITNESSES.items():
        m = 2 if "m2" in key else 3
        k = int(key[-1])
        fam = fam2 if m == 2 else fam3
        w = TensorWord(F2, np.array(bits, dtype=np.uint8).reshape((2,) * m))
        num = test_expectation(w, FlatTest.build((2,) * m, k), fam).value
        den = oracles.delta_to_product(w, fam)
        assert num / den == FROZEN[key]
    assert time.monotonic() - t0 < 10.0


@_criterion(4, "robustness/agreement inequalities hold on exact values")
def test_criterion_4_robust_agreement_checks():
    for m in (2, 3):
        (rep,) = [rep for rep in check_lemmas(REP2, m) if rep.name == "robust_agreement"]
        assert rep.holds, rep.inequalities


@_criterion(5, "composition inequality on rep2, m=3")
def test_criterion_5_composition():
    fam2, fam3 = CodeFamily.power(REP2, 2), CodeFamily.power(REP2, 3)
    rep = composition_report(
        fam3,
        1,
        2,
        rho_r_exact(line_test(fam3.shape), fam3),
        rho_r_exact(FlatTest.build(fam3.shape, 2), fam3),
        rho_r_exact(line_test(fam2.shape), fam2),
    )
    assert rep.holds, rep.inequalities


@_criterion(6, "rho_a <= 2 and rho_r <= 1 on all exact instances")
def test_criterion_6_bounds():
    f4 = field_make(2)
    c31 = rs_primitive(f4, 1, 3)
    instances = [
        (CodeFamily.power(REP2, 2), [1]),
        (CodeFamily.power(REP2, 3), [1, 2]),
        (CodeFamily.power(c31, 2), [1]),
    ]
    for fam, ks in instances:
        for k in ks:
            assert rho_r_exact(FlatTest.build(fam.shape, k), fam) <= 1
        assert rho_a_exact(fam) <= 2


@_criterion(7, "planted pair-proximity trials, RS [15,5], 1000 seeded trials")
def test_criterion_7_pair_proximity():
    t0 = time.monotonic()
    code = rs_primitive(field_make(4), 1, 3)
    rep = check_pair_proximity(code, trials=1000, seed=1234)
    assert rep.trials == 1000 and rep.failures == 0
    assert rep.max_observed_delta <= Fraction(1, 36)
    assert time.monotonic() - t0 < 30.0


@_criterion(8, "DFT and check-polynomial representations coincide for RS [15,5]")
def test_criterion_8_dft_equivalence():
    t0 = time.monotonic()
    field = field_make(4)
    code = rs_primitive(field, 1, 3)
    vecs = low_degree_evaluation_vectors(field, code.dimension)
    assert vecs.shape == (16**5, 15)
    assert code.contains_batch(vecs).all()
    # distinctness: pack 15 nibbles per row into a 64-bit key
    keys = np.zeros(vecs.shape[0], dtype=np.uint64)
    for i in range(15):
        keys = (keys << np.uint64(4)) | vecs[:, i].astype(np.uint64)
    assert np.unique(keys).size == 16**5
    # equal cardinality with the check-polynomial representation
    assert 16**5 == field.order**code.dimension
    assert time.monotonic() - t0 < 60.0


@_criterion(9, "sampled robustness ratios for RS [15,5] never fall below 1/72")
def test_criterion_9_sampled_robustness_consistency():
    field = field_make(4)
    fam = CodeFamily.power(rs_primitive(field, 1, 3), 2)
    rep = rho_r_sampled_upper(line_test((15, 15)), fam, samples=1000, seed=987)
    assert rep.sample_count == 1000
    floor = Fraction(1, 72)
    below = [(name, r) for name, r in rep.ratios if r < floor]
    assert not below, below[:5]
    assert rep.value >= floor


@_criterion(10, "closed-form constants for m=3 and m=4")
def test_criterion_10_constants():
    c3 = derived_constants(3)
    assert c3.M == 3
    assert c3.alpha_r == Fraction(1, 2916)
    assert c3.alpha_a == Fraction(2, 3) * Fraction(1, 2916) / (1 + Fraction(1, 2916))
    for rho in (Fraction(1, 2), Fraction(1, 15), Fraction(2, 3)):
        assert c3.alpha(rho) == rho**4 / 48
    c4 = derived_constants(4)
    assert c4.M == 7
    for rho in (Fraction(1, 3), Fraction(1, 63)):
        assert c4.alpha(rho) == rho**8 / (4 * 144)
