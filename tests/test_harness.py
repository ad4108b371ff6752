"""CLI harness: exit codes, determinism, serialization, config handling."""

import dataclasses
import io
import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from prodexp.expansion import ExpansionCertificate, verify_certificate
from prodexp.gf_poly import field_make
from prodexp.codes import rs_primitive
from prodexp.harness import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    ExperimentConfig,
    Record,
    UsageError,
    build_parser,
    config_from_args,
    emit_report,
    main,
    run,
)
from prodexp.tensor import CodeFamily


def run_cli(argv, tmp_path=None):
    """Invoke the harness in-process, capturing stdout."""
    buf = io.StringIO()
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    code = run(cfg, stream=buf)
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# Exit codes.
# ----------------------------------------------------------------------

def test_malformed_flag_exits_2(capsys):
    assert main(["robustness", "--no-such-flag"]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_instance_exits_2(capsys):
    assert main(["rho-exact", "--instance", "nope", "--m", "2"]) == EXIT_USAGE
    capsys.readouterr()


def test_sampled_requires_seed(capsys):
    assert main(["robustness", "--instance", "rep2", "--m", "2", "--mode", "sampled"]) == EXIT_USAGE
    capsys.readouterr()


def test_exact_mode_rejects_seed(capsys):
    rc = main(
        ["robustness", "--instance", "rep2", "--m", "2", "--mode", "exact", "--seed", "1"]
    )
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_check_lemmas_rep2_exits_0():
    code, out = run_cli(["check-lemmas", "--instance", "rep2", "--m", "2"])
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["holds"] for r in records)


def test_check_lemmas_enumerates_rho_a_once(monkeypatch):
    """The `bounds` report reads rho_a from the robust-agreement report
    instead of enumerating it a second time."""
    from prodexp import harness, testability

    calls = []
    real = testability.rho_a_exact

    def counted(family):
        calls.append(family)
        return real(family)

    monkeypatch.setattr(testability, "rho_a_exact", counted)
    monkeypatch.setattr(harness, "rho_a_exact", counted)
    code, _ = run_cli(["check-lemmas", "--instance", "rep2", "--m", "3"])
    assert code == EXIT_OK and len(calls) == 1


def test_violation_exit_code_from_failed_check(monkeypatch):
    from prodexp import harness
    from prodexp.testability import CheckReport

    def rigged(cfg):
        rep = CheckReport(
            name="rigged",
            instance="x",
            quantities={},
            inequalities=(("impossible", Fraction(0), Fraction(1)),),
        )
        recs = harness.records_from_check(rep)
        return (EXIT_VIOLATION if not rep.holds else EXIT_OK), recs

    monkeypatch.setitem(harness._RUNNERS, "check-lemmas", rigged)
    cfg = ExperimentConfig(command="check-lemmas")
    assert harness.run(cfg, stream=io.StringIO()) == EXIT_VIOLATION


# ----------------------------------------------------------------------
# Reports.
# ----------------------------------------------------------------------

def test_emit_report_empty_jsonlines_and_csv():
    buf = io.StringIO()
    emit_report([], "jsonlines", buf)
    assert buf.getvalue() == ""
    buf = io.StringIO()
    emit_report([], "csv", buf)
    assert buf.getvalue().startswith("kind,quantity,value,mode,instance")
    assert len(buf.getvalue().splitlines()) == 1


def test_emit_report_single_exact_record_golden():
    rec = Record(kind="test", quantity="rho_r", value="1/2", mode="exact", instance="rep2")
    buf = io.StringIO()
    emit_report([rec], "jsonlines", buf)
    assert buf.getvalue() == (
        '{"kind":"test","quantity":"rho_r","value":"1/2","mode":"exact",'
        '"instance":"rep2","test":"","seed":null,"samples":null,'
        '"holds":null,"detail":""}\n'
    )
    buf = io.StringIO()
    emit_report([rec], "csv", buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "test,rho_r,1/2,exact,rep2,,,,,"


def test_reports_byte_identical_across_runs(tmp_path):
    argv = [
        "robustness",
        "--instance",
        "rep2",
        "--m",
        "3",
        "--mode",
        "sampled",
        "--samples",
        "10",
        "--seed",
        "77",
    ]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_out_flag_writes_report_file(tmp_path):
    out = tmp_path / "report.csv"
    argv = [
        "constants",
        "--m",
        "3",
        "--format",
        "csv",
        "--out",
        str(out),
    ]
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(argv))
    assert run(cfg, stream=io.StringIO()) == EXIT_OK
    text = out.read_text()
    assert "alpha_r,1/2916" in text


@pytest.mark.parametrize(
    "argv, name",
    [
        (["certify-counterexample", "--t", "1"], "x.cert"),
        (["rho-exact", "--instance", "rep2", "--m", "2"], "r.txt"),
    ],
    ids=["certificate", "report"],
)
def test_unwritable_out_exits_2_naming_the_path(argv, name, tmp_path, capsys):
    """An `--out` whose directory does not exist is a usage error: exit 2,
    the path on stderr and no traceback, where it was exit 1 with one."""
    path = tmp_path / "missing" / name
    assert main(argv + ["--out", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert not path.parent.exists()


def test_config_file_flags_win(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"instance": "rep2", "m": 2}))
    parser = build_parser()
    args = parser.parse_args(
        ["rho-exact", "--config", str(cfg_file), "--m", "3"]
    )
    cfg = config_from_args(args)
    assert cfg.instance == "rep2"
    assert cfg.m == 3  # flag beats config


def test_config_file_sets_every_field_like_flags(tmp_path, capsys):
    """A config file sets every flag of robustness as the flag would; the one
    field that robustness does not read, `trials`, is refused with exit 2."""
    file_values = {
        "instance": "rs", "t": 2, "rate": [2, 5], "m": 3, "k": 2, "mode": "sampled",
        "samples": 7, "trials": 11, "seed": 5, "fmt": "csv", "out": "r.csv",
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(file_values))
    assert main(["robustness", "--config", str(cfg_file)]) == EXIT_USAGE
    assert "unknown config keys: trials" in capsys.readouterr().err
    del file_values["trials"]
    cfg_file.write_text(json.dumps(file_values))
    parser = build_parser()
    from_file = config_from_args(parser.parse_args(["robustness", "--config", str(cfg_file)]))
    flags = (
        "robustness --instance rs --t 2 --rate 2/5 --m 3 --k 2 --mode sampled"
        " --samples 7 --seed 5 --format csv --out r.csv"
    )
    assert from_file == config_from_args(parser.parse_args(flags.split()))
    default = ExperimentConfig(command="robustness")
    unset = [f.name for f in dataclasses.fields(default)
             if f.name != "command" and getattr(from_file, f.name) == getattr(default, f.name)]
    assert unset == ["trials"]


@pytest.mark.parametrize(
    "argv",
    [
        "robustness --instance rep2 --m 2 --mode sampled --seed 1 --jobs 2",
        "rho-sampled --instance rep2 --m 3 --seed 1 --jobs 2",
        "agreement --instance rep2 --m 3 --mode sampled --seed 1 --jobs 2",
        "check-lemmas --instance rep2 --m 2 --jobs 2",
        "ps-corollary --instance rs --t 1 --trials 5 --jobs 2",
        "ps-corollary --instance rs --t 1 --trials 5 --m 3",
        "ps-corollary --instance rs --t 1 --trials 5 --samples 4",
    ],
    ids=lambda argv: f"{argv.split()[0]}{argv.split()[-2]}",
)
def test_flag_the_subcommand_does_not_read_exits_2(argv, tmp_path, capsys):
    """Each of these flags was once accepted and silently ignored; as a flag
    or as a config key, it now exits 2."""
    assert main(argv.split()) == EXIT_USAGE
    *head, flag, value = argv.split()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({flag[2:]: int(value)}))
    assert main(head + ["--config", str(cfg_file)]) == EXIT_USAGE
    assert f"unknown config keys: {flag[2:]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("check-lemmas --instance rep2 --m 2 --seed 3", "exact checks reject --seed/--samples"),
        ("check-lemmas --instance rep2 --m 2 --samples 9", "exact checks reject --seed/--samples"),
    ],
    ids=["check-lemmas-exact-seed", "check-lemmas-exact-samples"],
)
def test_flag_the_branch_does_not_read_exits_2(argv, message, tmp_path, capsys):
    """A flag that the subcommand reads on another branch only was once
    silently ignored; as a flag or as a config key, it now exits 2."""
    assert main(argv.split()) == EXIT_USAGE
    assert message in capsys.readouterr().err
    *head, flag, value = argv.split()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({flag[2:]: int(value)}))
    assert main(head + ["--config", str(cfg_file)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize(
    "argv",
    [
        "rho-exact --instance rep2",
        "rho-sampled --instance rep2 --seed 1",
        "robustness --instance rep2 --mode exact",
        "robustness --instance rep2 --mode sampled --seed 1",
        "agreement --instance rep2 --mode exact",
        "agreement --instance rep2 --mode sampled --seed 1",
        "check-lemmas --instance rep2",
        "constants",
    ],
    ids=[
        "rho-exact",
        "rho-sampled",
        "robustness-exact",
        "robustness-sampled",
        "agreement-exact",
        "agreement-sampled",
        "check-lemmas",
        "constants",
    ],
)
def test_fewer_than_two_factors_exits_2(argv, m, tmp_path, capsys):
    """A product needs two factors: at m = 1, rho-exact and rho-sampled once
    reported the one code's "product" with exit 0, and the other commands
    failed later with messages about flats, sampled tuples or, at m = 0,
    an empty family.  As a flag or as a config key, m < 2 now exits 2."""
    assert main(argv.split() + ["--m", str(m)]) == EXIT_USAGE
    assert "--m must be at least 2" in capsys.readouterr().err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"m": m}))
    assert main(argv.split() + ["--config", str(cfg_file)]) == EXIT_USAGE
    assert "--m must be at least 2" in capsys.readouterr().err


def test_direction_code_too_large_exits_2_before_building_its_basis(monkeypatch, capsys):
    """RS[63,21]^3 has a direction code of dimension 83,349: its words, and
    the 64^83,349 coefficient rows that `direction_words` would encode into
    them, can never be built, so the size guard must come first."""
    from prodexp import linalg, testability

    monkeypatch.setattr(
        testability, "direction_words", lambda *a: pytest.fail("words built past the guard")
    )
    monkeypatch.setattr(
        linalg, "enumerate_vectors", lambda *a: pytest.fail("coefficients built past the guard")
    )
    argv = "agreement --instance rs --t 3 --m 3 --mode exact"
    assert main(argv.split()) == EXIT_USAGE
    assert "direction code too large to enumerate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", ["--instance rs --t 1 --m 3", "--instance rep2 --m 5"], ids=["rs_t1_m3", "rep2_m5"]
)
def test_tuple_space_too_large_exits_2_before_building_a_direction_code(argv, monkeypatch, capsys):
    """Each direction code of RS[3,1]^3 (4^9 words) and rep2^5 (2^16) can
    be listed, but their tuples cannot: `rho_a_exact` must refuse from the
    dimensions alone.  It once listed every direction code and the
    product code first, 0.1-0.4 s and 42-55 MB before exit 2."""
    from prodexp import linalg, testability

    for module, name in (
        (testability, "direction_words"),
        (testability, "product_codewords"),
        (linalg, "enumerate_vectors"),
    ):
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} past the guard"))
    assert main(f"agreement {argv} --mode exact".split()) == EXIT_USAGE
    assert "tuple space too large" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("robustness --instance rs --t 4 --m 3 --mode exact", "word space too large"),
        ("rho-exact --instance rs --t 4 --m 3", "splittings; too large"),
        ("agreement --instance rs --t 4 --m 3 --mode exact", "direction code too large"),
        ("check-lemmas --instance rs --t 4 --m 3", "word space too large"),
    ],
    ids=["robustness", "rho-exact", "agreement", "check-lemmas"],
)
def test_size_guards_on_rs255_cubed_refuse_in_little_memory(argv, message, capsys):
    """The guards of `rho_r_exact`, `rho_exact`, `rho_a_exact` and
    `check-lemmas` compare degree * count with the limit's bit length, since
    q = 2^degree.  Each once built q^count first, on RS[255,85]^3 an integer
    of up to 133 M bits (17 MB), and took 0.2-1 s to refuse."""
    tracemalloc.start()
    try:
        assert main(argv.split()) == EXIT_USAGE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message in capsys.readouterr().err
    assert peak < 1 << 20, peak


def test_check_lemmas_enumerates_each_constant_once(monkeypatch):
    """`testability.check_lemmas` builds every report from one enumeration
    of each constant, rho_a(C^m) first and then each rho_r(T_k^j) once: at
    m = 2 the line test of C^2 serves both the agreement and the hyperplane
    reports, and at m = 3 the composition report reads rho_r(T_3^2) from the
    hyperplane report's enumeration."""
    from prodexp import harness, testability

    calls = []
    real_rr, real_ra = testability.rho_r_exact, testability.rho_a_exact

    def counted_rr(test, family):
        calls.append((test.label(), family.m))
        return real_rr(test, family)

    def counted_ra(family):
        calls.append(("rho_a", family.m))
        return real_ra(family)

    for module in (testability, harness):
        monkeypatch.setattr(module, "rho_r_exact", counted_rr)
        monkeypatch.setattr(module, "rho_a_exact", counted_ra)
    for argv, m, rho_r_calls in (
        ("--instance rep2 --m 2", 2, [("T_2^1", 2)]),
        ("--instance rs --t 1 --m 2", 2, [("T_2^1", 2)]),
        ("--instance rep2 --m 3", 3, [("T_2^1", 2), ("T_3^1", 3), ("T_3^2", 3)]),
    ):
        calls.clear()
        code, out = run_cli(["check-lemmas", *argv.split()])
        assert code == EXIT_OK and ('"composition:T3^1 >= T3^2 * T2^1"' in out) == (m == 3)
        assert calls[0] == ("rho_a", m), (argv, calls)  # its guards refuse first
        assert sorted(calls[1:]) == rho_r_calls, (argv, calls)


@pytest.mark.parametrize(
    "argv", ["--instance rep2 --m 4", "--instance rs --t 1 --rate 2/3 --m 2"], ids=["rep2_m4", "rs32_m2"]
)
def test_check_lemmas_refuses_before_enumerating_robustness(argv, monkeypatch, capsys):
    """Both instances pass the word-space guard but not rho_a's tuple-space
    guard, which `check_lemmas` meets before it enumerates any rho_r."""
    from prodexp import testability

    def refused(test, family):
        raise AssertionError(f"rho_r_exact({test.label()}, {family.label()}) ran before the guard")

    monkeypatch.setattr(testability, "rho_r_exact", refused)
    assert main(["check-lemmas", *argv.split()]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "tuple space too large" in captured.err, captured


@pytest.mark.parametrize(
    "argv",
    ["--instance rs --t 2 --m 3 --samples 4 --seed 2", "--instance rs --t 3 --m 3"],
    ids=["rs_t2_m3", "rs_t3_m3"],
)
def test_check_lemmas_refuses_the_pool_check_beyond_c2s_word_space(argv, monkeypatch, capsys):
    """The pool check enumerates rho_r(T_2^1) on C^2 exactly, which RS[15,5]^2
    and RS[63,21]^2 exceed: the harness refuses, naming both limits, before
    `check_composition` builds anything.  It once reached the exact
    guard inside `check_composition`."""
    from prodexp import harness

    monkeypatch.setattr(harness, "check_composition", lambda *a: pytest.fail("pool check ran"))
    assert main(["check-lemmas", *argv.split()]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the exact checks need q^(n^m) <= 2^24" in captured.err
    assert "the pool check m >= 3 and q^(n^2) <= 2^24" in captured.err


def test_sampled_agreement_row_reduces_each_code_once(monkeypatch):
    """`_systematic_reencode` reads the systematic bit matrix kept on the
    code: one `linalg.rref` per code, where it ran one per word and axis.
    The line decoder's context adds one of its own, of [K | Y]: the n - k
    kept check products of the unit words e_k .. e_(n-1) and their 2e
    syndromes."""
    from prodexp import linalg

    real, calls = linalg.rref, []
    monkeypatch.setattr(linalg, "rref", lambda field, mat: calls.append(mat.shape) or real(field, mat))
    argv = "agreement --instance rs --t 2 --m 3 --mode sampled --samples 4 --seed 4"
    code, _ = run_cli(argv.split())
    assert code == EXIT_OK
    assert calls == [(10, 20), (5, 15)], calls  # RS[15,5], the one code: [K | Y], then its generator matrix


def test_rho_exact_row_reduces_once(monkeypatch):
    """`DecompositionSpace` reads its image, splitting coefficients and
    kernel from one `linalg.rref` of [basis | I]; `rho_exact` and
    `min_decomposition` make no other.  The space once ran ten."""
    from prodexp import linalg

    real, calls = linalg.rref, []
    monkeypatch.setattr(
        linalg, "rref", lambda field, mat, *a: calls.append(mat.shape) or real(field, mat, *a)
    )
    code, _ = run_cli("rho-exact --instance rep2 --m 3".split())
    assert code == EXIT_OK
    assert calls == [(12, 20)], calls  # D = 12 basis words, N = 8 cells, I_12


def test_splitting_space_too_large_exits_2_before_building_it(monkeypatch, capsys):
    """RS[63,21]^3 has 64^250,047 splittings: `rho_exact` must refuse before
    `DecompositionSpace` builds its (250,047, 250,047) basis."""
    from prodexp import expansion

    monkeypatch.setattr(
        expansion, "DecompositionSpace", lambda *a: pytest.fail("space built past the guard")
    )
    assert main("rho-exact --instance rs --t 3 --m 3".split()) == EXIT_USAGE
    assert "splittings; too large" in capsys.readouterr().err


def test_trials_below_one_exit_2(capsys):
    """`--trials -5` once reported "samples":-5 and "holds":true."""
    assert main("ps-corollary --instance rs --t 1 --trials -5".split()) == EXIT_USAGE
    assert main("ps-corollary --instance rs --t 1 --trials 0".split()) == EXIT_USAGE
    assert "--trials must be at least 1" in capsys.readouterr().err


def test_negative_samples_exit_2(capsys):
    """`--samples -4` was once recorded as "samples":-4."""
    argv = "robustness --instance rep2 --m 2 --mode sampled --seed 1 --samples -4"
    assert main(argv.split()) == EXIT_USAGE
    assert "--samples must not be negative" in capsys.readouterr().err


def test_config_file_malformed_value_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"instance": "rep2", "t": "x"}))
    args = build_parser().parse_args(["rho-exact", "--config", str(cfg_file)])
    with pytest.raises(UsageError, match="'x' for t"):
        config_from_args(args)
    assert main(["rho-exact", "--config", str(cfg_file)]) == EXIT_USAGE
    assert "for t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, field",
    [
        ({"instance": "rs", "t": 1.9, "m": 2}, "t"),
        ({"instance": "rs", "t": 1, "m": 2.7}, "m"),
        ({"instance": "rep2", "m": True}, "m"),
        ({"instance": "rs", "t": 1, "rate": [1.0, 3]}, "rate"),
        ({"instance": "rs", "t": 1, "rate": [1, True]}, "rate"),
    ],
    ids=["t-float", "m-float", "m-bool", "rate-float", "rate-bool"],
)
def test_config_file_refuses_floats_and_booleans(values, field, tmp_path, capsys):
    """`{"t": 1.9, "m": 2.7}` once ran t=1, m=2, and `{"m": true}` ran m=1:
    an integer field or a rate entry is never truncated or read as 0 or 1."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    assert main(["rho-exact", "--config", str(cfg_file)]) == EXIT_USAGE
    assert f"bad value {values[field]!r} for {field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "robustness --instance rs --t 1 --m 2 --mode exact",
        "rho-sampled --instance rs --t 1 --m 3 --seed 1",
        "certify-counterexample --t 1",
    ],
    ids=lambda argv: argv.split()[0],
)
def test_zero_rate_denominator_exits_2(argv, tmp_path, capsys):
    """`--rate 1/0` once ended in a ZeroDivisionError traceback and exit 1,
    the violation code; as a flag or as a config key it now exits 2 and
    writes nothing."""
    out = tmp_path / "out"
    head = argv.split() + ["--out", str(out)]
    assert main(head + ["--rate", "1/0"]) == EXIT_USAGE
    assert "bad rate '1/0': the denominator must be at least 1" in capsys.readouterr().err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"rate": [1, 0]}))
    assert main(head + ["--config", str(cfg_file)]) == EXIT_USAGE
    assert "bad rate [1, 0]: the denominator must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    ["certify-counterexample --t 1", "rho-exact --instance rep2 --m 2"],
    ids=["certify", "rho-exact"],
)
def test_config_file_bad_format_exits_2_and_writes_nothing(argv, tmp_path, capsys):
    """`{"fmt": "xml"}` was once refused only when the report was emitted,
    after certify-counterexample had written its certificate to --out; the
    config check now refuses it before any work."""
    out, cfg_file = tmp_path / "out", tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"fmt": "xml"}))
    assert main(argv.split() + ["--out", str(out), "--config", str(cfg_file)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown format 'xml'" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        ("rho-sampled --instance rs --t 1 --m 3", None, "rho-sampled requires --seed"),
        (
            "robustness --instance rep2 --m 3 --k 2 --mode sampled --seed 1",
            None,
            "sampled robustness is implemented for the line test only",
        ),
        (
            "robustness --instance rep2 --m 2 --k 2 --mode exact",
            None,
            "flat dimension 2 outside [1, 1]",
        ),
        ("check-lemmas --instance rs --t 2 --m 2", None, "word space too large: the exact checks"),
        ("rho-exact --instance rs --t 1 --rate x --m 2", None, "bad rate 'x'; expected p/q"),
        ("rho-exact --instance rep2 --m 2", "missing", "cannot read config file"),
        ("rho-exact --instance rep2 --m 2", [1, 2], "config file must hold one JSON object"),
        ("rho-exact --m 2", {"instance": "foo"}, "unknown instance 'foo'; choose rep2 or rs"),
        ("robustness --instance rep2 --m 2", {"mode": "fast"}, "unknown mode 'fast'"),
    ],
    ids=[
        "rho-sampled-no-seed",
        "robustness-sampled-k2",
        "robustness-exact-k-equals-m",
        "check-lemmas-rs-t2-m2",
        "bad-rate",
        "config-missing",
        "config-list",
        "config-instance",
        "config-mode",
    ],
)
def test_cli_refusals_exit_2_with_a_message(argv, config, message, tmp_path, capsys):
    """Each refusal exits 2 with its message on stderr, nothing on stdout
    and no traceback: an exception that escaped `main` would fail the test."""
    args = argv.split()
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        if config != "missing":
            cfg_file.write_text(json.dumps(config))
        args += ["--config", str(cfg_file)]
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err, captured
    assert "Traceback" not in captured.err


def test_config_file_unknown_keys_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "typo.json"
    cfg_file.write_text(json.dumps({"instance": "rep2", "m": 2, "sampels": 5, "mdoe": "sampled"}))
    args = build_parser().parse_args(["rho-exact", "--config", str(cfg_file)])
    with pytest.raises(UsageError, match="unknown config keys: mdoe, sampels"):
        config_from_args(args)
    assert main(["rho-exact", "--config", str(cfg_file)]) == EXIT_USAGE
    assert "sampels" in capsys.readouterr().err


def test_rep2_rejects_rate_flag_and_config_key(tmp_path, capsys):
    """rep2 is one fixed code, so a rate would be silently ignored."""
    assert main(["rho-exact", "--instance", "rep2", "--m", "2", "--rate", "1/2"]) == EXIT_USAGE
    assert "--rate applies to the rs instance only" in capsys.readouterr().err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"instance": "rep2", "rate": [1, 2]}))
    args = build_parser().parse_args(["rho-exact", "--config", str(cfg_file)])
    with pytest.raises(UsageError, match="--rate"):
        config_from_args(args)


def test_rep2_rejects_t_flag_and_config_key(tmp_path, capsys):
    """rep2 lives over GF(2), so a field size would be silently ignored."""
    assert main(["rho-exact", "--instance", "rep2", "--m", "2", "--t", "3"]) == EXIT_USAGE
    assert "--t applies to the rs instance only" in capsys.readouterr().err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"instance": "rep2", "t": 3}))
    args = build_parser().parse_args(["rho-exact", "--config", str(cfg_file)])
    with pytest.raises(UsageError, match="--t"):
        config_from_args(args)


# ----------------------------------------------------------------------
# Certificates through the CLI.
# ----------------------------------------------------------------------

def test_certify_counterexample_writes_verifiable_file(tmp_path):
    out = tmp_path / "t1.cert"
    code, report = run_cli(
        ["certify-counterexample", "--instance", "rs", "--t", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    rec = json.loads(report.splitlines()[0])
    assert rec["value"] == "1/3" and rec["holds"] is True
    cert = ExpansionCertificate.from_text(out.read_text())
    fam = CodeFamily.power(rs_primitive(field_make(2), 1, 3), 3)
    assert verify_certificate(cert, fam)


def test_certify_counterexample_defaults_instance(tmp_path):
    out = tmp_path / "t1b.cert"
    code, _ = run_cli(["certify-counterexample", "--t", "1", "--out", str(out)])
    assert code == EXIT_OK and out.exists()


def test_certify_counterexample_rejects_other_m(tmp_path, capsys):
    """Only the m=3 witness exists: an explicit --m other than 3, from a flag
    or a config file, exits 2 and writes nothing; --m 3 and the default
    (no --m) certify the same bytes."""
    out = tmp_path / "c"
    assert main(["certify-counterexample", "--t", "1", "--m", "5", "--out", str(out)]) == EXIT_USAGE
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"m": 2}))
    argv = ["certify-counterexample", "--t", "1", "--config", str(cfg_file), "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert not out.exists()
    assert "--m must be 3" in capsys.readouterr().err
    certs, reports = [], []
    for extra in ([], ["--m", "3"]):
        certs.append(tmp_path / f"c{len(extra)}")
        argv = ["certify-counterexample", "--t", "1", *extra, "--out", str(certs[-1])]
        assert main(argv) == EXIT_OK
        reports.append(capsys.readouterr().out)
    assert certs[0].read_bytes() == certs[1].read_bytes()
    assert reports[0] == reports[1] and json.loads(reports[0])["holds"] is True


def test_certify_counterexample_requires_the_rate_third_triple(tmp_path, capsys):
    """`rs_triple_witness` decides: another rate or the rep2 instance exits 2,
    names the rate-1/3 RS triple on stderr and writes no file."""
    out = tmp_path / "F"
    for extra in (["--t", "2", "--rate", "1/5"], ["--instance", "rep2"]):
        assert main(["certify-counterexample", *extra, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "rate-1/3 RS triple" in captured.err and captured.out == ""
    assert not out.exists()


def _count_sum_membership_tests(monkeypatch, result=None):
    """Count every sum-code membership test; optionally force its answer."""
    import numpy as np

    from prodexp import tensor

    calls = []
    real = tensor.sum_contains_batch

    def counted(words, family):
        calls.append(family)
        if result is None:
            return real(words, family)
        return np.full(len(words), result)

    monkeypatch.setattr(tensor, "sum_contains_batch", counted)
    return calls


def test_certify_counterexample_tests_membership_once(tmp_path, monkeypatch):
    calls = _count_sum_membership_tests(monkeypatch)
    code, _ = run_cli(["certify-counterexample", "--t", "1", "--out", str(tmp_path / "c")])
    assert code == EXIT_OK and len(calls) == 1


def test_certify_counterexample_non_member_exits_1(tmp_path, monkeypatch):
    _count_sum_membership_tests(monkeypatch, result=False)
    out = tmp_path / "c"
    code, report = run_cli(["certify-counterexample", "--t", "1", "--out", str(out)])
    assert code == EXIT_VIOLATION and not out.exists()
    rec = json.loads(report.splitlines()[0])
    assert rec["holds"] is False and rec["value"] == ""
    assert "sum_contains_check_poly=false" in rec["detail"].split(";")


# ----------------------------------------------------------------------
# Other subcommands end to end.
# ----------------------------------------------------------------------

def test_rho_exact_cli_rep2():
    code, out = run_cli(["rho-exact", "--instance", "rep2", "--m", "2"])
    assert code == EXIT_OK
    rec = json.loads(out.splitlines()[0])
    assert rec["quantity"] == "rho" and rec["value"] == "1/2"


def test_rho_sampled_cli_gf4_triple():
    code, out = run_cli(
        ["rho-sampled", "--instance", "rs", "--t", "1", "--m", "3", "--samples", "4", "--seed", "3"]
    )
    assert code == EXIT_OK
    recs = [json.loads(line) for line in out.splitlines()]
    cert = [r for r in recs if r["mode"] == "certificate"]
    assert cert and Fraction(*map(int, cert[0]["value"].split("/"))) <= Fraction(1, 3)


def test_rho_sampled_cli_exact_split_record():
    """The certificate and sampled records keep their values; the third
    record is the witness's exact ratio, a valid upper bound on rho."""
    code, out = run_cli(["rho-sampled", "--instance", "rs", "--t", "1", "--m", "3", "--seed", "1"])
    assert code == EXIT_OK
    recs = {r["mode"]: r for r in map(json.loads, out.splitlines())}
    assert list(recs) == ["certificate", "sampled", "exact-split"]
    assert recs["certificate"]["value"] == "1/3" and recs["sampled"]["value"] == "3/11"
    assert recs["exact-split"]["value"] == "3/11"
    assert recs["exact-split"]["detail"] == "words_split_exactly=8"


def test_agreement_cli_exact():
    code, out = run_cli(["agreement", "--instance", "rep2", "--m", "2", "--mode", "exact"])
    assert code == EXIT_OK
    rec = json.loads(out.splitlines()[0])
    assert rec["value"] == "1/2"


def test_agreement_cli_sampled_deterministic():
    argv = ["agreement", "--instance", "rs", "--t", "1", "--m", "2", "--mode", "sampled"]
    argv += ["--samples", "4", "--seed", "3"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    (rec,) = [json.loads(line) for line in out1.splitlines()]
    assert rec["mode"] == "sampled" and rec["value"] == "1/2"
    assert "estimate=heuristic" in rec["detail"].split(";")


def test_agreement_cli_sampled_beyond_decoding_radius_exits_0():
    """No iterated decode of these RS[15,5]^2 tuples reaches the product
    code; the systematically re-encoded candidate always does."""
    argv = ["agreement", "--instance", "rs", "--t", "2", "--m", "2", "--mode", "sampled"]
    code, out = run_cli(argv + ["--samples", "4", "--seed", "3"])
    assert code == EXIT_OK
    (rec,) = [json.loads(line) for line in out.splitlines()]
    assert rec["value"] == "208/375"
    assert rec["detail"] == "tuples_used=4;estimate=heuristic"


def test_rho_exact_refuses_oversized_instance(capsys):
    # rep2 m=4 would scan 2^15 sum-code words times 2^17 splittings each
    start = time.perf_counter()
    assert main(["rho-exact", "--instance", "rep2", "--m", "4"]) == EXIT_USAGE
    assert time.perf_counter() - start < 30
    assert "too large" in capsys.readouterr().err


def test_ps_corollary_cli():
    code, out = run_cli(
        ["ps-corollary", "--instance", "rs", "--t", "2", "--trials", "20", "--seed", "4"]
    )
    assert code == EXIT_OK
    rec = json.loads(out.splitlines()[0])
    assert rec["holds"] is True


def test_constants_cli_csv_header_fixed():
    code, out = run_cli(["constants", "--m", "4", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "kind,quantity,value,mode,instance,test,seed,samples,holds,detail"
    assert any("rho^8/576" in line for line in lines)


def test_parser_built_once_serves_a_refused_and_a_valid_command():
    """`build_parser` is cached for the process: a refused parse (exit 2)
    through `main` leaves the parser as it was, so the next command in the
    same process prints what it prints in a fresh process."""
    argv = ["robustness", "--instance", "rep2", "--m", "2", "--mode", "exact"]
    script = (
        "import sys\n"
        "from prodexp.harness import build_parser, main\n"
        "parser = build_parser()\n"
        "assert main(['robustness', '--bogus']) == 2\n"
        "assert build_parser() is parser\n"
        f"sys.exit(main({argv!r}))\n"
    )
    run_here = dict(
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    both = subprocess.run([sys.executable, "-c", script], **run_here)
    fresh = subprocess.run([sys.executable, "-m", "prodexp", *argv], **run_here)
    assert both.returncode == fresh.returncode == EXIT_OK, both.stderr
    assert "unrecognized arguments: --bogus" in both.stderr
    assert both.stdout == fresh.stdout and '"quantity":"rho_r"' in fresh.stdout


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "prodexp", "constants", "--m", "3"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert '"value":"1/2916"' in proc.stdout
