"""The four benchmark workloads: instance set-up, one round of program calls,
and the checks of a round's outputs against values made apart from the
program (`reference.py` and the closed forms below).

A workload object is built by set-up (timed as `setup_s`); `round(op)` runs
the same program calls every time and returns their outputs; `check(out)`
returns a list of problems, empty when every output is right.  Every call
into the program goes through a module attribute, so the tracer's wrappers
see it.  Set-up imports the program and builds only what the rounds reuse:
the decode and verify workloads' codes and family, and for the workloads
driven through `harness.main` the fields (`gf_poly.field_make` is cached, so
every round finds them built).  Each CLI call builds its own codes and
family inside the timed round, as every CLI invocation does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

import numpy as np

from prodexp import codes, expansion, gf_poly, harness, tensor, testability

import reference

FAILED = object()  # the output of an operation that raised


def _frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))


class CommandError(Exception):
    """A command that exited with the usage-error code."""


def run_cli(argv: List[str]):
    """`prodexp` in process: (exit code, report text on stdout).

    `harness.main` turns every error raised inside the program into the
    usage-error exit code, so on these fixed, valid command lines that code
    is raised as an error and counted as a failed operation.  Exit code 1,
    a property that does not hold, is an output for the checks."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = harness.main(argv)
    if rc == harness.EXIT_USAGE:
        raise CommandError(f"prodexp {' '.join(argv)} exited {rc}")
    return rc, buf.getvalue()


def _records(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


# ----------------------------------------------------------------------
# decode-rs63: per-line bounded-distance decoding at n = 63.
# ----------------------------------------------------------------------

class DecodeRS63:
    """`robustness --mode sampled --t 3` and `ps-corollary --t 3` as library
    calls: the line test on RS[63,21]^2 over an adversarial pool plus
    SAMPLES uniform words, and TRIALS planted pair-proximity trials."""

    SAMPLES = 4
    TRIALS = 20
    OPS = 2

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        field = gf_poly.field_make(6)
        self.code = codes.rs_primitive(field, 1, 3)
        self.family = tensor.CodeFamily.power(self.code, 2)
        self.test = testability.line_test(self.family.shape)

    def round(self, op: Callable):
        pool = op(
            "rho_r_sampled_upper",
            testability.rho_r_sampled_upper,
            self.test,
            self.family,
            self.SAMPLES,
            self.seed,
        )
        pairs = op(
            "check_pair_proximity",
            testability.check_pair_proximity,
            self.code,
            self.TRIALS,
            self.seed + 1,
        )
        return pool, pairs

    def check(self, out) -> List[str]:
        pool, pairs = out
        problems: List[str] = []
        if pool is not FAILED:
            problems += check_decode_pool(pool, self.SAMPLES)
        if pairs is not FAILED:
            problems += check_pair_proximity(pairs, self.TRIALS)
        return problems


def check_decode_pool(rep, samples: int) -> List[str]:
    """A single replaced line puts one error on each crossing line, so
    E = wt(e)/2n^2 against delta = wt(e)/n^2: every line-corrupt ratio is 1/2.
    A diagonal word has one error on every line: E = delta, ratio 1.  No
    ratio may fall below the square's line-test robustness floor 1/72."""
    problems = []
    ratios = dict(rep.ratios)
    if rep.skipped != 0:
        problems.append(f"pool: skipped {rep.skipped} codewords, expected 0")
    corrupt = {k: v for k, v in ratios.items() if k.startswith("line-corrupt-")}
    if not corrupt:
        problems.append("pool: no line-corrupt words")
    for name, r in corrupt.items():
        if r != Fraction(1, 2):
            problems.append(f"pool: {name} ratio {r}, expected 1/2")
    for name in ("diagonal", "diagonal-scaled"):
        if ratios.get(name) != 1:
            problems.append(f"pool: {name} ratio {ratios.get(name)}, expected 1")
    uniform = [k for k in ratios if k.startswith("uniform-")]
    if len(uniform) != samples:
        problems.append(f"pool: {len(uniform)} uniform words, expected {samples}")
    low = [k for k, v in ratios.items() if v < Fraction(1, 72)]
    if low:
        problems.append(f"pool: ratios below 1/72: {low}")
    if ratios and rep.value != min(ratios.values()):
        problems.append(f"pool: value {rep.value} is not the minimum ratio")
    return problems


def check_pair_proximity(rep, trials: int) -> List[str]:
    """RS[63,21]: (1/2 - 1/3)^2 = 1/36, so floor(63^2/36) = 110 cells give a
    budget of one whole line, and no pair may differ in more than 1/36."""
    problems = []
    if rep.trials != trials:
        problems.append(f"pairs: {rep.trials} trials, expected {trials}")
    if rep.failures != 0:
        problems.append(f"pairs: {rep.failures} failures, expected 0")
    if rep.line_budget != 1:
        problems.append(f"pairs: line budget {rep.line_budget}, expected 1")
    if rep.max_observed_delta > Fraction(1, 36):
        problems.append(f"pairs: max delta {rep.max_observed_delta} above 1/36")
    return problems


# ----------------------------------------------------------------------
# certify-rs255 and verify-rs255: the witness certificate at GF(256).
# ----------------------------------------------------------------------

T_PAPER = 4  # GF(2^8), n = 255


def _rs_family(t: int):
    field = gf_poly.field_make(2 * t)
    return tensor.CodeFamily.power(codes.rs_primitive(field, 1, 3), 3)


def flip_one_witness_cell(text: str) -> str:
    """A v1 certificate text with its first nonzero witness entry changed to
    another nonzero value: the weight, the support and so the line cover stay
    the same, and only the sum-code membership test can reject it."""
    shape = text.index("\nwitness\n") + len("\nwitness\n")
    row = text.index("\n", shape) + 1
    end = text.index("\n", row)
    m = int(text[shape:row].rsplit("^", 1)[1])  # "shape n n n field 2^m"
    vals = text[row:end].split(" ")
    col = next(i for i, v in enumerate(vals) if v != "0")
    vals[col] = format(int(vals[col], 16) % ((1 << m) - 1) + 1, "x")
    return text[:row] + " ".join(vals) + text[end:]


def check_certificate(cert, t: int) -> List[str]:
    """Compare a parsed certificate with the benchmark's own construction."""
    problems = []
    want = reference.certificate_fields(t)
    for key in ("bound", "cover_lower_bound", "line_disjoint", "tight"):
        got = getattr(cert, key)
        if got != want[key]:
            problems.append(f"certificate: {key} {got}, expected {want[key]}")
    if not np.array_equal(np.asarray(cert.witness.data), reference.witness(t)):
        problems.append(f"certificate: witness differs from the GF(2^{2 * t}) construction")
    return problems


def check_certify_output(rc: int, stdout: str, cert_text: str, t: int) -> List[str]:
    """Exit code and report of `certify-counterexample`, then the written
    certificate read back through the program's public reader."""
    n = (1 << (2 * t)) - 1
    problems = []
    if rc != 0:
        problems.append(f"certify: exit code {rc}")
    recs = _records(stdout)
    if len(recs) != 1 or recs[0].get("holds") is not True or recs[0].get("value") != f"1/{n}":
        problems.append(f"certify: report {recs}, expected one holding record of value 1/{n}")
    try:
        cert = expansion.ExpansionCertificate.from_text(cert_text)
    except ValueError as exc:
        return problems + [f"certify: certificate unreadable: {exc}"]
    return problems + check_certificate(cert, t)


class CertifyRS255:
    """`prodexp certify-counterexample --t 4 --out FILE` through `harness.main`."""

    OPS = 1

    def __init__(self, root: Path, seed: int) -> None:
        gf_poly.field_make(2 * T_PAPER)
        self.out_dir = root / "perfbench" / "out" / "tmp"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.rounds = 0

    def round(self, op: Callable):
        self.rounds += 1
        path = self.out_dir / f"certify-{os.getpid()}-{self.rounds}.cert"
        argv = ["certify-counterexample", "--t", str(T_PAPER), "--out", str(path)]
        return op("certify-counterexample", run_cli, argv), path

    def check(self, out) -> List[str]:
        result, path = out
        try:
            if result is FAILED:
                return []
            if not path.is_file():
                return [f"certify: no certificate written at {path}"]
            rc, stdout = result
            return check_certify_output(rc, stdout, path.read_text(), T_PAPER)
        finally:
            path.unlink(missing_ok=True)


class VerifyRS255:
    """`ExpansionCertificate.from_text` plus `verify_certificate` on the v1
    certificate that `reference.py` wrote (see `run.py`).  The check, outside
    the timed round, also gives the verifier a certificate with one witness
    cell changed, which it must reject: a verifier that skipped the sum-code
    membership test would otherwise pass.  That certificate is the
    benchmark's own at t = 3 (RS[63,21]^3): at t = 4 the rejection would
    cost another ~20 s per run, at t = 3 it costs ~0.2 s."""

    OPS = 1
    NEGATIVE_T = 3

    def __init__(self, root: Path, seed: int) -> None:
        self.t = T_PAPER
        self.family = _rs_family(T_PAPER)
        self.path = root / "perfbench" / "out" / "input" / "v1-t4.cert"

    def load(self) -> None:
        self.text = self.path.read_text()

    def _verify(self, text: str):
        cert = expansion.ExpansionCertificate.from_text(text)
        return cert, expansion.verify_certificate(cert, self.family)

    def round(self, op: Callable):
        return op("verify_certificate", self._verify, self.text)

    def check(self, out) -> List[str]:
        if out is FAILED:
            return []
        cert, ok = out
        problems = [] if ok is True else [f"verify: verify_certificate returned {ok!r}"]
        want = reference.certificate_fields(self.t)
        if cert.bound != want["bound"] or cert.cover_lower_bound != want["cover_lower_bound"]:
            problems.append(f"verify: parsed bound {cert.bound}, cover {cert.cover_lower_bound}")
        bad = expansion.ExpansionCertificate.from_text(
            flip_one_witness_cell(reference.v1_certificate_text(self.NEGATIVE_T))
        )
        ok = expansion.verify_certificate(bad, _rs_family(self.NEGATIVE_T))
        if ok is not False:
            problems.append(f"verify: one changed witness cell, verify_certificate returned {ok!r}")
        return problems


# ----------------------------------------------------------------------
# exact-small: full enumeration on tiny instances.
# ----------------------------------------------------------------------

# (key into reference.EXACT_EXPECTED, command line)
EXACT_COMMANDS = (
    ("rho rep2 m=3", "rho-exact --instance rep2 --m 3"),
    ("rho rs t=1 m=2", "rho-exact --instance rs --t 1 --m 2"),
    ("rho_r rs t=1 m=2 k=1", "robustness --instance rs --t 1 --m 2 --mode exact"),
    ("rho_r rep2 m=4 k=1", "robustness --instance rep2 --m 4 --k 1 --mode exact"),
    ("rho_r rep2 m=4 k=3", "robustness --instance rep2 --m 4 --k 3 --mode exact"),
    ("rho_a rep2 m=3", "agreement --instance rep2 --m 3 --mode exact"),
    ("rho_a rs t=1 m=2", "agreement --instance rs --t 1 --m 2 --mode exact"),
    ("check-lemmas", "check-lemmas --instance rep2 --m 3"),
    ("rho-sampled", "rho-sampled --instance rs --t 1 --m 3 --seed {seed}"),
)

# check-lemmas quantity names -> keys of reference.EXACT_EXPECTED
LEMMA_QUANTITIES = {
    "rho_r_T1": "rho_r rep2 m=3 k=1",
    "rho_r_T3^1": "rho_r rep2 m=3 k=1",
    "rho_a": "rho_a rep2 m=3",
    "min_delta": "delta rep2",
    "delta": "delta rep2",
    "rho_r_T2^1": "rho_r rep2 m=2 k=1",
    "rho_r_T21": "rho_r rep2 m=2 k=1",
    "rho_r_T3^2": "rho_r rep2 m=3 k=2",
}


def check_exact_value(key: str, rc: int, stdout: str) -> List[str]:
    recs = _records(stdout)
    want = reference.EXACT_EXPECTED[key]
    if rc != 0 or len(recs) != 1 or recs[0].get("mode") != "exact" or recs[0].get("value") != want:
        return [f"{key}: exit {rc}, report {recs}, expected exact value {want}"]
    return []


def check_lemmas(rc: int, stdout: str) -> List[str]:
    problems = [] if rc == 0 else [f"check-lemmas: exit code {rc}"]
    seen = set()
    for rec in _records(stdout):
        lhs, _, rhs = rec["value"].partition(">=:")
        if rec.get("holds") is not True or not _frac(lhs) >= _frac(rhs):
            problems.append(f"check-lemmas: {rec['quantity']} does not hold: {rec['value']}")
        for item in filter(None, rec.get("detail", "").split(";")):
            name, _, value = item.partition("=")
            if name in LEMMA_QUANTITIES:
                seen.add(name)
                want = reference.EXACT_EXPECTED[LEMMA_QUANTITIES[name]]
                if _frac(value) != _frac(want):
                    problems.append(f"check-lemmas: {name}={value}, oracle {want}")
    missing = {"rho_r_T1", "rho_a", "min_delta", "rho_r_T2^1", "rho_r_T3^2"} - seen
    if missing:
        problems.append(f"check-lemmas: quantities missing: {sorted(missing)}")
    return problems


def check_rho_sampled(rc: int, stdout: str, seed: int) -> List[str]:
    """No brute-force oracle reaches GF(4)^27, so the two values are checked
    against what the definitions force.  A certificate ratio is
    (wt/27) * 9 / L with L <= wt, so it is at least 1/3, with equality on the
    line-disjoint witness in the pool: the certified value is exactly 1/3.
    The heuristic includes the witness's exact ratio 1/3 and every splitting
    costs at most 3, so it lies in [1/81, 1/3]."""
    recs = {r.get("mode"): r for r in _records(stdout)}
    problems = [] if rc == 0 else [f"rho-sampled: exit code {rc}"]
    cert, heur = recs.get("certificate"), recs.get("sampled")
    if cert is None or cert.get("value") != "1/3" or cert.get("seed") != seed:
        problems.append(f"rho-sampled: certificate record {cert}, expected 1/3 at seed {seed}")
    if heur is None or not Fraction(1, 81) <= _frac(heur["value"]) <= Fraction(1, 3):
        problems.append(f"rho-sampled: heuristic record {heur}, expected within [1/81, 1/3]")
    return problems


class ExactSmall:
    """Nine CLI commands through `harness.main`, all full enumeration but
    `rho-sampled`, whose seed is the workload seed."""

    OPS = len(EXACT_COMMANDS)

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        gf_poly.field_make(1)  # rep2
        gf_poly.field_make(2)  # rs t=1

    def round(self, op: Callable):
        return [
            (key, op(key, run_cli, cmd.format(seed=self.seed).split()))
            for key, cmd in EXACT_COMMANDS
        ]

    def check(self, out) -> List[str]:
        problems: List[str] = []
        for key, result in out:
            if result is FAILED:
                continue
            rc, stdout = result
            if key == "check-lemmas":
                problems += check_lemmas(rc, stdout)
            elif key == "rho-sampled":
                problems += check_rho_sampled(rc, stdout, self.seed)
            else:
                problems += check_exact_value(key, rc, stdout)
        return problems


WORKLOADS = {
    "decode-rs63": DecodeRS63,
    "certify-rs255": CertifyRS255,
    "verify-rs255": VerifyRS255,
    "exact-small": ExactSmall,
}
