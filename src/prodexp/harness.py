"""Command-line harness: experiment configuration, dispatch, report emission.

Subcommands (one per claim family):

  certify-counterexample  build + verify the non-expanding witness, write its
                          certificate file
  rho-exact               exact expansion constant (tiny instances)
  rho-sampled             sampled expansion upper bounds
  robustness              exact or sampled flat-test robustness
  agreement               exact or sampled agreement testability
  check-lemmas            the exact checks of `testability.check_lemmas`; past
                          the word-space guard, the pool composition check (m >= 3)
  ps-corollary            planted pair-proximity conformance trials
  constants               closed-form robustness/agreement constants

Exit codes: 0 success, 1 some check reported a violation, 2 usage error.
Reports are deterministic: fixed field order, exact fractions as "p/q",
seeds and sample counts always recorded.  Flags win over the optional JSON
config file; environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from io import StringIO
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, get_args, get_type_hints

from .codes import CyclicCode, repetition, rs_primitive
from .expansion import (
    NotInSumCode,
    certify_upper_bound,
    line_disjoint_support,
    rho_exact,
    rho_upper_sampled,
    rs_triple_witness,
    sum_contains,  # not called here; perfbench/tests removes harness.sum_contains by name
)
from .gf_poly import field_make
from .tensor import CodeFamily
from .testability import (
    CheckReport,
    FlatTest,
    check_composition,
    check_lemmas,
    check_pair_proximity,
    derived_constants,
    rho_a_exact,
    rho_a_sampled,
    rho_r_exact,
    rho_r_sampled_upper,
    word_space_enumerable,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

class UsageError(Exception):
    pass


def _open_out(path: str):
    """`path` opened for writing; a path that cannot be opened is a usage error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


@dataclass
class ExperimentConfig:
    """Resolved invocation: instance, mode, sampling, and output options."""

    command: str
    instance: Optional[str] = None
    t: Optional[int] = None
    rate: Tuple[int, int] = (1, 3)
    m: int = 2
    k: int = 1
    mode: str = "exact"
    samples: Optional[int] = None
    trials: int = 1000
    seed: Optional[int] = None
    fmt: str = "jsonlines"
    out: Optional[str] = None

    def validate(self) -> None:
        if self.m < 2:
            raise UsageError("--m must be at least 2")
        if self.trials < 1:
            raise UsageError("--trials must be at least 1")
        if self.samples is not None and self.samples < 0:
            raise UsageError("--samples must not be negative")
        if self.mode not in ("exact", "sampled"):
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and self.seed is None:
            raise UsageError("sampled mode requires --seed")
        if self.mode == "exact" and self.command in ("robustness", "agreement"):
            if self.seed is not None or self.samples is not None:
                raise UsageError("exact mode rejects --seed/--samples")


# ----------------------------------------------------------------------
# Report records.
# ----------------------------------------------------------------------

def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _detail_str(items: Dict[str, str]) -> str:
    return ";".join(f"{k}={v}" for k, v in items.items())


class Record(NamedTuple):
    """One report record; the fields are in output order."""

    kind: str
    quantity: str = ""
    value: str = ""
    mode: str = ""
    instance: str = ""
    test: str = ""
    seed: Optional[int] = None
    samples: Optional[int] = None
    holds: Optional[bool] = None
    detail: str = ""


def _value_record(quantity: str, value: Fraction, mode: str, instance: str, **extra) -> Record:
    """The record of one estimated or exactly computed constant."""
    return Record("test", quantity, frac_str(value), mode, instance, **extra)


def records_from_check(rep: CheckReport) -> List[Record]:
    out = []
    quantities = _detail_str({k: frac_str(v) for k, v in rep.quantities.items()})
    for desc, lhs, rhs in rep.inequalities:
        out.append(
            Record(
                kind="check",
                quantity=f"{rep.name}:{desc}",
                value=f"{frac_str(lhs)}>=:{frac_str(rhs)}",
                mode=rep.mode,
                instance=rep.instance,
                seed=rep.seed,
                samples=rep.sample_count,
                holds=lhs >= rhs,
                detail=quantities,
            )
        )
    return out


def emit_report(records: Sequence[Record], fmt: str, stream) -> None:
    """Serialize records in `Record`'s field order."""
    if fmt == "jsonlines":
        for rec in records:
            stream.write(json.dumps(rec._asdict(), separators=(",", ":")) + "\n")
    elif fmt == "csv":
        stream.write(",".join(Record._fields) + "\n")
        for rec in records:
            row = []
            for v in rec:
                if v is None:
                    row.append("")
                elif isinstance(v, bool):
                    row.append("true" if v else "false")
                else:
                    row.append(str(v).replace(",", ";"))
            stream.write(",".join(row) + "\n")
    else:
        raise UsageError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------------
# Instance construction.
# ----------------------------------------------------------------------

def _build_code(cfg: ExperimentConfig) -> CyclicCode:
    if cfg.instance == "rep2":
        return repetition(field_make(1), 2)
    if cfg.instance == "rs":
        if cfg.t is None:
            raise UsageError("--t is required for the rs instance")
        field = field_make(2 * cfg.t)
        return rs_primitive(field, cfg.rate[0], cfg.rate[1])
    raise UsageError(f"unknown instance {cfg.instance!r}; choose rep2 or rs")


def _build_family(cfg: ExperimentConfig) -> CodeFamily:
    return CodeFamily.power(_build_code(cfg), cfg.m)


# ----------------------------------------------------------------------
# Subcommand runners.  Each returns (exit_code, records).
# ----------------------------------------------------------------------

def _run_certify_counterexample(cfg: ExperimentConfig):
    family = CodeFamily.power(_build_code(replace(cfg, instance=cfg.instance or "rs")), 3)
    n = family.shape[0]
    word = rs_triple_witness(family)
    if word is None:
        raise UsageError(f"the witness requires the rate-1/3 RS triple, not {family.label()}")
    try:
        # the one sum-code membership test of the run
        cert = certify_upper_bound(word, family)
    except NotInSumCode:
        cert = None
    in_sum = cert is not None
    support_ok = word.weight() == n * n
    disjoint = cert.line_disjoint if in_sum else line_disjoint_support(word)
    ok = in_sum and support_ok and disjoint
    records = [
        Record(
            kind="certificate",
            quantity="rho",
            value=frac_str(cert.bound) if ok else "",
            mode="certificate",
            instance=family.label(),
            detail=_detail_str(
                {
                    "sum_contains_check_poly": str(in_sum).lower(),
                    "support": str(word.weight()),
                    "expected_support": str(n * n),
                    "line_disjoint": str(disjoint).lower(),
                }
            ),
            holds=ok,
        )
    ]
    if not ok:
        return EXIT_VIOLATION, records
    with _open_out(cfg.out or f"counterexample_t{cfg.t}.cert") as fh:
        fh.writelines(cert.text_blocks())
    return EXIT_OK, records


def _run_rho_exact(cfg: ExperimentConfig):
    family = _build_family(cfg)
    return EXIT_OK, [_value_record("rho", rho_exact(family), "exact", family.label())]


def _run_rho_sampled(cfg: ExperimentConfig):
    if cfg.seed is None:
        raise UsageError("rho-sampled requires --seed")
    family = _build_family(cfg)
    samples = cfg.samples if cfg.samples is not None else 32
    rep = rho_upper_sampled(family, samples, cfg.seed)
    records = [
        _value_record(
            "rho", value, mode, rep.instance, seed=rep.seed, samples=rep.sample_count, detail=detail
        )
        for value, mode, detail in (
            (rep.certified_bound, "certificate", "upper_bound=min_certificate_ratio"),
            (rep.heuristic_min, "sampled", "heuristic=best_found_decomposition"),
            (rep.exact_split_bound, "exact-split", f"words_split_exactly={rep.exact_split_words}"),
        )
        if value is not None
    ]
    return EXIT_OK, records


def _run_robustness(cfg: ExperimentConfig):
    family = _build_family(cfg)
    test = FlatTest.build(family.shape, cfg.k)
    if cfg.mode == "exact":
        value = rho_r_exact(test, family)
        return EXIT_OK, [_value_record("rho_r", value, "exact", family.label(), test=test.label())]
    if cfg.k != 1:
        raise UsageError("sampled robustness is implemented for the line test only")
    samples = cfg.samples if cfg.samples is not None else 100
    rep = rho_r_sampled_upper(test, family, samples, cfg.seed)
    record = _value_record(
        "rho_r",
        rep.value,
        "sampled",
        rep.instance,
        test=rep.test,
        seed=rep.seed,
        samples=rep.sample_count,
        detail=_detail_str({"pool": str(len(rep.ratios)), "skipped": str(rep.skipped)}),
    )
    return EXIT_OK, [record]


def _run_agreement(cfg: ExperimentConfig):
    family = _build_family(cfg)
    if cfg.mode == "exact":
        return EXIT_OK, [_value_record("rho_a", rho_a_exact(family), "exact", family.label())]
    samples = cfg.samples if cfg.samples is not None else 32
    best, used = rho_a_sampled(family, samples, cfg.seed)
    record = _value_record(
        "rho_a",
        best,
        "sampled",
        family.label(),
        seed=cfg.seed,
        samples=samples,
        detail=_detail_str({"tuples_used": str(used), "estimate": "heuristic"}),
    )
    return EXIT_OK, [record]


def _run_check_lemmas(cfg: ExperimentConfig):
    code = _build_code(cfg)
    if word_space_enumerable(CodeFamily.power(code, cfg.m)):
        if cfg.seed is not None or cfg.samples is not None:
            raise UsageError("the exact checks reject --seed/--samples")
        reports = check_lemmas(code, cfg.m)
    elif cfg.m >= 3:
        seed = cfg.seed if cfg.seed is not None else 0
        samples = cfg.samples if cfg.samples is not None else 32
        reports = [check_composition(code, cfg.m, 1, 2, samples, seed)]
    else:
        raise UsageError("instance too large for the exact checks")
    records = [rec for rep in reports for rec in records_from_check(rep)]
    return (EXIT_OK if all(rep.holds for rep in reports) else EXIT_VIOLATION), records


def _run_ps_corollary(cfg: ExperimentConfig):
    code = _build_code(cfg)
    seed = cfg.seed if cfg.seed is not None else 0
    rep = check_pair_proximity(code, cfg.trials, seed)
    rec = Record(
        kind="check",
        quantity="pair_proximity",
        value=f"failures={rep.failures}",
        mode="sampled",
        instance=rep.instance,
        seed=rep.seed,
        samples=rep.trials,
        holds=rep.holds,
        detail=_detail_str(
            {
                "line_budget": str(rep.line_budget),
                "max_observed_delta": frac_str(rep.max_observed_delta),
            }
        ),
    )
    return (EXIT_OK if rep.holds else EXIT_VIOLATION), [rec]


def _run_constants(cfg: ExperimentConfig):
    c = derived_constants(cfg.m)
    records = [
        Record(
            kind="constants", quantity=quantity, value=value, mode="exact", instance=f"m={cfg.m}"
        )
        for quantity, value in (
            ("M", str(c.M)),
            ("alpha_r", frac_str(c.alpha_r)),
            ("alpha_a", frac_str(c.alpha_a)),
            ("alpha", f"rho^{c.alpha_exponent}/{c.alpha_denominator}"),
        )
    ]
    return EXIT_OK, records


_RUNNERS = {
    "certify-counterexample": _run_certify_counterexample,
    "rho-exact": _run_rho_exact,
    "rho-sampled": _run_rho_sampled,
    "robustness": _run_robustness,
    "agreement": _run_agreement,
    "check-lemmas": _run_check_lemmas,
    "ps-corollary": _run_ps_corollary,
    "constants": _run_constants,
}


def run(config: ExperimentConfig, stream=None) -> int:
    """Dispatch a validated config; write reports; return the exit code."""
    config.validate()
    code, records = _RUNNERS[config.command](config)
    buf = StringIO()
    emit_report(records, config.fmt, buf)
    payload = buf.getvalue()
    if config.command != "certify-counterexample" and config.out:
        with _open_out(config.out) as fh:
            fh.write(payload)
    elif stream is not None:
        stream.write(payload)
    else:
        sys.stdout.write(payload)
    return code


# ----------------------------------------------------------------------
# Argument parsing.
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="prodexp",
        description="Product-code expansion and testability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, instance=True, m=True, sampling=True):
        if instance:
            p.add_argument("--instance", choices=("rep2", "rs"), default=None)
            p.add_argument("--t", type=int, default=None, help="field GF(2^(2t))")
            p.add_argument("--rate", default=None, help="code rate p/q (default 1/3)")
        if m:
            p.add_argument("--m", type=int, default=None, help="number of factors")
        if sampling:
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", dest="fmt", choices=("jsonlines", "csv"), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None, help="JSON config file; flags win")

    p = sub.add_parser("certify-counterexample", help="non-expanding witness certificate")
    add_common(p, sampling=False)

    p = sub.add_parser("rho-exact", help="exact expansion constant (tiny instances)")
    add_common(p, sampling=False)

    p = sub.add_parser("rho-sampled", help="sampled expansion upper bounds")
    add_common(p)

    p = sub.add_parser("robustness", help="flat-test robustness")
    add_common(p)
    p.add_argument("--k", type=int, default=None, help="flat dimension (default 1)")
    p.add_argument("--mode", choices=("exact", "sampled"), default=None)

    p = sub.add_parser("agreement", help="agreement testability")
    add_common(p)
    p.add_argument("--mode", choices=("exact", "sampled"), default=None)

    p = sub.add_parser("check-lemmas", help="run the applicable inequality checks")
    add_common(p)

    p = sub.add_parser("ps-corollary", help="planted pair-proximity trials")
    add_common(p, m=False, sampling=False)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("constants", help="closed-form constants for m factors")
    add_common(p, instance=False, sampling=False)

    return parser


def _parse_rate(text: str) -> Tuple[int, int]:
    num, _, den = text.partition("/")
    try:
        return int(num), int(den)
    except ValueError as exc:
        raise UsageError(f"bad rate {text!r}; expected p/q") from exc


def _int(val: object) -> int:
    """An integer config value: JSON true or 2.7 is refused, not coerced."""
    if isinstance(val, (bool, float)):
        raise TypeError(f"not an integer: {val!r}")
    return int(val)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: Dict[str, object] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold one JSON object")
        # a key must name a flag of this subcommand: no other is read
        unknown = sorted(set(loaded) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        values.update(loaded)
    for key, val in vars(args).items():
        if key in ("config",):
            continue
        if val is not None:
            values[key] = val
    hints = get_type_hints(ExperimentConfig)
    resolved: Dict[str, object] = {}
    for f in fields(ExperimentConfig):
        if f.name not in values:
            continue
        val = values[f.name]
        try:
            if f.name == "rate":
                resolved[f.name] = (
                    _parse_rate(val) if isinstance(val, str) else (_int(val[0]), _int(val[1]))
                )
            elif int in (hints[f.name], *get_args(hints[f.name])):
                resolved[f.name] = _int(val)
            else:
                resolved[f.name] = str(val)
        except (TypeError, ValueError, IndexError) as exc:
            raise UsageError(f"bad value {val!r} for {f.name}") from exc
    if "rate" in resolved and resolved["rate"][1] < 1:
        raise UsageError(f"bad rate {values['rate']!r}: the denominator must be at least 1")
    # rep2 is one fixed code: a field or a rate would be silently ignored
    ignored = [name for name in ("t", "rate") if name in resolved]
    if resolved.get("instance") == "rep2" and ignored:
        raise UsageError(f"--{ignored[0]} applies to the rs instance only")
    # the witness is built for three factors only; the default m = 2 is not a request
    if resolved["command"] == "certify-counterexample" and resolved.get("m", 3) != 3:
        raise UsageError("certify-counterexample builds the m=3 witness; --m must be 3")
    return ExperimentConfig(**resolved)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
