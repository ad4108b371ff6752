"""Golden reports: the stdout and exit code of fixed CLI configurations, and
the SHA-256 of every certificate they write, compared byte for byte with the
files in `tests/golden/`.

A change that alters a report on purpose regenerates the corpus and lists
every changed line in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The t=4 certificate (33 MB) is left out: `perfbench/reference.py` pins its
hash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from prodexp import harness, tensor

GOLDEN = Path(__file__).resolve().parent / "golden"
INDEX = GOLDEN / "index.json"

# name -> command line; {out} is a fresh certificate path
CASES = {
    "certify-t1": "certify-counterexample --t 1 --out {out}",
    "certify-t2": "certify-counterexample --t 2 --out {out}",
    "certify-t3": "certify-counterexample --t 3 --out {out}",
    "certify-rs-t1-m3": "certify-counterexample --instance rs --t 1 --m 3 --out {out}",
    "certify-t1-non-member": "certify-counterexample --t 1 --out {out}",
    "rho-exact-rep2-m2": "rho-exact --instance rep2 --m 2",
    "rho-exact-rep2-m3": "rho-exact --instance rep2 --m 3",
    "rho-exact-rs-t1-m2": "rho-exact --instance rs --t 1 --m 2",
    "rho-exact-rs-no-t": "rho-exact --instance rs",
    "rho-sampled-rs-t1-m3-s32": "rho-sampled --instance rs --t 1 --m 3 --samples 32 --seed 7",
    "rho-sampled-rs-t1-m3-s4": "rho-sampled --instance rs --t 1 --m 3 --samples 4 --seed 3",
    "rho-sampled-rep2-m3": "rho-sampled --instance rep2 --m 3 --samples 8 --seed 1",
    "rho-sampled-rs-t2-m3": "rho-sampled --instance rs --t 2 --m 3 --samples 4 --seed 5",
    "rho-sampled-rep2-m4": "rho-sampled --instance rep2 --m 4 --samples 8 --seed 2",
    "robustness-exact-rs-t1-m2": "robustness --instance rs --t 1 --m 2 --mode exact",
    "robustness-exact-rep2-m4-k1": "robustness --instance rep2 --m 4 --k 1 --mode exact",
    "robustness-exact-rep2-m4-k3": "robustness --instance rep2 --m 4 --k 3 --mode exact",
    "robustness-rs-t2-m3": "robustness --instance rs --t 2 --m 3 --mode sampled --samples 4 --seed 9",
    "robustness-rs-t1-m3": "robustness --instance rs --t 1 --m 3 --mode sampled --samples 8 --seed 1",
    "robustness-rs-t2-m2": "robustness --instance rs --t 2 --m 2 --mode sampled --samples 20 --seed 9",
    "robustness-rs-t3-m2": "robustness --instance rs --t 3 --m 2 --mode sampled --samples 4 --seed 11",
    "agreement-exact-rep2-m3": "agreement --instance rep2 --m 3 --mode exact",
    "agreement-exact-rs-t1-m2": "agreement --instance rs --t 1 --m 2 --mode exact",
    "agreement-rep2-m3": "agreement --instance rep2 --m 3 --mode sampled --samples 8 --seed 1",
    "agreement-rs-t1-m3": "agreement --instance rs --t 1 --m 3 --mode sampled --samples 8 --seed 2",
    "agreement-rs-t2-m2": "agreement --instance rs --t 2 --m 2 --mode sampled --samples 4 --seed 3",
    "agreement-rs-t3-m2": "agreement --instance rs --t 3 --m 2 --mode sampled --samples 2 --seed 4",
    "check-lemmas-rep2-m2": "check-lemmas --instance rep2 --m 2",
    "check-lemmas-rep2-m3": "check-lemmas --instance rep2 --m 3",
    "check-lemmas-rs-t1-m2": "check-lemmas --instance rs --t 1 --m 2",
    "check-lemmas-rs-t1-m3": "check-lemmas --instance rs --t 1 --m 3 --samples 4 --seed 2",
    "ps-corollary-t1": "ps-corollary --instance rs --t 1 --trials 200 --seed 11",
    "ps-corollary-t2": "ps-corollary --instance rs --t 2 --trials 20 --seed 11",
    "ps-corollary-t3": "ps-corollary --instance rs --t 3 --trials 20 --seed 11",
    "constants-m3": "constants --m 3",
    "constants-m3-csv": "constants --m 3 --format csv",
}


@contextlib.contextmanager
def _non_member(name: str):
    """The exit-1 case: every sum-code membership test answers no, as in
    `test_harness.py::test_certify_counterexample_non_member_exits_1`."""
    if name != "certify-t1-non-member":
        yield
        return
    real = tensor.sum_contains_batch
    tensor.sum_contains_batch = lambda words, family: np.full(len(words), False)
    try:
        yield
    finally:
        tensor.sum_contains_batch = real


def run_case(name: str, tmp: Path):
    """(index entry, stdout) of one configuration run through `harness.main`."""
    out = tmp / f"{name}.cert"
    buf = io.StringIO()
    with _non_member(name), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = harness.main(CASES[name].format(out=out).split())
    sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"command": CASES[name], "exit": code, "certificate_sha256": sha}, buf.getvalue()


def test_golden_reports(tmp_path):
    index = json.loads(INDEX.read_text())
    assert sorted(index) == sorted(CASES), "corpus and CASES differ: regenerate"
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)
    changed = []
    for name in CASES:
        entry, stdout = run_case(name, tmp_path)
        if entry != index[name]:
            changed.append(f"{name}: {entry} != {index[name]}")
        if stdout != (GOLDEN / f"{name}.out").read_text():
            changed.append(f"{name}: stdout differs from golden/{name}.out")
    assert changed == [], "\n".join(changed)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    index = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            index[name], stdout = run_case(name, Path(tmp))
            (GOLDEN / f"{name}.out").write_text(stdout)
    INDEX.write_text(json.dumps(index, indent=1) + "\n")
    print(f"wrote {len(index)} configurations to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
