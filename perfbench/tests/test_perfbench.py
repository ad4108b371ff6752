"""Each benchmark check must reject a wrong output, and tracing must survive
a program that no longer has a wrapped function.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference
import tracer
import workloads
from run import per_layer_metrics
from prodexp import codes, expansion, gf_poly, tensor

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Certificates.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def certify_t2(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "t2.cert"
    rc, stdout = workloads.run_cli(["certify-counterexample", "--t", "2", "--out", str(path)])
    return rc, stdout, path.read_text()


def test_reference_writer_matches_program_certificate(certify_t2):
    assert certify_t2[2] == reference.v1_certificate_text(2)


def test_certify_check_accepts_program_output(certify_t2):
    assert workloads.check_certify_output(*certify_t2, t=2) == []


def test_certify_check_rejects_one_changed_witness_cell(certify_t2):
    rc, stdout, text = certify_t2
    problems = workloads.check_certify_output(rc, stdout, workloads.flip_one_witness_cell(text), t=2)
    assert any("witness differs" in p for p in problems)


def test_certify_check_rejects_wrong_bound_and_report(certify_t2):
    rc, stdout, text = certify_t2
    text = text.replace("bound 1/15", "bound 1/16")
    assert any("bound" in p for p in workloads.check_certify_output(rc, stdout, text, t=2))
    bad_report = stdout.replace('"value":"1/15"', '"value":"1/16"')
    assert workloads.check_certify_output(rc, bad_report, certify_t2[2], t=2)
    assert workloads.check_certify_output(1, stdout, certify_t2[2], t=2)


def test_flip_changes_one_witness_cell_only():
    text = reference.v1_certificate_text(2)
    diff = [(a, b) for a, b in zip(text.split("\n"), workloads.flip_one_witness_cell(text).split("\n"))
            if a != b]
    assert len(diff) == 1
    changed = [(x, y) for x, y in zip(*(line.split(" ") for line in diff[0])) if x != y]
    assert len(changed) == 1 and "0" not in changed[0]


def _verify_workload(t: int, text: str):
    """The verify workload on a smaller certificate."""
    wl = workloads.VerifyRS255(ROOT, 0)
    wl.t, wl.family, wl.text = t, workloads._rs_family(t), text
    return wl


def test_verify_check_accepts_benchmark_certificate():
    wl = _verify_workload(2, reference.v1_certificate_text(2))
    cert, ok = wl.round(lambda name, fn, *args: fn(*args))
    assert ok is True and workloads.check_certificate(cert, 2) == []
    assert wl.check((cert, ok)) == []


def test_verify_check_rejects_changed_cell_and_a_verifier_that_accepts_it(monkeypatch):
    text = reference.v1_certificate_text(2)
    wl = _verify_workload(2, text)
    cert, ok = wl._verify(workloads.flip_one_witness_cell(text))
    assert ok is False
    assert any("returned False" in p for p in wl.check((cert, ok)))
    # a verifier that no longer tests sum-code membership accepts the
    # changed certificate; the check's negative case must catch it
    monkeypatch.setattr(expansion, "sum_contains", lambda *args, **kwargs: True)
    good = wl._verify(text)
    assert good[1] is True
    assert any("one changed witness cell" in p for p in wl.check(good))


def test_command_that_exits_with_usage_error_raises():
    with pytest.raises(workloads.CommandError):
        workloads.run_cli("rho-exact --instance nosuch --m 2".split())


# ----------------------------------------------------------------------
# decode-rs63.
# ----------------------------------------------------------------------

def _pool(**changes):
    ratios = [(f"line-corrupt-{r}-ax{a}", Fraction(1, 2)) for r in range(8) for a in (0, 1)]
    ratios += [("diagonal", Fraction(1)), ("diagonal-scaled", Fraction(1))]
    ratios += [(f"uniform-{i}", Fraction(21, 11)) for i in range(4)]
    ratios = dict(ratios)
    ratios.update(changes.pop("ratios", {}))
    rep = SimpleNamespace(ratios=tuple(ratios.items()), skipped=0, value=min(ratios.values()))
    for key, val in changes.items():
        setattr(rep, key, val)
    return rep


def test_decode_pool_check_accepts_expected_pool():
    assert workloads.check_decode_pool(_pool(), 4) == []


@pytest.mark.parametrize(
    "change",
    [
        # one more error in the expectation of a 63-error corruption: 64/126
        {"ratios": {"line-corrupt-3-ax1": Fraction(32, 63)}},
        {"ratios": {"diagonal": Fraction(64, 63)}},
        {"ratios": {"diagonal-scaled": Fraction(62, 63)}},
        {"ratios": {"uniform-2": Fraction(1, 73)}},
        {"skipped": 1},
        {"value": Fraction(21, 11)},
    ],
)
def test_decode_pool_check_rejects_one_step_off(change):
    assert workloads.check_decode_pool(_pool(**change), 4)


def _pairs(**changes):
    rep = SimpleNamespace(trials=20, failures=0, line_budget=1, max_observed_delta=Fraction(1, 63))
    for key, val in changes.items():
        setattr(rep, key, val)
    return rep


def test_pair_proximity_check():
    assert workloads.check_pair_proximity(_pairs(), 20) == []
    for change in ({"failures": 1}, {"line_budget": 0}, {"line_budget": 2},
                   {"max_observed_delta": Fraction(1, 35)}, {"trials": 19}):
        assert workloads.check_pair_proximity(_pairs(**change), 20), change


# ----------------------------------------------------------------------
# exact-small.
# ----------------------------------------------------------------------

def test_exact_checks_accept_program_and_reject_changed_values():
    rc, out = workloads.run_cli("rho-exact --instance rep2 --m 3".split())
    assert workloads.check_exact_value("rho rep2 m=3", rc, out) == []
    assert workloads.check_exact_value("rho rep2 m=3", rc, out.replace('"1/3"', '"1/4"'))

    rc, out = workloads.run_cli("check-lemmas --instance rep2 --m 3".split())
    assert workloads.check_lemmas(rc, out) == []
    assert workloads.check_lemmas(rc, out.replace("rho_a=4/9", "rho_a=5/9"))
    assert workloads.check_lemmas(rc, out.replace('"holds":true', '"holds":false', 1))
    assert workloads.check_lemmas(1, out)

    rc, out = workloads.run_cli("rho-sampled --instance rs --t 1 --m 3 --samples 4 --seed 3".split())
    assert workloads.check_rho_sampled(rc, out, 3) == []
    recs = [json.loads(line) for line in out.splitlines()]
    recs[0]["value"] = "1/2"
    assert workloads.check_rho_sampled(rc, "\n".join(json.dumps(r) for r in recs), 3)
    assert workloads.check_rho_sampled(rc, out, 4)


def test_stored_exact_values_match_oracle():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    assert reference.oracle_values(oracles) == reference.EXACT_EXPECTED


def test_reference_witness_field_tables():
    # w^15 = 1 in GF(16) and w^4 = w + 1 for the modulus x^4 + x + 1
    exp = reference.exp_table(4)
    assert exp[4] == 0b0011 and len(set(exp.tolist())) == 15
    w = reference.witness(2)
    assert np.count_nonzero(w) == 225
    assert all(np.count_nonzero(w, axis=a).max() == 1 for a in range(3))


# ----------------------------------------------------------------------
# Tracing.
# ----------------------------------------------------------------------

def _fake_modules(monkeypatch):
    """A defining module, a module that imported a name from it, and a class."""
    lib = types.ModuleType("fakelib")
    exec(
        "def helper(x):\n    return x + 1\n"
        "def outer(x):\n    return helper(x) * 2\n"
        "class Box:\n"
        "    def get(self):\n        return helper(1)\n"
        "    @staticmethod\n    def make():\n        return Box()\n",
        lib.__dict__,
    )
    user = types.ModuleType("fakeuser")
    user.helper = lib.helper  # as `from fakelib import helper` binds it
    monkeypatch.setitem(sys.modules, "fakelib", lib)
    monkeypatch.setitem(sys.modules, "fakeuser", user)
    return lib, user


def test_instrument_rebinds_imported_names_and_methods(monkeypatch):
    lib, user = _fake_modules(monkeypatch)
    tr = tracer.Tracer()
    tracer.instrument(tr, {"fakelib": lib})
    assert user.helper is lib.helper and user.helper(1) == 2
    assert lib.outer(1) == 4
    assert lib.Box.make().get() == 2
    assert tr.metric("fakelib.helper.calls") == 3
    assert tr.metric("fakelib.outer.calls") == 1
    assert tr.metric("fakelib.Box.get.calls") == 1
    outer_span = next(s for s in tr.spans if s[2] == "fakelib.outer")
    child = next(s for s in tr.spans if s[1] == outer_span[0])
    assert child[2] == "fakelib.helper"


def test_removed_function_is_absent_not_an_error(monkeypatch):
    lib, _ = _fake_modules(monkeypatch)
    monkeypatch.delattr(lib, "outer")
    tr = tracer.Tracer()
    tracer.instrument(tr, {"fakelib": lib})
    lib.helper(0)
    assert tr.metric("fakelib.outer.calls") is None
    assert tr.metric("fakelib.outer.s") is None
    assert tr.metric("fakelib.helper.calls") == 1
    spec = {"per_layer": [{"name": "fakelib.outer.s"}, {"name": "fakelib.helper.calls"}]}
    traced = {"metrics": {n["name"]: tr.metric(n["name"]) for n in spec["per_layer"]},
              "round_s": [1.25]}
    metrics = per_layer_metrics({"round_s": [1.0]}, traced, spec)
    assert "fakelib.outer.s" not in metrics and metrics["fakelib.helper.calls"] == 1
    assert metrics["trace.overhead_s"] == pytest.approx(0.25)


def test_program_without_sum_contains_traces_without_it():
    """On the real package, in a fresh process so no wrapper leaks out."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer\n"
        "from prodexp import codes, expansion, gf_poly, harness, linalg, tensor, testability\n"
        "for mod in (tensor, expansion, harness):\n"
        "    del mod.sum_contains\n"
        "tr = tracer.Tracer()\n"
        "tracer.instrument(tr, dict(gf_poly=gf_poly, linalg=linalg, codes=codes, tensor=tensor,\n"
        "                           expansion=expansion, testability=testability, harness=harness))\n"
        "f = gf_poly.field_make(2)\n"
        "codes.rs_primitive(f, 1, 3).contains_batch(__import__('numpy').zeros((1, 3), 'uint8'))\n"
        "print(tr.metric('tensor.sum_contains.calls'), tr.metric('tensor.sum_contains.cells'),\n"
        "      tr.metric('codes.CyclicCode.contains_batch.calls'), tr.metric('tensor.self_s'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[:3] == ["None", "None", "1"] and float(out[3]) == 0.0
