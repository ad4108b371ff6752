"""Rules on the package source itself."""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prodexp"

# arguments that the benchmark's observers read from a call, in order
OBSERVED_ARGS = {
    "codes.bounded_distance_decode": ("code", "word"),
    "codes.delta_to_code": ("word", "code"),
    "tensor.sum_contains": ("word", "family"),
}


def test_no_assert_in_package_source():
    """`python -O` strips asserts, so a broken invariant must raise instead."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in src/prodexp: {found}"


def test_no_np_roll_in_package_source():
    """Cyclic products go through the one check-polynomial kernel,
    `CyclicCode.check_products`, not through shifted copies."""
    found = [path.name for path in sorted(SRC.glob("*.py")) if "np.roll" in path.read_text()]
    assert found == [], f"np.roll in src/prodexp: {found}"


def test_one_line_count_implementation():
    """Nonzero lines are counted only on line codes: nothing in the package
    calls `np.any`, and only `tensor.line_counts` and
    `tensor.xor_line_counts` build line codes and count them."""
    any_calls, code_calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        any_calls += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.any"
        ]
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                called = ast.unparse(node.func).rpartition(".")[2]
                if called in ("_line_codes", "_nonzero_codes"):
                    code_calls.append(f"{path.name}:{func.name}:{called}")
    assert any_calls == [], any_calls
    assert sorted(set(code_calls)) == [
        "tensor.py:line_counts:_line_codes",
        "tensor.py:line_counts:_nonzero_codes",
        "tensor.py:xor_line_counts:_line_codes",
        "tensor.py:xor_line_counts:_nonzero_codes",
    ], code_calls


def test_one_batched_line_decoder():
    """Batches of lines go through `codes.nearest_lines`: no module but
    `codes` calls `bounded_distance_decode`, and `tensor` and `testability`
    run no Python loop that calls `nearest_lines` line by line."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = ast.unparse(node.func).rpartition(".")[2]
            if called == "bounded_distance_decode" and path.name != "codes.py":
                found.append(f"{path.name}:{node.lineno}")
        if path.name not in ("tensor.py", "testability.py"):
            continue
        for loop in ast.walk(tree):
            if not isinstance(loop, loops):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("nearest_lines"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [], found


def test_one_elimination():
    """`linalg.rref` is the package's only elimination: no module defines a
    solver, a kernel or a row-space basis of its own (`DecompositionSpace`
    reads all three from one reduction, and a per-line decoder would need a
    solver)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}:{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("solve", "kernel_basis", "row_space_basis")
        ]
    assert found == [], found


def test_one_matrix_product_kernel():
    """Products over the field go through the bit-plane product: `linalg.matmul`
    runs no Python loop (over A's columns or otherwise) and is one
    `bit_product` of a `bit_matrix`."""
    tree = ast.parse((SRC / "linalg.py").read_text())
    matmul = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "matmul")
    loops = [node.lineno for node in ast.walk(matmul) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    called = {ast.unparse(node.func) for node in ast.walk(matmul) if isinstance(node, ast.Call)}
    assert loops == [], loops
    assert {"bit_product", "bit_matrix"} <= called, called


def test_reference_distances_stay_in_tests():
    """The per-word nearest-codeword scan and the brute product distance are
    references in `tests/oracles.py` and the tests, not second paths next to
    `codes.nearest_lines` and the flat kernel, and so is the dual code
    (`orc_dual`, with the reciprocal and monic polynomials it takes): no
    package module defines or names them, nor `GF2m.pow`, which only its
    tests called."""
    gone = {
        "brute_nearest", "nearest_codeword", "beyond_radius_bound", "_product_distance",
        "delta_to_product", "dual", "unipoly_reciprocal", "unipoly_monic", "pow",
    }
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
            if name in gone:
                found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == [], found


def test_direction_words_have_one_encoder():
    """Words of a direction code come from `tensor.direction_words`, one
    message per line through `encode_batch`: only `expansion`, which builds
    its splitting matrix from it, names `_direction_basis`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "expansion.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "_direction_basis" in (getattr(node, "name", None), getattr(node, "id", None))
    ]
    assert found == [], found


def test_no_process_pool_in_package_source():
    """Every estimator runs in one process, and BLAS is its only
    parallelism: no package module imports `multiprocessing` or
    `concurrent.futures`, at module level or inside a function."""
    pools = {"multiprocessing", "concurrent"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{n}" for n in names if n.split(".")[0] in pools]
    assert found == [], found


def test_one_line_decoding_path_and_one_product_decoder():
    """Only `codes` applies the decoder rule: no other module calls
    `decode_lines` or `_decodes_within_radius`, and outside `codes` lines
    reach `nearest_lines` only from `tensor.nearest_in_direction`.  A product
    codeword is sought only by the batched `tensor.decode_to_products`: no
    other function calls both `nearest_in_direction` and a product-membership
    test (`product_contains` or `product_contains_batch`)."""
    decoders, line_paths, sweeps = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            called = {
                ast.unparse(node.func).rpartition(".")[2]
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
            }
            if path.name == "codes.py":
                continue
            if called & {"decode_lines", "_decodes_within_radius"}:
                decoders.append(f"{path.name}:{func.name}")
            if "nearest_lines" in called:
                line_paths.append(f"{path.name}:{func.name}")
            membership = called & {"product_contains", "product_contains_batch"}
            if "nearest_in_direction" in called and membership:
                sweeps.append(f"{path.name}:{func.name}")
    assert decoders == [], decoders
    assert line_paths == ["tensor.py:nearest_in_direction"], line_paths
    assert sweeps == ["tensor.py:decode_to_products"], sweeps


def test_one_membership_kernel():
    """Only `codes` multiplies by check coefficients: no other module reads
    `check_coeffs` or the kernel's private layouts, and `tensor` tests
    membership through `CyclicCode.check_products` alone, never through
    `contains` or `contains_batch`."""
    kernel = {"check_coeffs", "_pair_products", "_pair_table", "_bitsliced_products", "_bitslice_terms"}
    found, kernel_calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in kernel and path.name != "codes.py":
                found.append(f"{path.name}:{node.lineno}:{name}")
            if path.name == "tensor.py" and isinstance(node, ast.Call):
                called = ast.unparse(node.func).rpartition(".")[2]
                if called in ("contains", "contains_batch"):
                    found.append(f"tensor.py:{node.lineno}:{called}")
                if called == "check_products":
                    kernel_calls.append(node.lineno)
    assert found == [], found
    assert len(kernel_calls) == 2, kernel_calls  # in_direction_code, sum_contains_batch


def test_one_text_writer_streamed_to_the_file():
    """The certificate reaches its file block by block: `harness` never calls
    `to_text`, which joins the blocks into one string.  Only `tensor` reads
    the cell tables `_HEX_CELL` and `_HEX_LINE_END`, so the hex text has one
    writer, `TensorWord.text_blocks`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("_HEX_CELL", "_HEX_LINE_END") and path.name != "tensor.py":
                found.append(f"{path.name}:{node.lineno}:{name}")
            if name == "to_text" and path.name == "harness.py":
                found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == [], found


def _traceable(module, qual: str):
    """The function that the benchmark's tracer wraps for `qual` (`f` or
    `Class.f` in `module`), or None: a public callable whose `__module__` is
    the module, or a public function or static method defined on a public
    class of it."""
    owner_name, _, attr = qual.rpartition(".")
    if attr.startswith("_") or owner_name.startswith("_"):
        return None
    if not owner_name:
        obj = vars(module).get(attr)
        if obj is None or inspect.isclass(obj) or not callable(obj):
            return None
        return obj if getattr(obj, "__module__", None) == module.__name__ else None
    owner = vars(module).get(owner_name)
    if not inspect.isclass(owner) or owner.__module__ != module.__name__:
        return None
    member = vars(owner).get(attr)
    if isinstance(member, staticmethod):
        member = member.__func__
    return member if inspect.isfunction(member) else None


def test_benchmark_per_layer_names_resolve():
    """Every per-layer metric of BENCHMARK.json names a function that the
    benchmark's tracer can still wrap; a metric whose function is gone,
    private, moved or re-exported from another module silently drops out of
    the benchmark's result.  The observed functions keep the arguments that
    their observers read."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing, names = [], set()
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_s") or name.startswith("trace."):
            continue
        module_name, _, rest = name.rpartition(".")[0].partition(".")
        names.add(f"{module_name}.{rest}")
        fn = _traceable(importlib.import_module(f"prodexp.{module_name}"), rest)
        if fn is None:
            missing.append(name)
        elif f"{module_name}.{rest}" in OBSERVED_ARGS:
            want = OBSERVED_ARGS[f"{module_name}.{rest}"]
            params = tuple(inspect.signature(fn).parameters)[: len(want)]
            if params != want:
                missing.append(f"{name}: arguments {params}, observer reads {want}")
    assert missing == [], missing
    assert set(OBSERVED_ARGS) <= names


def _functions():
    """(module file name, function node) over the package source."""
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, ast.FunctionDef):
                yield path.name, func


def _calls_by_function():
    """{"module.py:function": set of called names} over the package source."""
    return {
        f"{name}:{func.name}": {
            ast.unparse(node.func).rpartition(".")[2]
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
        }
        for name, func in _functions()
    }


def test_line_test_counts_in_integers():
    """The line test carries integer counts from the line codes to the
    estimators: `codes.distance_bound`, `tensor.nearest_in_direction` and
    `testability._line_distances` construct no `Fraction` or
    `DistanceBound`, and `nearest_in_direction` takes arrays only, with no
    `isinstance` branch."""
    integer_path = {
        "codes.py:distance_bound", "tensor.py:nearest_in_direction", "testability.py:_line_distances",
    }
    seen, found = set(), []
    for name, func in _functions():
        where = f"{name}:{func.name}"
        if where not in integer_path:
            continue
        seen.add(where)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            called = ast.unparse(node.func)
            if called.partition(".")[0] in ("Fraction", "DistanceBound") or called == "isinstance":
                found.append(f"{where}:{node.lineno}:{called}")
    assert seen == integer_path, seen
    assert found == [], found


def test_one_exact_ratio_kernel():
    """Exact ratios of many words go through `testability._exact_ratio`: no
    other function calls both `_min_distance_to_rows` and `_flat_distances`,
    and no module defines the per-word `_exact_word_ratio`."""
    kernels = [
        name
        for name, called in _calls_by_function().items()
        if {"_min_distance_to_rows", "_flat_distances"} <= called
    ]
    assert kernels == ["testability.py:_exact_ratio"], kernels
    per_word = [f"{name}:{f.lineno}" for name, f in _functions() if f.name == "_exact_word_ratio"]
    assert per_word == [], per_word


def test_one_word_pool():
    """Only `testability._word_pool` names the `uniform-i` pool words."""
    pools = [
        f"{name}:{func.name}"
        for name, func in _functions()
        if any(
            isinstance(node, ast.JoinedStr) and ast.unparse(node).startswith("f'uniform-")
            for node in ast.walk(func)
        )
    ]
    assert pools == ["testability.py:_word_pool"], pools


def test_one_diagonal_builder():
    """Diagonal words have one builder, `expansion.twisted_diagonal`: no other
    function of `expansion` or `testability` calls `omega_pow`."""
    builders = [
        name
        for name, called in _calls_by_function().items()
        if name.partition(":")[0] in ("expansion.py", "testability.py") and "omega_pow" in called
    ]
    assert builders == ["expansion.py:twisted_diagonal"], builders


def test_harness_runs_no_estimator_loop():
    """The CLI builds records: `harness` imports no numpy, and it neither
    draws direction words nor rates tuples itself."""
    tree = ast.parse((SRC / "harness.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.split(".")[0] == "numpy"] == [], imported
    called = set().union(
        *(c for name, c in _calls_by_function().items() if name.startswith("harness.py:"))
    )
    assert not called & {"random_direction_word", "agreement_ratio_sampled"}, called


def _ast_names(node):
    """The identifiers that an AST node defines or names."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


def test_each_decision_written_once():
    """One record type, one exact composition path, one product-decoder
    entry: no module defines or names `make_record`, `_RECORD_FIELDS` or
    `decode_to_product` (as exact names, so `decode_to_products` stays);
    `check_composition` takes no `mode`; and `harness` declares the record
    fields once, in `Record`: no parameter list or literal collection there
    names most of them again."""
    gone = {"make_record", "_RECORD_FIELDS", "decode_to_product"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            found += [f"{path.name}:{node.lineno}:{n}" for n in _ast_names(node) if n in gone]
    assert found == [], found
    testability = importlib.import_module("prodexp.testability")
    assert "mode" not in inspect.signature(testability.check_composition).parameters
    harness = importlib.import_module("prodexp.harness")
    fields = harness.Record._fields
    assert fields == (
        "kind", "quantity", "value", "mode", "instance",
        "test", "seed", "samples", "holds", "detail",
    )
    again = []
    for node in ast.walk(ast.parse((SRC / "harness.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            named = [a.arg for a in node.args.args + node.args.kwonlyargs]
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            named = [e.value for e in node.elts if isinstance(e, ast.Constant)]
        else:
            continue
        if 2 * len(set(named) & set(fields)) > len(fields):
            again.append(node.lineno)
    assert again == [], again


def test_one_line_norm_scale():
    """Line norms have one integer scale, `tensor.line_norm_scale`: no module
    but `tensor` calls `lcm`; the splitting space and both agreement
    estimators read the scale from it; and the sampled estimator counts in
    integers, with no `line_weight` or `TensorWord` of its own."""
    lcm_calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tensor.py":
            continue
        lcm_calls += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "lcm"
        ]
    assert lcm_calls == [], lcm_calls
    calls = _calls_by_function()
    readers = [
        "expansion.py:__init__", "testability.py:rho_a_exact", "testability.py:agreement_ratio_sampled",
    ]
    assert [name for name in readers if "line_norm_scale" not in calls[name]] == []
    sampled = calls["testability.py:agreement_ratio_sampled"]
    assert not sampled & {"line_weight", "TensorWord"}, sampled



def test_no_per_check_lemma_functions():
    """check-lemmas' exact checks are one function, `testability.check_lemmas`:
    no module defines or names `check_robust_agreement` or
    `check_hyperplane_bound`."""
    gone = {"check_robust_agreement", "check_hyperplane_bound"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            found += [f"{path.name}:{node.lineno}:{n}" for n in _ast_names(node) if n in gone]
    assert found == [], found


def test_harness_builds_no_check_report():
    """The harness turns reports into records: it never calls `CheckReport`."""
    tree = ast.parse((SRC / "harness.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "CheckReport"
    ]
    assert found == [], found


def test_pair_proximity_counts_in_integers():
    """`check_pair_proximity` keeps each trial's cell difference as an
    integer: no loop or comprehension in it calls `Fraction`."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    proximity = next(f for _, f in _functions() if f.name == "check_pair_proximity")
    found = [
        node.lineno
        for loop in ast.walk(proximity)
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "Fraction"
    ]
    assert found == [], found
