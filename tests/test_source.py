"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prodexp"


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
    """Nonzero lines are counted only by `tensor.line_counts`: no other
    function of the package calls `np.any`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.any":
                    found.append(f"{path.name}:{func.name}")
    assert found == ["tensor.py:line_counts"], found


def test_one_batched_line_decoder():
    """Batches of lines go through `codes.decode_lines`: no module but
    `codes` calls `bounded_distance_decode`, and `tensor` and `testability`
    run no Python loop that calls `nearest_codeword` line by line."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if ast.unparse(node.func).rpartition(".")[2] == "bounded_distance_decode":
                if path.name != "codes.py":
                    found.append(f"{path.name}:{node.lineno}")
        if path.name not in ("tensor.py", "testability.py"):
            continue
        for loop in ast.walk(tree):
            if not isinstance(loop, loops):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("nearest_codeword"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [], found


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
